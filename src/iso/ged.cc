#include "src/iso/ged.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace catapult {

namespace {

// Multiset-intersection size of two sorted label vectors.
size_t SortedIntersectionSize(const std::vector<Label>& a,
                              const std::vector<Label>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return common;
}

std::vector<Label> SortedLabels(const Graph& g) {
  std::vector<Label> labels(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) labels[v] = g.VertexLabel(v);
  std::sort(labels.begin(), labels.end());
  return labels;
}

// One bookkeeping batch per search (not per node): the per-node cost of
// instrumentation inside Dfs would dwarf the work it measures.
void RecordSearch(uint64_t nodes, bool truncated) {
  obs::Count(obs::Counter::kGedCalls);
  obs::Count(obs::Counter::kGedNodes, nodes);
  obs::Observe(obs::Hist::kGedNodesPerCall, nodes);
  if (truncated) obs::Count(obs::Counter::kGedTruncated);
}

// Edge-matrix entry of a vertex pair with no edge (labels are 32-bit).
constexpr uint64_t kNoEdge = ~uint64_t{0};

// Moves one label out of (`Remove`) or back into (`Restore`) the histogram
// `mine`, keeping `common` = sum over labels of min(mine, other).
void Remove(std::vector<int>& mine, const std::vector<int>& other,
            uint32_t label, int& common) {
  if (mine[label] <= other[label]) --common;
  --mine[label];
}
void Restore(std::vector<int>& mine, const std::vector<int>& other,
             uint32_t label, int& common) {
  if (mine[label] < other[label]) ++common;
  ++mine[label];
}

// Depth-first branch-and-bound over assignments of a's vertices, in
// decreasing-degree order, to unused b-vertices or to deletion (DESIGN.md
// §15, "Diversity GED kernel"). Everything the search reads is laid out once
// per call:
//  * vertex labels as dense ids: a's indexed by depth, b's with one extra
//    slot `nb` that stands for deletion and carries an id no a-label has;
//  * a's edge-label matrix permuted into assignment order, and b's with an
//    extra all-kNoEdge row and column for the deletion slot, so an edge pair
//    costs one comparison and deletion needs no branch;
//  * b's edge list, for the leaf cost.
// The label-multiset lower bound is kept incrementally (label histograms of
// the undecided a-vertices and the unused b-vertices plus the size of their
// intersection), and candidates go into per-depth buffers, so Dfs allocates
// nothing. Assignment order, candidate order, bound values and node
// accounting must equal those of the reference search in
// tests/reference_ged.h, which the tests and the fuzz target compare
// against call by call.
class FlatGedSearch {
 public:
  FlatGedSearch(const Graph& a, const Graph& b, uint64_t node_budget)
      : na_(a.NumVertices()), nb_(b.NumVertices()), node_budget_(node_budget) {
    std::vector<VertexId> order(na_);
    for (VertexId v = 0; v < na_; ++v) order[v] = v;
    std::stable_sort(order.begin(), order.end(), [&](VertexId l, VertexId r) {
      return a.Degree(l) > a.Degree(r);
    });
    std::vector<size_t> depth_of(na_);
    for (size_t d = 0; d < na_; ++d) depth_of[order[d]] = d;

    std::vector<Label> labels = SortedLabels(a);
    std::vector<Label> b_labels = SortedLabels(b);
    labels.insert(labels.end(), b_labels.begin(), b_labels.end());
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    auto dense = [&](Label label) {
      return static_cast<uint32_t>(
          std::lower_bound(labels.begin(), labels.end(), label) -
          labels.begin());
    };
    count_a_.assign(labels.size(), 0);
    count_b_.assign(labels.size(), 0);
    a_label_.resize(na_);
    for (size_t d = 0; d < na_; ++d) {
      a_label_[d] = dense(a.VertexLabel(order[d]));
      ++count_a_[a_label_[d]];
    }
    b_label_.resize(nb_ + 1);
    for (VertexId v = 0; v < nb_; ++v) {
      b_label_[v] = dense(b.VertexLabel(v));
      ++count_b_[b_label_[v]];
    }
    b_label_[nb_] = static_cast<uint32_t>(labels.size());
    for (size_t l = 0; l < labels.size(); ++l) {
      common_ += std::min(count_a_[l], count_b_[l]);
    }

    a_edge_.assign(na_ * na_, kNoEdge);
    for (VertexId u = 0; u < na_; ++u) {
      for (const Graph::Neighbor& n : a.Neighbors(u)) {
        a_edge_[depth_of[u] * na_ + depth_of[n.to]] = n.edge_label;
      }
    }
    b_edge_.assign((nb_ + 1) * (nb_ + 1), kNoEdge);
    for (VertexId v = 0; v < nb_; ++v) {
      for (const Graph::Neighbor& n : b.Neighbors(v)) {
        b_edge_[v * (nb_ + 1) + n.to] = n.edge_label;
        if (v < n.to) b_edges_.push_back({v, n.to});
      }
    }

    assigned_.assign(na_, static_cast<uint32_t>(nb_));
    b_used_.assign(nb_, 0);
    unused_b_ = static_cast<int>(nb_);
    candidates_.resize(na_ * nb_);
  }

  // Greedy upper bound to seed branch-and-bound: in assignment order, each
  // a-vertex takes its cheapest move (deletion first, then the unused
  // b-vertices in index order, replacing only on a strict improvement).
  int GreedyUpperBound() {
    int cost = 0;
    for (size_t depth = 0; depth < na_; ++depth) {
      uint32_t best_v = static_cast<uint32_t>(nb_);
      int best_step = StepCost(depth, best_v);
      for (uint32_t v = 0; v < nb_; ++v) {
        if (b_used_[v]) continue;
        int step = StepCost(depth, v);
        if (step < best_step) {
          best_step = step;
          best_v = v;
        }
      }
      assigned_[depth] = best_v;
      if (best_v != nb_) {
        b_used_[best_v] = 1;
        --unused_b_;
      }
      cost += best_step;
    }
    cost += LeafCost();
    // Reset state for the exact search.
    for (size_t depth = 0; depth < na_; ++depth) {
      if (assigned_[depth] != nb_) b_used_[assigned_[depth]] = 0;
      assigned_[depth] = static_cast<uint32_t>(nb_);
    }
    unused_b_ = static_cast<int>(nb_);
    return cost;
  }

  void Dfs(size_t depth, int cost_so_far) {
    if (node_budget_ != 0 && nodes >= node_budget_) {
      exact = false;
      return;
    }
    ++nodes;
    // Label-multiset mismatch of the undecided a-vertices vs the unused
    // b-vertices: an admissible bound on the remaining cost.
    const int remaining =
        std::max(static_cast<int>(na_ - depth), unused_b_) - common_;
    if (cost_so_far + remaining >= best) return;
    if (depth == na_) {
      const double total = cost_so_far + LeafCost();
      if (total < best) best = total;
      return;
    }
    // Same-label b-vertices first (cheap moves explored early), then the
    // rest, each in index order.
    const uint32_t label = a_label_[depth];
    uint32_t* candidates = candidates_.data() + depth * nb_;
    size_t count = 0;
    for (uint32_t v = 0; v < nb_; ++v) {
      if (!b_used_[v] && b_label_[v] == label) candidates[count++] = v;
    }
    for (uint32_t v = 0; v < nb_; ++v) {
      if (!b_used_[v] && b_label_[v] != label) candidates[count++] = v;
    }
    Remove(count_a_, count_b_, label, common_);
    for (size_t k = 0; k < count; ++k) {
      const uint32_t v = candidates[k];
      const int step = StepCost(depth, v);
      assigned_[depth] = v;
      b_used_[v] = 1;
      --unused_b_;
      Remove(count_b_, count_a_, b_label_[v], common_);
      Dfs(depth + 1, cost_so_far + step);
      Restore(count_b_, count_a_, b_label_[v], common_);
      ++unused_b_;
      b_used_[v] = 0;
      assigned_[depth] = static_cast<uint32_t>(nb_);
      if (!exact) return;  // truncated: the state is never read again
    }
    // Delete the a-vertex.
    Dfs(depth + 1, cost_so_far + StepCost(depth, static_cast<uint32_t>(nb_)));
    Restore(count_a_, count_b_, label, common_);
  }

  double best = 0.0;
  uint64_t nodes = 0;
  bool exact = true;

 private:
  // Incremental cost of giving the a-vertex at `depth` the b-vertex `bv`
  // (nb_ = deletion), given the moves at depths [0, depth).
  int StepCost(size_t depth, uint32_t bv) const {
    int cost = a_label_[depth] != b_label_[bv] ? 1 : 0;
    const uint64_t* a_row = a_edge_.data() + depth * na_;
    const uint64_t* b_row = b_edge_.data() + bv * (nb_ + 1);
    for (size_t d = 0; d < depth; ++d) {
      if (a_row[d] != b_row[assigned_[d]]) ++cost;
    }
    return cost;
  }

  // Cost contributed at a leaf: unused b-vertices are inserted, along with
  // every b-edge touching at least one of them.
  int LeafCost() const {
    int cost = unused_b_;
    for (const auto& [u, v] : b_edges_) {
      if (!b_used_[u] || !b_used_[v]) ++cost;
    }
    return cost;
  }

  const size_t na_;
  const size_t nb_;
  const uint64_t node_budget_;
  std::vector<uint32_t> a_label_;  // dense label by depth
  std::vector<uint32_t> b_label_;  // dense label by b-vertex; [nb_] = deletion
  std::vector<uint64_t> a_edge_;   // na x na, rows/columns by depth
  std::vector<uint64_t> b_edge_;   // (nb+1) x (nb+1), row/column nb_ empty
  std::vector<std::pair<uint32_t, uint32_t>> b_edges_;
  std::vector<uint32_t> assigned_;    // b-vertex (or nb_) by depth
  std::vector<uint8_t> b_used_;
  std::vector<uint32_t> candidates_;  // nb slots per depth
  std::vector<int> count_a_;          // undecided a-vertices per label
  std::vector<int> count_b_;          // unused b-vertices per label
  int common_ = 0;                    // multiset intersection size
  int unused_b_ = 0;
};

}  // namespace

double GedLowerBound(const Graph& a, const Graph& b) {
  std::vector<Label> la = SortedLabels(a);
  std::vector<Label> lb = SortedLabels(b);
  size_t common = SortedIntersectionSize(la, lb);
  size_t va = a.NumVertices();
  size_t vb = b.NumVertices();
  double vertex_term =
      static_cast<double>(va > vb ? va - vb : vb - va) +
      static_cast<double>(std::min(va, vb) - common);
  size_t ea = a.NumEdges();
  size_t eb = b.NumEdges();
  double edge_term = static_cast<double>(ea > eb ? ea - eb : eb - ea);
  return vertex_term + edge_term;
}

GedResult GraphEditDistance(const Graph& a, const Graph& b,
                            GedOptions options, double cutoff) {
  FlatGedSearch search(a, b, options.node_budget);
  const int greedy = search.GreedyUpperBound();
  // `best` starts at the greedy bound + 1 ulp of slack, so the exact search
  // can rediscover an equal-cost solution, or at the cutoff when that is
  // lower: then no branch that cannot end below the cutoff is explored.
  const double seed = std::min(greedy + 1e-9, cutoff);
  search.best = seed;
  search.Dfs(0, 0);
  GedResult result;
  // Every cost is integral. A leaf below the seed is the best assignment
  // found; without one the greedy bound stands, which is >= the cutoff
  // whenever the cutoff was the seed and the search was exact.
  result.distance = search.best < seed ? search.best : greedy;
  result.exact = search.exact;
  result.nodes = search.nodes;
  RecordSearch(search.nodes, !search.exact);
  return result;
}

}  // namespace catapult
