#include "src/iso/mcs.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/flat_graph.h"
#include "src/obs/metrics.h"

namespace catapult {

namespace {

// One bookkeeping batch per search (not per node), as for GED.
void RecordSearch(uint64_t nodes, bool truncated) {
  obs::Count(obs::Counter::kMcsCalls);
  obs::Count(obs::Counter::kMcsNodes, nodes);
  obs::Observe(obs::Hist::kMcsNodesPerCall, nodes);
  if (truncated) obs::Count(obs::Counter::kMcsTruncated);
}

// A pair (a-vertex u, b-vertex v) that can extend the mapping, and its gain:
// the common edges it adds.
struct Candidate {
  uint32_t u, v, gain;
};

// Search order of candidates: gain descending, then u, then v ascending.
// Keys are unique, so any sort yields the same sequence.
bool SearchOrder(const Candidate& l, const Candidate& r) {
  if (l.gain != r.gain) return l.gain > r.gain;
  if (l.u != r.u) return l.u < r.u;
  return l.v < r.v;
}

// McGregor-style branch-and-bound over partial vertex maps (DESIGN.md §15,
// "MCS kernel"). Both graphs are flattened once per call, and the search
// keeps `gain_[x * nb + y]`, the common edges the pair (x, y) would add to
// the current mapping, up to date on every push and pop instead of
// recomputing it from the mapping. The connected variant derives each
// node's candidate list from its parent's, so a node costs the product of
// the two new neighbourhoods plus one sort of a short list. Seed order,
// candidate order, bounds and node accounting must equal those of the
// reference search in tests/reference_mcs.h, which the tests and the fuzz
// target compare against call by call.
class FlatMcsSearch {
 public:
  FlatMcsSearch(const Graph& a, const Graph& b, const McsOptions& options)
      : flat_a_(FlatGraph::Build(a)),
        flat_b_(FlatGraph::Build(b)),
        a_(flat_a_.View()),
        b_(flat_b_.View()),
        na_(a_.num_vertices),
        nb_(b_.num_vertices),
        node_budget_(options.node_budget),
        match_edge_labels_(options.match_edge_labels),
        min_edges_(std::min(a_.NumEdges(), b_.NumEdges())),
        gain_(na_ * nb_, 0),
        a_used_(na_, 0),
        b_used_(nb_, 0) {
    mapping_.reserve(std::min(na_, nb_));
  }

  // Grows a connected common subgraph from every label-compatible seed
  // pair, highest degree sum first.
  void RunConnected() {
    std::vector<std::pair<uint32_t, uint32_t>> seeds;
    for (uint32_t u = 0; u < na_; ++u) {
      for (uint32_t v = 0; v < nb_; ++v) {
        if (a_.labels[u] == b_.labels[v]) seeds.emplace_back(u, v);
      }
    }
    std::stable_sort(seeds.begin(), seeds.end(),
                     [&](const auto& l, const auto& r) {
                       return a_.Degree(l.first) + b_.Degree(l.second) >
                              a_.Degree(r.first) + b_.Degree(r.second);
                     });
    for (const auto& [u, v] : seeds) {
      Push<true>(u, v, 0);
      ConnectedExtend(0, 0, u, v);
      Pop(0);
      if (!exact) break;
      // Optimal already: cannot beat min edge count.
      if (best.common_edges == min_edges_) break;
    }
  }

  // Decides a's vertices in decreasing-degree order: map to an unused
  // equally labelled b-vertex (index order) or skip.
  void RunUnconnected() {
    order_.resize(na_);
    for (uint32_t v = 0; v < na_; ++v) order_[v] = v;
    std::stable_sort(order_.begin(), order_.end(), [&](uint32_t l, uint32_t r) {
      return a_.Degree(l) > a_.Degree(r);
    });
    // remaining_[i]: a-edges touching order[i..], the vertices still
    // undecided at depth i. Depends on the order alone, not on the mapping.
    remaining_.assign(na_ + 1, 0);
    std::vector<uint8_t> undecided(na_, 0);
    for (size_t index = na_; index-- > 0;) {
      const uint32_t u = order_[index];
      undecided[u] = 1;
      size_t added = 0;
      const FlatNeighbor* const end = a_.NeighborsEnd(u);
      for (const FlatNeighbor* n = a_.NeighborsBegin(u); n != end; ++n) {
        if (!undecided[n->to]) ++added;
      }
      remaining_[index] = remaining_[index + 1] + added;
    }
    UnconnectedExtend(0);
  }

  McsResult best;
  uint64_t nodes = 0;
  bool exact = true;

 private:
  bool BudgetExhausted() {
    if (node_budget_ != 0 && nodes >= node_budget_) {
      exact = false;
      return true;
    }
    ++nodes;
    return false;
  }

  void RecordBest() {
    if (current_edges_ > best.common_edges ||
        (current_edges_ == best.common_edges &&
         mapping_.size() > best.common_vertices)) {
      best.common_edges = current_edges_;
      best.common_vertices = mapping_.size();
      best.mapping = mapping_;
    }
  }

  // Maps u to v (`gain` = gain_ of the pair before the push) and adds the
  // common edges through the pair to gain_: +1 for every unused x in N_a(u)
  // and unused y in N_b(v) whose edge labels agree (when matched). Rows and
  // columns of used vertices are left alone: they are never read while the
  // vertex is used, and the push-pop nesting means the pop skips exactly the
  // vertices this push skipped. With `kCollect`, every equally labelled
  // pair whose gain becomes 1 (it had none) is appended to candidates_.
  template <bool kCollect>
  void Push(uint32_t u, uint32_t v, uint32_t gain) {
    a_used_[u] = 1;
    b_used_[v] = 1;
    mapping_.emplace_back(u, v);
    current_edges_ += gain;
    const FlatNeighbor* const a_end = a_.NeighborsEnd(u);
    const FlatNeighbor* const b_begin = b_.NeighborsBegin(v);
    const FlatNeighbor* const b_end = b_.NeighborsEnd(v);
    for (const FlatNeighbor* x = a_.NeighborsBegin(u); x != a_end; ++x) {
      if (a_used_[x->to]) continue;
      uint32_t* row = gain_.data() + size_t{x->to} * nb_;
      for (const FlatNeighbor* y = b_begin; y != b_end; ++y) {
        if (b_used_[y->to]) continue;
        if (match_edge_labels_ && x->edge_label != y->edge_label) continue;
        if (++row[y->to] == 1 && kCollect && x->to_label == y->to_label) {
          candidates_.push_back({x->to, y->to, 1});
        }
      }
    }
  }

  void Pop(uint32_t gain) {
    const auto [u, v] = mapping_.back();
    const FlatNeighbor* const a_end = a_.NeighborsEnd(u);
    const FlatNeighbor* const b_begin = b_.NeighborsBegin(v);
    const FlatNeighbor* const b_end = b_.NeighborsEnd(v);
    for (const FlatNeighbor* x = a_.NeighborsBegin(u); x != a_end; ++x) {
      if (a_used_[x->to]) continue;
      uint32_t* row = gain_.data() + size_t{x->to} * nb_;
      for (const FlatNeighbor* y = b_begin; y != b_end; ++y) {
        if (b_used_[y->to]) continue;
        if (match_edge_labels_ && x->edge_label != y->edge_label) continue;
        --row[y->to];
      }
    }
    mapping_.pop_back();
    a_used_[u] = 0;
    b_used_[v] = 0;
    current_edges_ -= gain;
  }

  // The node reached by pushing (u, v) onto its parent, whose candidate list
  // is candidates_[parent_begin, parent_end). On entry candidates_ holds, past
  // parent_end, the pairs the push gave their first gain. This node's list
  // is those plus the parent's pairs that use neither u nor v, with gains
  // re-read: the candidate set (every unused, equally labelled pair with
  // positive gain) only grows by the pairs the push touched. It occupies
  // [parent_end, end) while the children run and is dropped on return.
  void ConnectedExtend(size_t parent_begin, size_t parent_end, uint32_t u,
                       uint32_t v) {
    if (BudgetExhausted()) {
      candidates_.resize(parent_end);
      return;
    }
    RecordBest();
    // Trivial upper bound: every additional common edge consumes a distinct
    // edge of each graph.
    if (min_edges_ <= best.common_edges) {
      candidates_.resize(parent_end);
      return;
    }
    for (size_t k = parent_begin; k < parent_end; ++k) {
      const Candidate c = candidates_[k];
      if (c.u == u || c.v == v) continue;
      candidates_.push_back({c.u, c.v, gain_[size_t{c.u} * nb_ + c.v]});
    }
    const size_t end = candidates_.size();
    std::sort(candidates_.begin() + static_cast<std::ptrdiff_t>(parent_end),
              candidates_.end(), SearchOrder);
    for (size_t k = parent_end; k < end; ++k) {
      const Candidate c = candidates_[k];
      Push<true>(c.u, c.v, c.gain);
      ConnectedExtend(parent_end, end, c.u, c.v);
      Pop(c.gain);
      if (!exact) break;
    }
    candidates_.resize(parent_end);
  }

  void UnconnectedExtend(size_t index) {
    if (BudgetExhausted()) return;
    RecordBest();
    if (index == na_) return;

    // Upper bound: remaining a-edges touching undecided vertices.
    if (current_edges_ + remaining_[index] <= best.common_edges) return;

    const uint32_t u = order_[index];
    const Label lu = a_.labels[u];
    const uint32_t* row = gain_.data() + size_t{u} * nb_;
    for (uint32_t v = 0; v < nb_; ++v) {
      if (b_used_[v] || b_.labels[v] != lu) continue;
      const uint32_t gain = row[v];
      Push<false>(u, v, gain);
      UnconnectedExtend(index + 1);
      Pop(gain);
      if (!exact) return;
    }
    // Skip u entirely.
    UnconnectedExtend(index + 1);
  }

  const FlatGraph flat_a_;
  const FlatGraph flat_b_;
  const FlatGraphView a_;
  const FlatGraphView b_;
  const size_t na_;
  const size_t nb_;
  const uint64_t node_budget_;
  const bool match_edge_labels_;
  const size_t min_edges_;
  std::vector<uint32_t> gain_;  // na x nb: common edges gained per pair
  std::vector<uint8_t> a_used_;
  std::vector<uint8_t> b_used_;
  std::vector<std::pair<VertexId, VertexId>> mapping_;  // in push order
  size_t current_edges_ = 0;
  std::vector<Candidate> candidates_;  // per-depth lists, stacked
  std::vector<uint32_t> order_;        // unconnected: a-vertex decision order
  std::vector<size_t> remaining_;      // unconnected: bound by depth
};

}  // namespace

McsResult MaxCommonSubgraph(const Graph& a, const Graph& b,
                            McsOptions options) {
  McsResult result;
  if (a.NumVertices() != 0 && b.NumVertices() != 0) {
    FlatMcsSearch search(a, b, options);
    if (options.connected) {
      search.RunConnected();
    } else {
      search.RunUnconnected();
    }
    result = std::move(search.best);
    result.exact = search.exact;
    result.nodes = search.nodes;
  }
  RecordSearch(result.nodes, !result.exact);
  return result;
}

double McsSimilarity(const Graph& a, const Graph& b, McsOptions options,
                     bool* exact) {
  if (exact != nullptr) *exact = true;
  size_t min_edges = std::min(a.NumEdges(), b.NumEdges());
  if (min_edges == 0) return 0.0;
  McsResult result = MaxCommonSubgraph(a, b, options);
  if (exact != nullptr) *exact = result.exact;
  return static_cast<double>(result.common_edges) /
         static_cast<double>(min_edges);
}

}  // namespace catapult
