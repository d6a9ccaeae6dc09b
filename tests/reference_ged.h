#ifndef CATAPULT_TESTS_REFERENCE_GED_H_
#define CATAPULT_TESTS_REFERENCE_GED_H_

// Reference graph edit distances, two differential oracles for the flat
// kernel of src/iso/ged.cc:
//  * GraphEditDistance: the branch-and-bound search that ran on `Graph`
//    before the flat kernel, kept verbatim (plus the node count in its
//    result). Without a cutoff the flat kernel must match it call for call:
//    same assignment order, same candidate order, same bound values, same
//    node accounting and budget truncation, hence the same
//    (distance, exact, nodes).
//  * BruteForceGed: the distance by trying every partial injective vertex
//    map, sharing no code or reasoning with either search.
// Header-only: the unit tests and fuzz/fuzz_flat_graph.cc include it; the
// library never does.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/graph/graph.h"
#include "src/iso/ged.h"

namespace catapult::reference {

namespace detail {

// Deleted vertex.
inline constexpr VertexId kEpsilon = static_cast<VertexId>(-1);

// Multiset-intersection size of two sorted label vectors.
inline size_t SortedIntersectionSize(const std::vector<Label>& a,
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

struct GedSearch {
  const Graph& a;
  const Graph& b;
  const GedOptions& options;
  std::vector<VertexId> order;       // a-vertices in assignment order
  std::vector<VertexId> assignment;  // a-vertex -> b-vertex or kEpsilon
  std::vector<bool> b_used;
  double best = 0.0;
  uint64_t nodes = 0;
  bool exact = true;

  GedSearch(const Graph& a_in, const Graph& b_in, const GedOptions& opt)
      : a(a_in), b(b_in), options(opt) {
    order.resize(a.NumVertices());
    for (VertexId v = 0; v < a.NumVertices(); ++v) order[v] = v;
    std::stable_sort(order.begin(), order.end(), [&](VertexId l, VertexId r) {
      return a.Degree(l) > a.Degree(r);
    });
    assignment.assign(a.NumVertices(), kEpsilon);
    b_used.assign(b.NumVertices(), false);
  }

  // Incremental cost of assigning order[depth] -> bv (possibly kEpsilon),
  // given assignments for order[0..depth).
  double StepCost(size_t depth, VertexId bv) const {
    VertexId u = order[depth];
    double cost = 0.0;
    if (bv == kEpsilon) {
      cost += 1.0;  // vertex deletion
    } else if (a.VertexLabel(u) != b.VertexLabel(bv)) {
      cost += 1.0;  // vertex relabel
    }
    for (size_t d = 0; d < depth; ++d) {
      VertexId u2 = order[d];
      VertexId bv2 = assignment[u2];
      bool a_edge = a.HasEdge(u, u2);
      bool b_edge =
          (bv != kEpsilon && bv2 != kEpsilon) ? b.HasEdge(bv, bv2) : false;
      if (a_edge && b_edge) {
        if (a.EdgeLabel(u, u2) != b.EdgeLabel(bv, bv2)) cost += 1.0;
      } else if (a_edge != b_edge) {
        cost += 1.0;  // edge deletion or insertion
      }
    }
    return cost;
  }

  // Cost contributed at a leaf: unmatched b-vertices are inserted, along
  // with every b-edge touching at least one of them.
  double LeafCost() const {
    double cost = 0.0;
    for (VertexId v = 0; v < b.NumVertices(); ++v) {
      if (!b_used[v]) cost += 1.0;
    }
    for (const Edge& e : b.EdgeList()) {
      if (!b_used[e.u] || !b_used[e.v]) cost += 1.0;
    }
    return cost;
  }

  // Admissible lower bound on the remaining cost at `depth`: label-multiset
  // mismatch of undecided a-vertices vs unused b-vertices.
  double RemainingLowerBound(size_t depth) const {
    std::vector<Label> ra;
    ra.reserve(order.size() - depth);
    for (size_t d = depth; d < order.size(); ++d) {
      ra.push_back(a.VertexLabel(order[d]));
    }
    std::vector<Label> rb;
    for (VertexId v = 0; v < b.NumVertices(); ++v) {
      if (!b_used[v]) rb.push_back(b.VertexLabel(v));
    }
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    size_t common = SortedIntersectionSize(ra, rb);
    return static_cast<double>(std::max(ra.size(), rb.size()) - common);
  }

  void Dfs(size_t depth, double cost_so_far) {
    if (options.node_budget != 0 && nodes >= options.node_budget) {
      exact = false;
      return;
    }
    ++nodes;
    if (cost_so_far + RemainingLowerBound(depth) >= best) return;
    if (depth == order.size()) {
      double total = cost_so_far + LeafCost();
      if (total < best) best = total;
      return;
    }
    VertexId u = order[depth];
    // Prefer same-label b-vertices first (cheap moves explored early).
    std::vector<VertexId> candidates;
    for (VertexId v = 0; v < b.NumVertices(); ++v) {
      if (!b_used[v]) candidates.push_back(v);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](VertexId l, VertexId r) {
                       bool le = b.VertexLabel(l) == a.VertexLabel(u);
                       bool re = b.VertexLabel(r) == a.VertexLabel(u);
                       return le > re;
                     });
    for (VertexId v : candidates) {
      double step = StepCost(depth, v);
      assignment[u] = v;
      b_used[v] = true;
      Dfs(depth + 1, cost_so_far + step);
      b_used[v] = false;
      assignment[u] = kEpsilon;
      if (!exact) return;
    }
    // Delete u.
    double step = StepCost(depth, kEpsilon);
    assignment[u] = kEpsilon;
    Dfs(depth + 1, cost_so_far + step);
  }

  // Greedy upper bound to seed branch-and-bound.
  double GreedyUpperBound() {
    double cost = 0.0;
    for (size_t depth = 0; depth < order.size(); ++depth) {
      VertexId u = order[depth];
      double best_step = StepCost(depth, kEpsilon);
      VertexId best_v = kEpsilon;
      for (VertexId v = 0; v < b.NumVertices(); ++v) {
        if (b_used[v]) continue;
        double step = StepCost(depth, v);
        if (step < best_step) {
          best_step = step;
          best_v = v;
        }
      }
      assignment[u] = best_v;
      if (best_v != kEpsilon) b_used[best_v] = true;
      cost += best_step;
    }
    cost += LeafCost();
    // Reset state for the exact search.
    for (size_t depth = 0; depth < order.size(); ++depth) {
      VertexId u = order[depth];
      if (assignment[u] != kEpsilon) b_used[assignment[u]] = false;
      assignment[u] = kEpsilon;
    }
    return cost;
  }
};

}  // namespace detail

inline GedResult GraphEditDistance(const Graph& a, const Graph& b,
                                   GedOptions options = {}) {
  detail::GedSearch search(a, b, options);
  // `best` starts at the greedy bound + 1 ulp of slack so the exact search
  // can rediscover an equal-cost solution.
  search.best = search.GreedyUpperBound() + 1e-9;
  double greedy = search.best;
  search.Dfs(0, 0.0);
  GedResult result;
  result.distance = std::min(search.best, greedy);
  // Strip the slack epsilon if nothing better was found.
  result.distance = std::round(result.distance);
  result.exact = search.exact;
  result.nodes = search.nodes;
  return result;
}

// Uniform-cost edit cost of the partial injective map `f` (a-vertex ->
// b-vertex, or -1 for deletion), counted from the two edge sets directly:
// deleted and relabelled a-vertices, inserted b-vertices, a-edges that do
// not land on an equally labelled b-edge (deleted or relabelled), and
// b-edges that no a-edge lands on (inserted).
inline int EditCost(const Graph& a, const Graph& b, const std::vector<int>& f) {
  int cost = 0;
  std::vector<int> preimage(b.NumVertices(), -1);
  for (VertexId u = 0; u < a.NumVertices(); ++u) {
    if (f[u] < 0) {
      ++cost;
      continue;
    }
    preimage[f[u]] = static_cast<int>(u);
    if (a.VertexLabel(u) != b.VertexLabel(static_cast<VertexId>(f[u]))) {
      ++cost;
    }
  }
  for (int p : preimage) cost += p < 0 ? 1 : 0;
  for (const Edge& e : a.EdgeList()) {
    const bool kept =
        f[e.u] >= 0 && f[e.v] >= 0 &&
        b.HasEdge(static_cast<VertexId>(f[e.u]), static_cast<VertexId>(f[e.v]));
    if (!kept) {
      ++cost;  // deleted
    } else if (a.EdgeLabel(e.u, e.v) !=
               b.EdgeLabel(static_cast<VertexId>(f[e.u]),
                           static_cast<VertexId>(f[e.v]))) {
      ++cost;  // relabelled
    }
  }
  for (const Edge& e : b.EdgeList()) {
    const int pu = preimage[e.u];
    const int pv = preimage[e.v];
    if (pu < 0 || pv < 0 ||
        !a.HasEdge(static_cast<VertexId>(pu), static_cast<VertexId>(pv))) {
      ++cost;  // inserted
    }
  }
  return cost;
}

// The graph edit distance by exhaustion: the minimum EditCost over every
// partial injective map of a into b. Independent of the branch-and-bound
// searches (no assignment order, no bounds); practical up to ~6 vertices
// per side (13,327 maps for 6 x 6).
inline int BruteForceGed(const Graph& a, const Graph& b) {
  std::vector<int> f(a.NumVertices(), -1);
  std::vector<bool> used(b.NumVertices(), false);
  int best = std::numeric_limits<int>::max();
  auto extend = [&](auto& self, size_t u) -> void {
    if (u == a.NumVertices()) {
      best = std::min(best, EditCost(a, b, f));
      return;
    }
    f[u] = -1;
    self(self, u + 1);
    for (size_t v = 0; v < b.NumVertices(); ++v) {
      if (used[v]) continue;
      used[v] = true;
      f[u] = static_cast<int>(v);
      self(self, u + 1);
      f[u] = -1;
      used[v] = false;
    }
  };
  extend(extend, 0);
  return best;
}

}  // namespace catapult::reference

#endif  // CATAPULT_TESTS_REFERENCE_GED_H_
