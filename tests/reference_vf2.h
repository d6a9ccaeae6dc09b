#ifndef CATAPULT_TESTS_REFERENCE_VF2_H_
#define CATAPULT_TESTS_REFERENCE_VF2_H_

// Reference subgraph-isomorphism search: the nested-vector VF2 that ran on
// `Graph` before the flat kernel (src/iso/flat_vf2.h) became the library's
// only one, kept verbatim as an independent differential oracle. The flat
// kernel must match it decision for decision — same root, same BFS
// matching order, same candidate order, same node accounting and budget
// truncation, same vf2.* counter batches — so tests compare verdicts,
// embedding sequences and node counts against it. Header-only: the unit
// tests and fuzz/fuzz_flat_graph.cc include it; the library never does.

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/iso/vf2.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace catapult::reference {

// VF2-style backtracking subgraph isomorphism.
//
// The matching order is a BFS order of the pattern rooted at its most
// constrained vertex (rarest label, then highest degree), so every vertex
// after the first is matched adjacent to already-matched vertices; candidate
// target vertices are filtered by label, degree, and adjacency consistency.
class SubgraphIsomorphism {
 public:
  // `pattern` must be connected and non-empty.
  SubgraphIsomorphism(const Graph& pattern, const Graph& target,
                      IsoOptions options = {});

  // True if at least one embedding exists.
  bool Exists();

  // Number of embeddings, stopping early at `cap` (0 = no cap). Note that
  // automorphic images count separately.
  size_t Count(size_t cap);

  // Invokes `visitor` for each embedding until it returns false or the
  // search space is exhausted. Returns the number of embeddings visited.
  size_t Enumerate(const std::function<bool(const Embedding&)>& visitor);

 private:
  bool Backtrack(size_t depth,
                 const std::function<bool(const Embedding&)>& visitor,
                 size_t& found);

  // True when the last search stopped because it hit the node budget.
  bool BudgetExhausted() const {
    return options_.node_budget != 0 && nodes_ >= options_.node_budget;
  }

  const Graph& pattern_;
  const Graph& target_;
  IsoOptions options_;
  std::vector<VertexId> order_;  // pattern vertices in matching order
  std::vector<int> parent_;      // BFS anchor vertex id, indexed by vertex
  std::vector<int> position_;    // index in order_, indexed by vertex
  Embedding mapping_;            // pattern vertex -> target vertex
  std::vector<bool> target_used_;
  uint64_t nodes_ = 0;
};

namespace detail {

// One bookkeeping batch per search (not per node): the per-node cost of
// instrumentation inside Backtrack would dwarf the work it measures.
inline void RecordSearch(uint64_t nodes, bool budget_exhausted) {
  obs::Count(obs::Counter::kVf2Calls);
  obs::Count(obs::Counter::kVf2Nodes, nodes);
  obs::Observe(obs::Hist::kVf2NodesPerCall, nodes);
  if (budget_exhausted) obs::Count(obs::Counter::kVf2BudgetExhausted);
}

// Chooses the root of the matching order: rarest label in the target, ties
// broken by highest pattern degree.
inline VertexId PickRoot(const Graph& pattern, const Graph& target) {
  std::unordered_map<Label, size_t> target_label_count;
  for (VertexId v = 0; v < target.NumVertices(); ++v) {
    ++target_label_count[target.VertexLabel(v)];
  }
  auto Rarity = [&](VertexId v) {
    auto it = target_label_count.find(pattern.VertexLabel(v));
    return it == target_label_count.end() ? size_t{0} : it->second;
  };
  VertexId best = 0;
  for (VertexId v = 1; v < pattern.NumVertices(); ++v) {
    size_t rv = Rarity(v);
    size_t rb = Rarity(best);
    if (rv < rb || (rv == rb && pattern.Degree(v) > pattern.Degree(best))) {
      best = v;
    }
  }
  return best;
}

}  // namespace detail

inline SubgraphIsomorphism::SubgraphIsomorphism(const Graph& pattern,
                                                const Graph& target,
                                                IsoOptions options)
    : pattern_(pattern), target_(target), options_(options) {
  CATAPULT_CHECK(pattern.NumVertices() > 0);
  if (options_.budget_exhausted != nullptr) {
    *options_.budget_exhausted = false;
  }
  // BFS matching order from the root. The pattern is connected by contract,
  // so every non-root vertex is discovered from an earlier vertex, which
  // becomes its anchor: its match constrains the candidate set to the
  // anchor's target neighbourhood.
  order_.reserve(pattern_.NumVertices());
  parent_.assign(pattern_.NumVertices(), -1);   // anchor vertex id, by vertex
  position_.assign(pattern_.NumVertices(), -1);  // index in order_, by vertex
  std::deque<VertexId> frontier = {detail::PickRoot(pattern_, target_)};
  std::vector<bool> discovered(pattern_.NumVertices(), false);
  discovered[frontier.front()] = true;
  while (!frontier.empty()) {
    VertexId v = frontier.front();
    frontier.pop_front();
    position_[v] = static_cast<int>(order_.size());
    order_.push_back(v);
    for (const Graph::Neighbor& n : pattern_.Neighbors(v)) {
      if (!discovered[n.to]) {
        discovered[n.to] = true;
        parent_[n.to] = static_cast<int>(v);
        frontier.push_back(n.to);
      }
    }
  }
  CATAPULT_CHECK_MSG(order_.size() == pattern_.NumVertices(),
                     "pattern must be connected");
  mapping_.assign(pattern_.NumVertices(), 0);
  target_used_.assign(target_.NumVertices(), false);
}

inline bool SubgraphIsomorphism::Backtrack(
    size_t depth, const std::function<bool(const Embedding&)>& visitor,
    size_t& found) {
  if (options_.node_budget != 0 && nodes_ >= options_.node_budget) {
    if (options_.budget_exhausted != nullptr) {
      *options_.budget_exhausted = true;
    }
    return false;  // Abort the whole search.
  }
  ++nodes_;

  if (depth == order_.size()) {
    ++found;
    return visitor(mapping_);
  }

  VertexId pv = order_[depth];
  Label pv_label = pattern_.VertexLabel(pv);
  size_t pv_degree = pattern_.Degree(pv);

  // Tries to extend the partial embedding with pv -> tv. Returns false only
  // when the entire search should stop.
  auto TryCandidate = [&](VertexId tv) -> bool {
    if (target_used_[tv]) return true;
    if (target_.VertexLabel(tv) != pv_label) return true;
    if (target_.Degree(tv) < pv_degree) return true;
    // Every pattern edge from pv to an already-matched vertex must be
    // realised in the target.
    for (const Graph::Neighbor& n : pattern_.Neighbors(pv)) {
      if (position_[n.to] >= static_cast<int>(depth)) continue;  // unmatched
      VertexId mapped = mapping_[n.to];
      if (!target_.HasEdge(tv, mapped)) return true;
      if (options_.match_edge_labels &&
          target_.EdgeLabel(tv, mapped) != pattern_.EdgeLabel(pv, n.to)) {
        return true;
      }
    }
    if (options_.induced) {
      // Matched pattern vertices non-adjacent to pv must stay non-adjacent.
      for (size_t d = 0; d < depth; ++d) {
        VertexId other = order_[d];
        if (!pattern_.HasEdge(pv, other) &&
            target_.HasEdge(tv, mapping_[other])) {
          return true;
        }
      }
    }
    mapping_[pv] = tv;
    target_used_[tv] = true;
    bool keep_going = Backtrack(depth + 1, visitor, found);
    target_used_[tv] = false;
    return keep_going;
  };

  if (depth == 0) {
    for (VertexId tv = 0; tv < target_.NumVertices(); ++tv) {
      if (!TryCandidate(tv)) return false;
    }
  } else {
    VertexId anchor = static_cast<VertexId>(parent_[pv]);
    for (const Graph::Neighbor& n : target_.Neighbors(mapping_[anchor])) {
      if (!TryCandidate(n.to)) return false;
    }
  }
  return true;
}

inline bool SubgraphIsomorphism::Exists() {
  if (pattern_.NumVertices() > target_.NumVertices() ||
      pattern_.NumEdges() > target_.NumEdges()) {
    return false;
  }
  size_t found = 0;
  nodes_ = 0;
  Backtrack(0, [](const Embedding&) { return false; }, found);
  detail::RecordSearch(nodes_, BudgetExhausted());
  return found > 0;
}

inline size_t SubgraphIsomorphism::Count(size_t cap) {
  if (pattern_.NumVertices() > target_.NumVertices() ||
      pattern_.NumEdges() > target_.NumEdges()) {
    return 0;
  }
  size_t found = 0;
  nodes_ = 0;
  Backtrack(0,
            [&](const Embedding&) { return cap == 0 || found < cap; },
            found);
  detail::RecordSearch(nodes_, BudgetExhausted());
  return found;
}

inline size_t SubgraphIsomorphism::Enumerate(
    const std::function<bool(const Embedding&)>& visitor) {
  if (pattern_.NumVertices() > target_.NumVertices() ||
      pattern_.NumEdges() > target_.NumEdges()) {
    return 0;
  }
  size_t found = 0;
  nodes_ = 0;
  Backtrack(0, visitor, found);
  detail::RecordSearch(nodes_, BudgetExhausted());
  return found;
}

// True if `pattern` has an embedding in `target`.
inline bool ContainsSubgraph(const Graph& pattern, const Graph& target,
                             IsoOptions options = {}) {
  return SubgraphIsomorphism(pattern, target, options).Exists();
}

}  // namespace catapult::reference

#endif  // CATAPULT_TESTS_REFERENCE_VF2_H_
