#ifndef CATAPULT_ISO_FLAT_VF2_H_
#define CATAPULT_ISO_FLAT_VF2_H_

// The library's subgraph-isomorphism kernel (DESIGN.md §15): VF2-style
// backtracking over FlatGraphView inputs. Every containment, embedding and
// isomorphism test runs this search — the selection hot path calls it
// directly against prebuilt CSG summary views, and the Graph-level entry
// points in src/iso/vf2.h flatten their inputs per call and land here.
//
// The matching order is a BFS order of the pattern rooted at its most
// constrained vertex (rarest label in the target, ties to highest pattern
// degree), so every vertex after the first is matched inside the target
// neighbourhood of an already-matched anchor. Root candidates iterate the
// root label's domain bitset in ascending vertex id; anchored candidates
// scan the anchor's insertion-order adjacency run with the inline neighbour
// label as the first filter; edge-consistency checks binary-search the
// sorted permutation. Each Backtrack call costs one node against the budget
// and the vf2.* counters record one batch per search. tests/reference_vf2.h
// keeps the nested-vector search this kernel replaced, as the oracle it is
// checked against decision for decision.

#include <functional>
#include <vector>

#include "src/graph/flat_graph.h"
#include "src/iso/vf2.h"

namespace catapult {

// True if `pattern` (connected, non-empty) has an embedding in `target`.
// `target_domains` (optional) supplies precomputed per-label root candidate
// bitsets and label-frequency counts for `target`; when null they are
// derived on the fly from the view (one O(V) pass).
bool FlatContainsSubgraph(const FlatGraphView& pattern,
                          const FlatGraphView& target,
                          const LabelDomains* target_domains,
                          IsoOptions options = {});

// Invokes `visitor` for each embedding of `pattern` (connected, non-empty)
// in `target`, in search order, until it returns false or the search space
// (or node budget) is exhausted. Returns the number of embeddings visited.
// Automorphic images count separately. `target_domains` as above.
size_t FlatEnumerateEmbeddings(
    const FlatGraphView& pattern, const FlatGraphView& target,
    const LabelDomains* target_domains,
    const std::function<bool(const Embedding&)>& visitor,
    IsoOptions options = {});

// Containment targets flattened once, for loops that test many patterns
// against the same graphs (support counting): one arena plus each graph's
// label domains. Target i is graph ids[i] of the database it was built from.
struct FlatTargets {
  FlatGraphDatabase flat;
  std::vector<LabelDomains> domains;

  static FlatTargets Build(const GraphDatabase& db,
                           const std::vector<GraphId>& ids);

  size_t size() const { return domains.size(); }

  // True if `pattern` (connected, non-empty) has an embedding in target i.
  bool Contains(const FlatGraphView& pattern, size_t i) const {
    return FlatContainsSubgraph(pattern, flat.view(i), &domains[i]);
  }
};

}  // namespace catapult

#endif  // CATAPULT_ISO_FLAT_VF2_H_
