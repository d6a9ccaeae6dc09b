#ifndef CATAPULT_ISO_GED_H_
#define CATAPULT_ISO_GED_H_

#include <cstdint>
#include <limits>

#include "src/graph/graph.h"

namespace catapult {

// Options for graph edit distance computation. All edit operations (vertex
// insertion/deletion/relabelling, edge insertion/deletion) cost 1, the
// uniform-cost model implied by the paper's use of GED as a structural
// diversity measure.
struct GedOptions {
  // Branch-and-bound node budget (0 = unlimited). When hit, the best upper
  // bound found so far is returned (still an admissible *upper* bound on the
  // true distance) and `exact` is reported false via GedResult.
  uint64_t node_budget = 500000;
};

// Result of a GED computation. `nodes` counts the branch-and-bound nodes
// expanded, a machine-independent measure of the work done.
struct GedResult {
  double distance = 0.0;
  bool exact = true;
  uint64_t nodes = 0;
};

// Lower bound on GED(a, b) per Definition 5.1 of the paper:
//   |V|-term = ||VA|-|VB|| + min(|VA|,|VB|) - |L(VA) ^ L(VB)|
//   |E|-term = ||EA|-|EB||
// where L(VA) ^ L(VB) is the multiset intersection of vertex labels (the
// exact number of vertex substitutions plus insertions/deletions needed,
// ignoring structure). Cheap: O(|V| log |V|).
double GedLowerBound(const Graph& a, const Graph& b);

// Exact graph edit distance via depth-first branch-and-bound over vertex
// assignments, seeded with a greedy upper bound and pruned with label-based
// lower bounds. Exponential in the worst case; intended for canned-pattern
// sized graphs (<= ~13 vertices), with anytime fallback under `node_budget`.
//
// `cutoff` is the distance the caller needs to beat (a running minimum): the
// search starts with min(greedy bound, cutoff) as its best cost, so it never
// explores a branch that cannot end below the cutoff. An exact search
// returns the distance d when d < cutoff, and otherwise some value >= cutoff
// (the greedy upper bound, hence also >= GedLowerBound). A truncated search
// returns an upper bound on d, as without a cutoff. The default (+inf)
// computes d itself.
//
// Each call adds one batch to the ged.calls / ged.nodes / ged.truncated
// counters and the ged.nodes_per_call histogram (src/obs/metrics.h).
GedResult GraphEditDistance(
    const Graph& a, const Graph& b, GedOptions options = {},
    double cutoff = std::numeric_limits<double>::infinity());

}  // namespace catapult

#endif  // CATAPULT_ISO_GED_H_
