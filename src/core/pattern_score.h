#ifndef CATAPULT_CORE_PATTERN_SCORE_H_
#define CATAPULT_CORE_PATTERN_SCORE_H_

#include <cstdint>
#include <vector>

#include "src/iso/ged.h"

namespace catapult {

// Cognitive load cog(p) = |Ep| * rho_p, where rho_p is the graph density
// (Section 3.2; the measure validated as F1 in Exp 10).
double CognitiveLoad(const Graph& pattern);

// Alternative cognitive-load measures evaluated in Exp 10.
double CognitiveLoadDegreeSum(const Graph& pattern);  // F2 = sum(deg) = 2|E|
double CognitiveLoadAvgDegree(const Graph& pattern);  // F3 = 2|E| / |V|

// Diversity div(p, P) = min_{q in P} GED(p, q) (Section 3.2): the fold
// FoldDiversity(p, P, 0, +inf), so the Definition 5.1 lower bound prunes
// pairs and each exact GED stops at the running minimum. Returns
// `empty_set_value` when P is empty (the first selection has no diversity
// signal; 1.0 keeps the score multiplicative and neutral).
double PatternSetDiversity(const Graph& pattern,
                           const std::vector<Graph>& selected,
                           const GedOptions& ged_options = {},
                           double empty_set_value = 1.0);

// Incremental diversity fold (DESIGN.md §15): folds selected[from..), in
// index order, into a running minimum. A pair whose Definition 5.1 lower
// bound cannot beat the running minimum is skipped; every other pair runs
// GraphEditDistance with the running minimum as its cutoff, so the search
// stops as soon as it cannot lower the minimum. The GED of each pair thus
// depends only on the pair, the options and the minimum over the patterns
// before it, so a fold carried to `from` and resumed equals the fold from 0
// bit-for-bit, even when a search is truncated — which is what lets the
// selector carry a per-candidate running minimum across greedy iterations
// and fold only the patterns selected since the candidate was last scored.
// When every search is exact, the result is min_q GED(p, q) over the folded
// patterns and `running_min`. `approximate` switches the distance oracle to
// BipartiteGed (the PatternSetDiversityApprox pairing). When
// `ged_truncated` is non-null it is incremented once per GED search cut
// short by its node budget (whose value is then only an upper bound).
double FoldDiversity(const Graph& pattern, const std::vector<Graph>& selected,
                     size_t from, double running_min,
                     const GedOptions& ged_options, bool approximate,
                     uint64_t* ged_truncated = nullptr);

// Polynomial-time variant using the assignment-based GED upper bound of
// [Riesen & Neuhaus, GbRPR'07] (the paper's reference [32]) instead of the
// exact branch-and-bound: FoldDiversity(p, P, 0, +inf) with BipartiteGed as
// the distance, still pruned by the Definition 5.1 lower bound. Use when
// panels are large enough that exact GED dominates selection time.
double PatternSetDiversityApprox(const Graph& pattern,
                                 const std::vector<Graph>& selected,
                                 double empty_set_value = 1.0);

// Default backtracking budget for one coverage subgraph-isomorphism test.
// Coverage tests must always be finite: an unlimited VF2 call on an
// adversarial CSG could stall selection forever, and an unlimited call can
// never report the truncation it silently avoids. Passing 0 to
// CoveredCsgsFlat (src/core/score_table.h) selects this value rather than
// "unlimited".
inline constexpr uint64_t kDefaultCoverageIsoBudget = 2000000;

}  // namespace catapult

#endif  // CATAPULT_CORE_PATTERN_SCORE_H_
