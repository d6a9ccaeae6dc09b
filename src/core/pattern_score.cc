#include "src/core/pattern_score.h"

#include <algorithm>
#include <limits>

#include "src/iso/ged_bipartite.h"
#include "src/obs/metrics.h"

namespace catapult {

double CognitiveLoad(const Graph& pattern) {
  return static_cast<double>(pattern.NumEdges()) * pattern.Density();
}

double CognitiveLoadDegreeSum(const Graph& pattern) {
  return 2.0 * static_cast<double>(pattern.NumEdges());
}

double CognitiveLoadAvgDegree(const Graph& pattern) {
  if (pattern.NumVertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(pattern.NumEdges()) /
         static_cast<double>(pattern.NumVertices());
}

double PatternSetDiversity(const Graph& pattern,
                           const std::vector<Graph>& selected,
                           const GedOptions& ged_options,
                           double empty_set_value) {
  if (selected.empty()) return empty_set_value;
  return FoldDiversity(pattern, selected, 0,
                       std::numeric_limits<double>::infinity(), ged_options,
                       /*approximate=*/false);
}

double FoldDiversity(const Graph& pattern, const std::vector<Graph>& selected,
                     size_t from, double running_min,
                     const GedOptions& ged_options, bool approximate,
                     uint64_t* ged_truncated) {
  for (size_t i = from; i < selected.size(); ++i) {
    double lower = GedLowerBound(pattern, selected[i]);
    if (lower >= running_min) {
      obs::Count(obs::Counter::kSelectorDivPruned);
      continue;  // value >= lower >= running_min: cannot improve
    }
    obs::Count(obs::Counter::kSelectorDivFolds);
    if (approximate) {
      running_min = std::min(running_min, BipartiteGed(pattern, selected[i]));
      continue;
    }
    // Only a distance below running_min can change the fold, so the search
    // stops at it: an exact search at or above the cutoff returns a value
    // >= running_min, which leaves the minimum where it is.
    GedResult ged =
        GraphEditDistance(pattern, selected[i], ged_options, running_min);
    if (!ged.exact && ged_truncated != nullptr) ++*ged_truncated;
    running_min = std::min(running_min, ged.distance);
  }
  return running_min;
}

double PatternSetDiversityApprox(const Graph& pattern,
                                 const std::vector<Graph>& selected,
                                 double empty_set_value) {
  if (selected.empty()) return empty_set_value;
  return FoldDiversity(pattern, selected, 0,
                       std::numeric_limits<double>::infinity(), GedOptions{},
                       /*approximate=*/true);
}

}  // namespace catapult
