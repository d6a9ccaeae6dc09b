#include "src/cluster/feature_vectors.h"

#include "src/iso/flat_vf2.h"
#include "src/util/thread_pool.h"

namespace catapult {

std::vector<DynamicBitset> BuildFeatureVectors(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const std::vector<FrequentSubtree>& subtrees, const RunContext& ctx) {
  // One slot per graph, filled independently (any thread, any order) and
  // returned in graph_ids order: output is identical at every thread count.
  // Each subtree and each graph is flattened once, not once per test.
  std::vector<FlatGraph> flat_subtrees;
  flat_subtrees.reserve(subtrees.size());
  for (const FrequentSubtree& fs : subtrees) {
    flat_subtrees.push_back(FlatGraph::Build(fs.tree));
  }
  std::vector<DynamicBitset> features(graph_ids.size());
  ParallelFor(ctx, graph_ids.size(), 1, [&](size_t i) {
    FlatGraph g = FlatGraph::Build(db.graph(graph_ids[i]));
    LabelDomains domains = LabelDomains::Build(g.View());
    DynamicBitset vec(subtrees.size());
    for (size_t j = 0; j < subtrees.size(); ++j) {
      if (FlatContainsSubgraph(flat_subtrees[j].View(), g.View(), &domains)) {
        vec.Set(j);
      }
    }
    features[i] = std::move(vec);
  });
  return features;
}

std::vector<DynamicBitset> BuildFeatureVectors(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const std::vector<FrequentSubtree>& subtrees) {
  return BuildFeatureVectors(db, graph_ids, subtrees, RunContext::NoLimit());
}

}  // namespace catapult
