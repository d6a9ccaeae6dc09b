#include "src/cluster/pipeline.h"

#include <algorithm>
#include <optional>

#include "src/cluster/agglomerative.h"
#include "src/cluster/feature_vectors.h"
#include "src/cluster/kmeans.h"
#include "src/obs/clock.h"
#include "src/obs/trace.h"
#include "src/util/mem_budget.h"

namespace catapult {

ClusteringResult SmallGraphClustering(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SmallGraphClusteringOptions& options, Rng& rng) {
  return SmallGraphClustering(db, graph_ids, options, rng,
                              RunContext::NoLimit());
}

ClusteringResult CoarseClusteringStage(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SmallGraphClusteringOptions& options, Rng& rng,
    const RunContext& ctx) {
  ClusteringResult result;
  if (graph_ids.empty()) return result;

  std::vector<std::vector<GraphId>> coarse_clusters;

  if (options.mode == ClusteringMode::kFineOnly) {
    // Single seed cluster containing everything; fine clustering does all
    // of the work.
    coarse_clusters.push_back(graph_ids);
  } else {
    // --- Coarse clustering (Algorithm 2) ---
    // Mining gets at most half of the remaining time so it cannot starve
    // the clustering stages proper.
    WallTimer mining_timer;
    std::optional<obs::Span> stage_span;
    stage_span.emplace(ctx.tracer(), "clustering.mining");
    std::vector<FrequentSubtree> all_subtrees = MineFrequentSubtrees(
        db, graph_ids, options.miner, ctx.Slice(0.5),
        &result.mining_complete);
    // Refine the feature set by facility-location greedy selection.
    std::vector<size_t> selected =
        SelectRepresentativeSubtrees(all_subtrees, options.facility);
    for (size_t idx : selected) {
      result.features.push_back(all_subtrees[idx]);
    }
    stage_span.reset();
    result.mining_seconds = mining_timer.ElapsedSeconds();

    WallTimer coarse_timer;
    stage_span.emplace(ctx.tracer(), "clustering.coarse");
    // The feature matrix (|graph_ids| x |features| bitsets) is the coarse
    // stage's dominant allocation; charge it before materialising. A refused
    // charge sheds the stage — one cluster, best-effort — instead of
    // allocating past the hard limit.
    ScopedMemoryCharge feature_charge(
        ctx.memory(),
        graph_ids.size() * ApproxBitsetBytes(result.features.size()),
        "mem.features");
    if (ctx.StopRequested("cluster.coarse") || !feature_charge.ok()) {
      // Expired (or out of memory) before the coarse stage: everything lands
      // in one cluster (fine clustering, if it still gets time, can split it
      // further).
      result.coarse_complete = false;
      coarse_clusters.push_back(graph_ids);
    } else if (result.features.empty()) {
      // No frequent subtrees (tiny/degenerate input): one cluster.
      coarse_clusters.push_back(graph_ids);
    } else {
      std::vector<DynamicBitset> features =
          BuildFeatureVectors(db, graph_ids, result.features, ctx);
      size_t target_k =
          options.explicit_k != 0
              ? options.explicit_k
              : std::max<size_t>(1,
                                 graph_ids.size() / options.max_cluster_size);
      std::vector<size_t> assignment;
      if (options.coarse_algorithm == CoarseAlgorithm::kAgglomerative) {
        AgglomerativeOptions agg;
        agg.target_clusters = target_k;
        assignment = AgglomerativeCluster(features, agg).assignment;
      } else {
        KMeansOptions kmeans_options;
        kmeans_options.k = target_k;
        kmeans_options.max_iterations = options.kmeans_max_iterations;
        assignment =
            KMeansCluster(features, kmeans_options, rng, ctx).assignment;
      }
      size_t k = 0;
      for (size_t a : assignment) k = std::max(k, a + 1);
      coarse_clusters.assign(k, {});
      for (size_t i = 0; i < graph_ids.size(); ++i) {
        coarse_clusters[assignment[i]].push_back(graph_ids[i]);
      }
      coarse_clusters.erase(
          std::remove_if(coarse_clusters.begin(), coarse_clusters.end(),
                         [](const auto& c) { return c.empty(); }),
          coarse_clusters.end());
    }
    stage_span.reset();
    result.coarse_seconds = coarse_timer.ElapsedSeconds();
  }

  result.clusters = std::move(coarse_clusters);
  return result;
}

void FineClusteringStage(const GraphDatabase& db,
                         const SmallGraphClusteringOptions& options,
                         ClusteringResult* result, Rng& rng,
                         const RunContext& ctx) {
  // --- Fine clustering (Algorithm 3) ---
  WallTimer fine_timer;
  obs::Span fine_span(ctx.tracer(), "clustering.fine");
  if (ctx.memory().SoftExceeded()) {
    // Soft-limit pressure: fine splitting is optional refinement (its MCS
    // working sets grow quadratically in cluster size), so shed it and keep
    // the coarse partition — the degradation ladder's coarse-only rung.
    // Shedding happens before any stream is split, so the parent stream's
    // position stays a function of the pressure decision alone.
    result->fine_complete = false;
    result->fine_seconds = fine_timer.ElapsedSeconds();
    return;
  }
  FineClusteringOptions fine;
  fine.max_cluster_size = options.max_cluster_size;
  fine.mcs = options.fine_mcs;
  result->clusters =
      FineClusterPerCluster(db, std::move(result->clusters), fine, rng, ctx,
                            &result->fine_complete, &result->mcs_truncated);
  result->fine_seconds = fine_timer.ElapsedSeconds();
}

ClusteringResult SmallGraphClustering(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SmallGraphClusteringOptions& options, Rng& rng,
    const RunContext& ctx) {
  ClusteringResult result =
      CoarseClusteringStage(db, graph_ids, options, rng, ctx);
  if (graph_ids.empty() || options.mode == ClusteringMode::kCoarseOnly) {
    return result;
  }
  FineClusteringStage(db, options, &result, rng, ctx);
  return result;
}

ClusteringResult SmallGraphClustering(
    const GraphDatabase& db, const SmallGraphClusteringOptions& options,
    Rng& rng) {
  return SmallGraphClustering(db, options, rng, RunContext::NoLimit());
}

ClusteringResult SmallGraphClustering(
    const GraphDatabase& db, const SmallGraphClusteringOptions& options,
    Rng& rng, const RunContext& ctx) {
  std::vector<GraphId> all(db.size());
  for (GraphId i = 0; i < db.size(); ++i) all[i] = i;
  return SmallGraphClustering(db, all, options, rng, ctx);
}

bool ValidateClusterAssignment(
    const std::vector<std::vector<GraphId>>& clusters, size_t universe,
    bool* is_partition) {
  std::vector<bool> seen(universe, false);
  size_t assigned = 0;
  for (const std::vector<GraphId>& cluster : clusters) {
    if (cluster.empty()) return false;
    for (GraphId id : cluster) {
      if (id >= universe || seen[id]) return false;
      seen[id] = true;
      ++assigned;
    }
  }
  if (is_partition != nullptr) *is_partition = assigned == universe;
  return true;
}

}  // namespace catapult
