// Oracles for the exact GED kernel (src/iso/ged.h): the search it replaced
// and a brute force over every partial injective vertex map (both in
// tests/reference_ged.h), the cutoff contract, the diversity fold built on
// it, and its truncation telemetry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/catapult.h"
#include "src/core/pattern_score.h"
#include "src/data/molecule_generator.h"
#include "src/iso/ged.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "tests/reference_ged.h"

namespace catapult {
namespace {

// A seeded labelled graph on `n` vertices with about `density` of all
// vertex pairs joined, not necessarily connected. Vertex labels come from
// {0, 1, 2} and edge labels from {0, 1}, so relabelling, edge-label
// substitution and structural edits all occur.
Graph SeededGraph(Rng& rng, size_t n, double density) {
  Graph g;
  for (size_t v = 0; v < n; ++v) {
    g.AddVertex(static_cast<Label>(rng.UniformInt(3)));
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.UniformReal() < density) {
        g.AddEdge(u, v, static_cast<Label>(rng.UniformInt(2)));
      }
    }
  }
  return g;
}

GedOptions Budget(uint64_t nodes) {
  GedOptions options;
  options.node_budget = nodes;
  return options;
}

TEST(GedKernelTest, MatchesReferenceSearchIncludingTruncation) {
  Rng rng(1501);
  size_t truncated = 0;
  for (int trial = 0; trial < 160; ++trial) {
    SCOPED_TRACE(trial);
    Graph a = SeededGraph(rng, rng.UniformInt(10), 0.2 + 0.1 * (trial % 5));
    Graph b = SeededGraph(rng, rng.UniformInt(10), 0.2 + 0.1 * (trial % 4));
    std::vector<uint64_t> budgets = {1,    2,     3,
                                     7,    20,    100,
                                     1000, 50000, GedOptions{}.node_budget};
    if (std::max(a.NumVertices(), b.NumVertices()) <= 7) budgets.push_back(0);
    for (uint64_t budget : budgets) {
      SCOPED_TRACE(budget);
      GedResult ref = reference::GraphEditDistance(a, b, Budget(budget));
      obs::MetricsRegistry metrics;
      GedResult flat;
      {
        obs::ScopedMetricsScope scope(&metrics);
        flat = GraphEditDistance(a, b, Budget(budget));
      }
      EXPECT_EQ(flat.distance, ref.distance);
      EXPECT_EQ(flat.exact, ref.exact);
      EXPECT_EQ(flat.nodes, ref.nodes);
      truncated += ref.exact ? 0 : 1;
      obs::MetricsSnapshot snap = metrics.Snapshot();
      EXPECT_EQ(snap.counter(obs::Counter::kGedCalls), 1u);
      EXPECT_EQ(snap.counter(obs::Counter::kGedNodes), flat.nodes);
      EXPECT_EQ(snap.counter(obs::Counter::kGedTruncated),
                flat.exact ? 0u : 1u);
      EXPECT_EQ(snap.hist(obs::Hist::kGedNodesPerCall).sum, flat.nodes);
    }
  }
  // The small budgets really exercise the truncated paths.
  EXPECT_GT(truncated, 100u);
}

TEST(GedKernelTest, AgreesWithBruteForceOnSmallGraphs) {
  Rng rng(2718);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    Graph a = SeededGraph(rng, rng.UniformInt(7), 0.15 + 0.15 * (trial % 4));
    Graph b = SeededGraph(rng, rng.UniformInt(7), 0.15 + 0.15 * (trial % 3));
    const int truth = reference::BruteForceGed(a, b);
    GedResult flat = GraphEditDistance(a, b, Budget(0));
    ASSERT_TRUE(flat.exact);
    EXPECT_EQ(flat.distance, truth);
    EXPECT_EQ(reference::GraphEditDistance(a, b, Budget(0)).distance, truth);
    EXPECT_GE(flat.distance, GedLowerBound(a, b));
  }
}

TEST(GedKernelTest, CutoffContract) {
  Rng rng(4242);
  for (int trial = 0; trial < 80; ++trial) {
    SCOPED_TRACE(trial);
    Graph a = SeededGraph(rng, 1 + rng.UniformInt(8), 0.3);
    Graph b = SeededGraph(rng, 1 + rng.UniformInt(8), 0.3);
    GedResult full = GraphEditDistance(a, b, Budget(0));
    ASSERT_TRUE(full.exact);
    const double d = full.distance;
    EXPECT_EQ(GraphEditDistance(a, b, Budget(0),
                                std::numeric_limits<double>::infinity())
                  .nodes,
              full.nodes);
    for (double cutoff = 0.0; cutoff <= d + 2.0; cutoff += 1.0) {
      SCOPED_TRACE(cutoff);
      GedResult cut = GraphEditDistance(a, b, Budget(0), cutoff);
      ASSERT_TRUE(cut.exact);
      if (d < cutoff) {
        EXPECT_EQ(cut.distance, d);
      } else {
        EXPECT_GE(cut.distance, cutoff);
      }
      EXPECT_GE(cut.distance, GedLowerBound(a, b));
      // A lower starting bound only prunes more.
      EXPECT_LE(cut.nodes, full.nodes);
    }
  }
}

// The fold without cutoffs: the same index-order scan and lower-bound
// pruning as FoldDiversity, asking GED for the exact distance every time.
double FoldWithoutCutoffs(const Graph& p, const std::vector<Graph>& selected,
                          const GedOptions& ged, bool* all_exact) {
  double running = std::numeric_limits<double>::max();
  for (const Graph& q : selected) {
    if (GedLowerBound(p, q) >= running) continue;
    GedResult r = GraphEditDistance(p, q, ged);
    *all_exact = *all_exact && r.exact;
    running = std::min(running, r.distance);
  }
  return running;
}

TEST(GedCutoffFoldTest, EqualsFoldWithoutCutoffsWhenExact) {
  Rng rng(909);
  GedOptions ged;
  size_t compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<Graph> panel;
    const size_t panel_size = 1 + rng.UniformInt(8);
    for (size_t i = 0; i < panel_size; ++i) {
      panel.push_back(SeededGraph(rng, 3 + rng.UniformInt(6), 0.35));
    }
    Graph p = SeededGraph(rng, 3 + rng.UniformInt(6), 0.35);
    bool all_exact = true;
    const double uncut = FoldWithoutCutoffs(p, panel, ged, &all_exact);
    uint64_t truncated = 0;
    const double folded =
        FoldDiversity(p, panel, 0, std::numeric_limits<double>::max(), ged,
                      /*approximate=*/false, &truncated);
    if (!all_exact || truncated != 0) continue;
    ++compared;
    EXPECT_EQ(folded, uncut);
    EXPECT_EQ(PatternSetDiversity(p, panel, ged), uncut);
  }
  EXPECT_GT(compared, 30u);
}

TEST(GedCutoffFoldTest, CountsTruncatedSearches) {
  Rng rng(5);
  std::vector<Graph> panel;
  for (int i = 0; i < 4; ++i) panel.push_back(SeededGraph(rng, 8, 0.4));
  Graph p = SeededGraph(rng, 8, 0.4);
  uint64_t truncated = 0;
  obs::MetricsRegistry metrics;
  {
    obs::ScopedMetricsScope scope(&metrics);
    FoldDiversity(p, panel, 0, std::numeric_limits<double>::max(), Budget(5),
                  /*approximate=*/false, &truncated);
  }
  EXPECT_GT(truncated, 0u);
  EXPECT_EQ(truncated,
            metrics.Snapshot().counter(obs::Counter::kGedTruncated));
}

// Diversity truncations are tallied in candidate order after the parallel
// pass, so the report and the counters agree at every thread count.
TEST(GedTelemetryTest, TruncationCountsAreThreadCountInvariant) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 60;
  gen.min_vertices = 8;
  gen.max_vertices = 18;
  gen.seed = 31;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  uint64_t truncated[2];
  obs::MetricsSnapshot snaps[2];
  std::vector<Graph> panels[2];
  size_t idx = 0;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    CatapultOptions options;
    options.selector.budget.eta_min = 3;
    options.selector.budget.eta_max = 6;
    options.selector.budget.gamma = 8;
    options.selector.walks_per_candidate = 10;
    options.selector.ged.node_budget = 40;
    options.clustering.max_cluster_size = 12;
    options.clustering.fine_mcs.node_budget = 3000;
    options.seed = 99;
    options.threads = threads;
    obs::MetricsRegistry registry;
    RunContext ctx =
        RunContext::NoLimit().WithObservability(&registry, nullptr);
    CatapultResult result = RunCatapult(db, options, ctx);
    truncated[idx] = result.execution.ged_truncated;
    EXPECT_EQ(truncated[idx], result.selection.ged_truncated);
    snaps[idx] = result.execution.metrics;
    EXPECT_EQ(snaps[idx].counter(obs::Counter::kGedTruncated),
              truncated[idx]);
    panels[idx] = result.selection.PatternGraphs();
    ++idx;
  }
  EXPECT_GT(truncated[0], 0u);
  EXPECT_EQ(truncated[0], truncated[1]);
  for (obs::Counter c : {obs::Counter::kGedCalls, obs::Counter::kGedNodes,
                         obs::Counter::kGedTruncated}) {
    EXPECT_EQ(snaps[0].counter(c), snaps[1].counter(c))
        << obs::CounterName(c);
  }
  EXPECT_GT(snaps[0].counter(obs::Counter::kGedCalls), 0u);
  ASSERT_EQ(panels[0].size(), panels[1].size());
  for (size_t i = 0; i < panels[0].size(); ++i) {
    EXPECT_EQ(panels[0][i].DebugString(), panels[1][i].DebugString());
  }
}

}  // namespace
}  // namespace catapult
