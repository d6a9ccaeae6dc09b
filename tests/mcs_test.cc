// Oracles for the MCS/MCCS kernel (src/iso/mcs.h): the search it replaced
// and a brute force over every partial injective vertex map (both in
// tests/reference_mcs.h), compared call by call in both variants and both
// edge-label modes, truncated calls included; and its telemetry, which must
// not depend on the thread or process count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/iso/mcs.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "tests/reference_mcs.h"

namespace catapult {
namespace {

// A seeded labelled graph on `n` vertices with about `density` of all
// vertex pairs joined, not necessarily connected. Vertex labels come from
// {0, 1, 2} and edge labels from {0, 1}, so label filtering and edge-label
// matching both bite.
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

McsOptions Options(bool connected, bool match_edge_labels, uint64_t budget) {
  McsOptions options;
  options.connected = connected;
  options.match_edge_labels = match_edge_labels;
  options.node_budget = budget;
  return options;
}

// The flat kernel equals the reference search on every field, and records
// exactly one counter batch describing the call. Returns the result.
McsResult ExpectMatchesReference(const Graph& a, const Graph& b,
                                 McsOptions options) {
  const McsResult ref = reference::MaxCommonSubgraph(a, b, options);
  obs::MetricsRegistry metrics;
  McsResult flat;
  {
    obs::ScopedMetricsScope scope(&metrics);
    flat = MaxCommonSubgraph(a, b, options);
  }
  EXPECT_EQ(flat.mapping, ref.mapping);
  EXPECT_EQ(flat.common_edges, ref.common_edges);
  EXPECT_EQ(flat.common_vertices, ref.common_vertices);
  EXPECT_EQ(flat.exact, ref.exact);
  EXPECT_EQ(flat.nodes, ref.nodes);
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kMcsCalls), 1u);
  EXPECT_EQ(snap.counter(obs::Counter::kMcsNodes), flat.nodes);
  EXPECT_EQ(snap.counter(obs::Counter::kMcsTruncated), flat.exact ? 0u : 1u);
  EXPECT_EQ(snap.hist(obs::Hist::kMcsNodesPerCall).sum, flat.nodes);
  return flat;
}

// The mapping realises what the result claims: injective, equally labelled
// pairs whose common edges number common_edges (connected when asked).
void ExpectValidMapping(const Graph& a, const Graph& b, const McsResult& r,
                        const McsOptions& options) {
  EXPECT_EQ(r.mapping.size(), r.common_vertices);
  std::set<VertexId> used_a;
  std::set<VertexId> used_b;
  for (const auto& [u, v] : r.mapping) {
    EXPECT_TRUE(used_a.insert(u).second);
    EXPECT_TRUE(used_b.insert(v).second);
    EXPECT_EQ(a.VertexLabel(u), b.VertexLabel(v));
  }
  bool connected = true;
  EXPECT_EQ(reference::CommonEdges(a, b, r.mapping, options.match_edge_labels,
                                   &connected),
            r.common_edges);
  if (options.connected) EXPECT_TRUE(connected);
}

TEST(McsKernelTest, MatchesReferenceOnSeededGraphs) {
  Rng rng(1601);
  size_t truncated = 0;
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE(trial);
    Graph a = SeededGraph(rng, rng.UniformInt(11), 0.2 + 0.1 * (trial % 5));
    Graph b = SeededGraph(rng, rng.UniformInt(11), 0.2 + 0.1 * (trial % 4));
    std::vector<uint64_t> budgets = {1, 2, 3, 7, 20, 100, 1000, 5000, 20000};
    if (std::max(a.NumVertices(), b.NumVertices()) <= 7) budgets.push_back(0);
    for (bool connected : {true, false}) {
      for (bool match : {false, true}) {
        for (uint64_t budget : budgets) {
          SCOPED_TRACE(::testing::Message() << "connected=" << connected
                                            << " match=" << match
                                            << " budget=" << budget);
          const McsOptions options = Options(connected, match, budget);
          const McsResult flat = ExpectMatchesReference(a, b, options);
          ExpectValidMapping(a, b, flat, options);
          truncated += flat.exact ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GT(truncated, 0u);
}

// Molecule-like pairs from one generated corpus, as fine clustering sees
// them: at each budget here some connected calls truncate (most at 1,000),
// and their answer depends on exactly where the budget cuts.
TEST(McsKernelTest, MatchesReferenceOnGeneratedCorpusIncludingTruncation) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 24;
  gen.seed = 7;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  size_t calls = 0;
  size_t truncated = 0;
  for (GraphId i = 0; i + 1 < db.size(); ++i) {
    const Graph& a = db.graph(i);
    const Graph& b = db.graph(i + 1);
    SCOPED_TRACE(i);
    for (bool match : {false, true}) {
      for (uint64_t budget : {1000u, 5000u, 20000u}) {
        SCOPED_TRACE(::testing::Message() << "match=" << match
                                          << " budget=" << budget);
        const McsResult flat =
            ExpectMatchesReference(a, b, Options(true, match, budget));
        ++calls;
        truncated += flat.exact ? 0 : 1;
      }
      // The unconnected variant truncates on almost every such pair.
      const McsResult flat =
          ExpectMatchesReference(a, b, Options(false, match, 1000));
      ++calls;
      truncated += flat.exact ? 0 : 1;
    }
  }
  EXPECT_GT(truncated, calls / 3);
  EXPECT_LT(truncated, calls);
}

TEST(McsKernelTest, AgreesWithBruteForceOnSmallGraphs) {
  Rng rng(1602);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE(trial);
    Graph a = SeededGraph(rng, rng.UniformInt(7), 0.3 + 0.1 * (trial % 5));
    Graph b = SeededGraph(rng, rng.UniformInt(7), 0.3 + 0.1 * (trial % 4));
    for (bool connected : {true, false}) {
      for (bool match : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "connected=" << connected
                                          << " match=" << match);
        const McsOptions unbounded = Options(connected, match, 0);
        const size_t brute = reference::BruteForceMcs(a, b, unbounded);
        const McsResult exact = MaxCommonSubgraph(a, b, unbounded);
        EXPECT_TRUE(exact.exact);
        EXPECT_EQ(exact.common_edges, brute);
        ExpectValidMapping(a, b, exact, unbounded);
        // Under a budget: exact results are optimal, truncated ones are
        // realised lower bounds.
        for (uint64_t budget : {uint64_t{5}, uint64_t{50}, uint64_t{1000}}) {
          const McsOptions options = Options(connected, match, budget);
          const McsResult r = MaxCommonSubgraph(a, b, options);
          ExpectValidMapping(a, b, r, options);
          if (r.exact) {
            EXPECT_EQ(r.common_edges, brute);
          } else {
            EXPECT_LE(r.common_edges, brute);
          }
        }
      }
    }
  }
}

// Fine-clustering MCS calls run per coarse cluster under pre-split streams,
// so the counters and the report's truncation tally are the same whichever
// thread or process runs them, and the panels are identical.
TEST(McsTelemetryTest, CountsAreThreadAndProcessInvariant) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 60;
  gen.min_vertices = 8;
  gen.max_vertices = 18;
  gen.seed = 31;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  struct Run {
    size_t threads, processes;
  };
  const std::vector<Run> runs = {{1, 1}, {4, 1}, {1, 4}};
  std::vector<uint64_t> truncated;
  std::vector<obs::MetricsSnapshot> snaps;
  std::vector<std::vector<Graph>> panels;
  for (const Run& run : runs) {
    SCOPED_TRACE(::testing::Message() << "threads=" << run.threads
                                      << " processes=" << run.processes);
    CatapultOptions options;
    options.selector.budget.eta_min = 3;
    options.selector.budget.eta_max = 6;
    options.selector.budget.gamma = 6;
    options.selector.walks_per_candidate = 8;
    options.clustering.max_cluster_size = 8;
    options.clustering.fine_mcs.node_budget = 3000;
    options.seed = 99;
    options.threads = run.threads;
    options.processes = run.processes;
    obs::MetricsRegistry registry;
    RunContext ctx =
        RunContext::NoLimit().WithObservability(&registry, nullptr);
    CatapultResult result = RunCatapult(db, options, ctx);
    ASSERT_TRUE(result.ok());
    truncated.push_back(result.execution.mcs_truncated);
    snaps.push_back(result.execution.metrics);
    EXPECT_EQ(snaps.back().counter(obs::Counter::kMcsTruncated),
              truncated.back());
    panels.push_back(result.selection.PatternGraphs());
  }
  EXPECT_GT(truncated[0], 0u);
  EXPECT_GT(snaps[0].counter(obs::Counter::kMcsCalls), truncated[0]);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(truncated[i], truncated[0]);
    for (obs::Counter c : {obs::Counter::kMcsCalls, obs::Counter::kMcsNodes,
                           obs::Counter::kMcsTruncated}) {
      EXPECT_EQ(snaps[i].counter(c), snaps[0].counter(c))
          << obs::CounterName(c) << " run " << i;
    }
    ASSERT_EQ(panels[i].size(), panels[0].size());
    for (size_t p = 0; p < panels[0].size(); ++p) {
      EXPECT_EQ(panels[i][p].DebugString(), panels[0][p].DebugString());
    }
  }
}

}  // namespace
}  // namespace catapult
