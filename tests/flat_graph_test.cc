// FlatGraph construction invariants and flat-kernel equivalence (DESIGN.md
// §15): the CSR layout must reproduce the source Graph exactly — labels,
// degrees, insertion-order adjacency, round-tripped edge lists — its binary-
// search lookups must agree with the adjacency scan on every vertex pair,
// and the flat VF2 kernel must return the same verdicts, embedding
// sequences and node counts, budget truncations included, as the reference
// search kept in tests/reference_vf2.h.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/csg/csg.h"
#include "src/graph/algorithms.h"
#include "src/graph/flat_graph.h"
#include "src/iso/flat_vf2.h"
#include "src/iso/vf2.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "tests/reference_vf2.h"

namespace catapult {
namespace {

// A deterministic random labelled connected graph for a given seed.
Graph RandomGraph(uint64_t seed, size_t min_v = 5, size_t max_v = 14,
                  size_t num_labels = 4) {
  Rng rng(seed * 2654435761ULL + 17);
  size_t n = min_v + rng.UniformInt(max_v - min_v + 1);
  Graph g;
  g.AddVertex(static_cast<Label>(rng.UniformInt(num_labels)));
  for (size_t v = 1; v < n; ++v) {
    VertexId parent = static_cast<VertexId>(rng.UniformInt(v));
    VertexId child =
        g.AddVertex(static_cast<Label>(rng.UniformInt(num_labels)));
    g.AddEdge(parent, child, static_cast<Label>(rng.UniformInt(2)));
  }
  size_t extra = rng.UniformInt(4);
  for (size_t e = 0; e < extra; ++e) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(n));
    VertexId v = static_cast<VertexId>(rng.UniformInt(n));
    if (u != v && !g.HasEdge(u, v)) {
      g.AddEdge(u, v, static_cast<Label>(rng.UniformInt(2)));
    }
  }
  return g;
}

std::vector<std::tuple<VertexId, VertexId, Label>> SortedEdges(
    const std::vector<Edge>& edges) {
  std::vector<std::tuple<VertexId, VertexId, Label>> out;
  for (const Edge& e : edges) out.emplace_back(e.u, e.v, e.label);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FlatGraphTest, EmptyGraph) {
  FlatGraph flat = FlatGraph::Build(Graph());
  EXPECT_EQ(flat.NumVertices(), 0u);
  EXPECT_EQ(flat.NumEdges(), 0u);
  FlatGraphView view = flat.View();
  EXPECT_EQ(view.NumVertices(), 0u);
  EXPECT_EQ(view.NumEdges(), 0u);
}

TEST(FlatGraphTest, SingleVertex) {
  Graph g;
  g.AddVertex(7);
  FlatGraphView view;
  FlatGraph flat = FlatGraph::Build(g);
  view = flat.View();
  EXPECT_EQ(view.NumVertices(), 1u);
  EXPECT_EQ(view.NumEdges(), 0u);
  EXPECT_EQ(view.VertexLabel(0), 7u);
  EXPECT_EQ(view.Degree(0), 0u);
  EXPECT_EQ(view.NeighborsBegin(0), view.NeighborsEnd(0));
  EXPECT_FALSE(view.HasEdge(0, 0));
}

TEST(FlatGraphTest, RoundTripPreservesStructure) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Graph g = RandomGraph(seed);
    FlatGraph flat = FlatGraph::Build(g);
    FlatGraphView view = flat.View();
    ASSERT_EQ(view.NumVertices(), g.NumVertices());
    ASSERT_EQ(view.NumEdges(), g.NumEdges());

    // Rebuild a Graph from the flat adjacency and compare edge lists.
    Graph rebuilt;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      rebuilt.AddVertex(view.VertexLabel(v));
    }
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (const FlatNeighbor* n = view.NeighborsBegin(v);
           n != view.NeighborsEnd(v); ++n) {
        if (v < n->to) rebuilt.AddEdge(v, n->to, n->edge_label);
      }
    }
    EXPECT_EQ(SortedEdges(rebuilt.EdgeList()), SortedEdges(g.EdgeList()));
  }
}

TEST(FlatGraphTest, AdjacencyKeepsInsertionOrder) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Graph g = RandomGraph(seed);
    FlatGraphView view;
    FlatGraph flat = FlatGraph::Build(g);
    view = flat.View();
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const std::vector<Graph::Neighbor>& ref = g.Neighbors(v);
      ASSERT_EQ(view.Degree(v), ref.size());
      const FlatNeighbor* fn = view.NeighborsBegin(v);
      for (const Graph::Neighbor& n : ref) {
        EXPECT_EQ(fn->to, n.to);
        EXPECT_EQ(fn->edge_label, n.edge_label);
        EXPECT_EQ(fn->to_label, g.VertexLabel(n.to));
        ++fn;
      }
    }
  }
}

TEST(FlatGraphTest, BinarySearchAgreesWithLinearScan) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Graph g = RandomGraph(seed);
    FlatGraph flat = FlatGraph::Build(g);
    FlatGraphView view = flat.View();
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        ASSERT_EQ(view.HasEdge(u, v), g.HasEdge(u, v))
            << "seed " << seed << " pair " << u << "," << v;
        if (g.HasEdge(u, v)) {
          EXPECT_EQ(view.EdgeLabel(u, v), g.EdgeLabel(u, v));
        }
      }
    }
  }
}

TEST(FlatGraphTest, NeighborsWithLabelMatchesScan) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Graph g = RandomGraph(seed, 5, 14, 3);
    FlatGraph flat = FlatGraph::Build(g);
    FlatGraphView view = flat.View();
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (Label l = 0; l < 4; ++l) {
        std::vector<VertexId> expected;
        for (const Graph::Neighbor& n : g.Neighbors(u)) {
          if (g.VertexLabel(n.to) == l) expected.push_back(n.to);
        }
        std::sort(expected.begin(), expected.end());
        uint32_t first = 0, last = 0;
        view.NeighborsWithLabel(u, l, &first, &last);
        std::vector<VertexId> got;
        for (uint32_t k = first; k < last; ++k) {
          got.push_back(view.adj[view.sorted[k]].to);
        }
        EXPECT_EQ(got, expected) << "seed " << seed << " u=" << u
                                 << " label=" << l;
      }
    }
  }
}

TEST(FlatGraphDatabaseTest, ArenaViewsEqualStandaloneBuilds) {
  std::vector<Graph> graphs;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    graphs.push_back(RandomGraph(seed));
  }
  graphs.push_back(Graph());  // empty graph mid-arena must slice cleanly
  Graph single;
  single.AddVertex(2);
  graphs.push_back(single);

  auto ExpectSameAsStandalone = [](FlatGraphView a, const Graph& g) {
    FlatGraph standalone = FlatGraph::Build(g);
    FlatGraphView b = standalone.View();
    ASSERT_EQ(a.NumVertices(), b.NumVertices());
    ASSERT_EQ(a.NumEdges(), b.NumEdges());
    for (VertexId v = 0; v < a.NumVertices(); ++v) {
      EXPECT_EQ(a.VertexLabel(v), b.VertexLabel(v));
      ASSERT_EQ(a.Degree(v), b.Degree(v));
      const FlatNeighbor* na = a.NeighborsBegin(v);
      const FlatNeighbor* nb = b.NeighborsBegin(v);
      for (; nb != b.NeighborsEnd(v); ++na, ++nb) {
        EXPECT_EQ(na->to, nb->to);
        EXPECT_EQ(na->to_label, nb->to_label);
        EXPECT_EQ(na->edge_label, nb->edge_label);
      }
      for (VertexId u = 0; u < a.NumVertices(); ++u) {
        EXPECT_EQ(a.HasEdge(v, u), b.HasEdge(v, u));
      }
    }
  };

  FlatGraphDatabase arena = FlatGraphDatabase::Build(graphs);
  ASSERT_EQ(arena.size(), graphs.size());
  for (size_t id = 0; id < graphs.size(); ++id) {
    ExpectSameAsStandalone(arena.view(id), graphs[id]);
  }

  // An id-list build over a database slices the listed graphs, in list
  // order.
  GraphDatabase db;
  for (const Graph& g : graphs) db.Add(g);
  std::vector<GraphId> ids = {13, 2, 12, 0, 7};
  FlatGraphDatabase subset = FlatGraphDatabase::Build(db, ids);
  ASSERT_EQ(subset.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ExpectSameAsStandalone(subset.view(i), graphs[ids[i]]);
  }
}

TEST(LabelDomainsTest, DomainsMatchDirectCount) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Graph g = RandomGraph(seed);
    FlatGraph flat = FlatGraph::Build(g);
    LabelDomains domains = LabelDomains::Build(flat.View());
    EXPECT_EQ(domains.num_vertices(), g.NumVertices());
    for (Label l = 0; l < 5; ++l) {
      std::vector<VertexId> expected;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.VertexLabel(v) == l) expected.push_back(v);
      }
      EXPECT_EQ(domains.CountOf(l), expected.size());
      const uint64_t* words = domains.Words(l);
      if (expected.empty()) {
        EXPECT_EQ(words, nullptr);
        continue;
      }
      ASSERT_NE(words, nullptr);
      std::vector<VertexId> got;
      for (size_t w = 0; w < domains.words_per_domain(); ++w) {
        uint64_t bits = words[w];
        while (bits != 0) {
          got.push_back(static_cast<VertexId>(
              (w << 6) + static_cast<size_t>(__builtin_ctzll(bits))));
          bits &= bits - 1;
        }
      }
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(LabelDomainsTest, EmptyGraphHasNoDomains) {
  FlatGraph flat = FlatGraph::Build(Graph());
  LabelDomains domains = LabelDomains::Build(flat.View());
  EXPECT_EQ(domains.num_labels(), 0u);
  EXPECT_EQ(domains.Words(0), nullptr);
  EXPECT_EQ(domains.CountOf(0), 0u);
}

TEST(FlatVf2Test, AgreesWithReferenceKernel) {
  Rng rng(99);
  size_t disagreements = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Graph target = RandomGraph(seed, 6, 14);
    Graph pattern = seed % 3 == 0
                        ? RandomConnectedSubgraph(target, 3 + seed % 4, rng)
                        : RandomGraph(seed + 500, 3, 6);
    FlatGraph flat_pattern = FlatGraph::Build(pattern);
    FlatGraph flat_target = FlatGraph::Build(target);
    LabelDomains domains = LabelDomains::Build(flat_target.View());
    for (bool induced : {false, true}) {
      for (bool match_edge_labels : {false, true}) {
        IsoOptions options;
        options.induced = induced;
        options.match_edge_labels = match_edge_labels;
        bool reference =
            reference::ContainsSubgraph(pattern, target, options);
        bool flat = FlatContainsSubgraph(flat_pattern.View(),
                                         flat_target.View(), &domains,
                                         options);
        if (reference != flat) ++disagreements;
        EXPECT_EQ(reference, flat)
            << "seed " << seed << " induced=" << induced
            << " edge_labels=" << match_edge_labels;
      }
    }
  }
  EXPECT_EQ(disagreements, 0u);
}

TEST(FlatVf2Test, NullDomainsBuildsOwn) {
  Graph target = RandomGraph(3, 8, 12);
  Rng rng(4);
  Graph pattern = RandomConnectedSubgraph(target, 4, rng);
  FlatGraph flat_pattern = FlatGraph::Build(pattern);
  FlatGraph flat_target = FlatGraph::Build(target);
  EXPECT_TRUE(FlatContainsSubgraph(flat_pattern.View(), flat_target.View(),
                                   nullptr));
}

TEST(FlatVf2Test, EnumerationMatchesReferenceSequence) {
  // Enumeration visits the same embeddings in the same order, and a capped
  // enumeration stops at the same one.
  Rng rng(7);
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Graph target = RandomGraph(seed, 5, 10, 2);
    Graph pattern = seed % 2 == 0
                        ? RandomConnectedSubgraph(target, 1 + seed % 4, rng)
                        : RandomGraph(seed + 900, 2, 4, 2);
    FlatGraph flat_pattern = FlatGraph::Build(pattern);
    FlatGraph flat_target = FlatGraph::Build(target);
    for (bool induced : {false, true}) {
      for (size_t cap : {size_t{0}, size_t{1}, size_t{3}}) {
        IsoOptions options;
        options.induced = induced;
        std::vector<Embedding> expected;
        reference::SubgraphIsomorphism(pattern, target, options)
            .Enumerate([&](const Embedding& e) {
              expected.push_back(e);
              return cap == 0 || expected.size() < cap;
            });
        std::vector<Embedding> flat;
        size_t visited = FlatEnumerateEmbeddings(
            flat_pattern.View(), flat_target.View(), nullptr,
            [&](const Embedding& e) {
              flat.push_back(e);
              return cap == 0 || flat.size() < cap;
            },
            options);
        EXPECT_EQ(visited, flat.size());
        EXPECT_EQ(flat, expected)
            << "seed " << seed << " induced=" << induced << " cap " << cap;
        EXPECT_EQ(FindEmbeddings(pattern, target, cap, options), expected)
            << "seed " << seed << " induced=" << induced << " cap " << cap;
      }
    }
  }
}

TEST(FlatVf2Test, BudgetTruncationMatchesReference) {
  // The bit-identity contract extends to truncated searches: both kernels
  // must explore the same number of nodes and truncate at the same point.
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Graph target = RandomGraph(seed, 8, 14);
    Graph pattern = RandomGraph(seed + 300, 3, 6);
    FlatGraph flat_pattern = FlatGraph::Build(pattern);
    FlatGraph flat_target = FlatGraph::Build(target);
    LabelDomains domains = LabelDomains::Build(flat_target.View());
    for (uint64_t budget : {1, 2, 5, 20, 1000}) {
      IsoOptions options;
      options.node_budget = budget;
      bool ref_exhausted = false;
      options.budget_exhausted = &ref_exhausted;
      obs::MetricsRegistry ref_metrics;
      bool reference;
      {
        obs::ScopedMetricsScope scope(&ref_metrics);
        reference = reference::ContainsSubgraph(pattern, target, options);
      }
      bool flat_exhausted = false;
      options.budget_exhausted = &flat_exhausted;
      obs::MetricsRegistry flat_metrics;
      bool flat;
      {
        obs::ScopedMetricsScope scope(&flat_metrics);
        flat = FlatContainsSubgraph(flat_pattern.View(), flat_target.View(),
                                    &domains, options);
      }
      EXPECT_EQ(reference, flat)
          << "seed " << seed << " budget " << budget;
      EXPECT_EQ(ref_exhausted, flat_exhausted)
          << "seed " << seed << " budget " << budget;
      obs::MetricsSnapshot ref_snap = ref_metrics.Snapshot();
      obs::MetricsSnapshot flat_snap = flat_metrics.Snapshot();
      for (obs::Counter c :
           {obs::Counter::kVf2Calls, obs::Counter::kVf2Nodes,
            obs::Counter::kVf2BudgetExhausted}) {
        EXPECT_EQ(ref_snap.counter(c), flat_snap.counter(c))
            << "seed " << seed << " budget " << budget << " counter "
            << static_cast<int>(c);
      }
    }
  }
}

TEST(FlatVf2Test, SizePrecheckRejectsSilently) {
  Graph small = RandomGraph(1, 3, 4);
  Graph big = RandomGraph(2, 10, 12);
  FlatGraph flat_big = FlatGraph::Build(big);
  FlatGraph flat_small = FlatGraph::Build(small);
  bool exhausted = true;
  IsoOptions options;
  options.budget_exhausted = &exhausted;
  EXPECT_FALSE(FlatContainsSubgraph(flat_big.View(), flat_small.View(),
                                    nullptr, options));
  EXPECT_FALSE(exhausted);  // precheck resets the flag, no search ran
}

TEST(CsgFlatTest, ToFlatMatchesToGraph) {
  Graph a = RandomGraph(11, 5, 8);
  Graph b = RandomGraph(12, 5, 8);
  GraphDatabase db;
  db.Add(a);
  db.Add(b);
  ClusterSummaryGraph csg = BuildCsg(db, {0, 1});
  Graph summary = csg.ToGraph();
  FlatGraph flat = csg.ToFlat();
  FlatGraphView view = flat.View();
  ASSERT_EQ(view.NumVertices(), summary.NumVertices());
  ASSERT_EQ(view.NumEdges(), summary.NumEdges());
  for (VertexId u = 0; u < summary.NumVertices(); ++u) {
    EXPECT_EQ(view.VertexLabel(u), summary.VertexLabel(u));
    for (VertexId v = 0; v < summary.NumVertices(); ++v) {
      EXPECT_EQ(view.HasEdge(u, v), summary.HasEdge(u, v));
    }
  }
}

TEST(FlatGraphTest, MemoryBytesAccountsForArrays) {
  Graph g = RandomGraph(5);
  FlatGraph flat = FlatGraph::Build(g);
  EXPECT_GE(flat.MemoryBytes(),
            g.NumVertices() * sizeof(Label) + 2 * g.NumEdges() * 12);
  FlatGraphDatabase arena = FlatGraphDatabase::Build(std::vector<Graph>{g});
  EXPECT_GE(arena.MemoryBytes(), flat.MemoryBytes() / 2);
}

}  // namespace
}  // namespace catapult
