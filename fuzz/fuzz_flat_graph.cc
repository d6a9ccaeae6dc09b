// libFuzzer target for the flat CSR graph core (src/graph/flat_graph.h).
//
// The input bytes are fed through the quarantine-mode gSpan parser; every
// graph that survives ingestion is flattened and the FlatGraph invariants
// are asserted against the source Graph: identical vertex labels, degrees
// and edge lists, binary-search FindEdge agreeing with the adjacency-scan
// HasEdge/EdgeLabel on every vertex pair, label-domain bitsets matching a
// direct label count, and the flat VF2 kernel agreeing with the reference
// search of tests/reference_vf2.h on self-containment, verdict and node
// count alike. Consecutive graph pairs also differential-test the exact GED
// kernel: against the reference search of tests/reference_ged.h on
// distance, exact flag and node count, against the brute force when both
// graphs have at most 6 vertices, and on the cutoff contract. The same
// pairs differential-test the MCS kernel in both variants and both
// edge-label modes: against the reference search of tests/reference_mcs.h
// on mapping, sizes, exact flag and node count, against the brute force
// when both graphs have at most 6 vertices and the search is exact, and on
// the mapping realising the reported common edges. Any divergence traps.
//
// Build: -DCATAPULT_FUZZ=ON with clang (links -fsanitize=fuzzer,address).
// Under gcc the same file builds as a standalone regression driver that
// replays corpus files passed on the command line (see standalone_main.h).

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "src/graph/algorithms.h"
#include "src/graph/flat_graph.h"
#include "src/graph/io.h"
#include "src/iso/flat_vf2.h"
#include "src/iso/ged.h"
#include "src/iso/mcs.h"
#include "src/obs/metrics.h"
#include "tests/reference_ged.h"
#include "tests/reference_mcs.h"
#include "tests/reference_vf2.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string input(reinterpret_cast<const char*>(data), size);

  catapult::IngestOptions options;
  // The same small structural limits as fuzz_parser: graphs stay tiny, so
  // the quadratic pair scans below are cheap.
  options.limits.max_line_bytes = 512;
  options.limits.max_vertices_per_graph = 64;
  options.limits.max_edges_per_graph = 128;
  options.limits.max_label_bytes = 32;
  options.limits.max_labels = 256;
  options.limits.max_graphs = 16;
  options.memory = catapult::MemoryBudget::Limited(0, 1 << 20);

  std::istringstream stream(input);
  catapult::IngestReport report;
  catapult::ParseError error;
  auto db = catapult::ReadDatabase(stream, options, &report, &error);
  if (!db.has_value() || db->empty()) return 0;

  for (size_t id = 0; id < db->size(); ++id) {
    const catapult::Graph& g = db->graph(static_cast<catapult::GraphId>(id));
    catapult::FlatGraph flat = catapult::FlatGraph::Build(g);
    catapult::FlatGraphView view = flat.View();

    if (view.NumVertices() != g.NumVertices()) __builtin_trap();
    if (view.NumEdges() != g.NumEdges()) __builtin_trap();

    size_t adjacency_entries = 0;
    for (catapult::VertexId u = 0; u < g.NumVertices(); ++u) {
      if (view.VertexLabel(u) != g.VertexLabel(u)) __builtin_trap();
      if (view.Degree(u) != g.Degree(u)) __builtin_trap();
      adjacency_entries += view.Degree(u);
      // Flat adjacency preserves insertion order and carries the correct
      // neighbor labels.
      const catapult::FlatNeighbor* fn = view.NeighborsBegin(u);
      for (const catapult::Graph::Neighbor& n : g.Neighbors(u)) {
        if (fn == view.NeighborsEnd(u)) __builtin_trap();
        if (fn->to != n.to) __builtin_trap();
        if (fn->edge_label != n.edge_label) __builtin_trap();
        if (fn->to_label != g.VertexLabel(n.to)) __builtin_trap();
        ++fn;
      }
      if (fn != view.NeighborsEnd(u)) __builtin_trap();
      // Binary-search lookups agree with the adjacency scan on every pair.
      for (catapult::VertexId v = 0; v < g.NumVertices(); ++v) {
        if (view.HasEdge(u, v) != g.HasEdge(u, v)) __builtin_trap();
        if (g.HasEdge(u, v) &&
            view.EdgeLabel(u, v) != g.EdgeLabel(u, v)) {
          __builtin_trap();
        }
      }
    }
    if (adjacency_entries != 2 * g.NumEdges()) __builtin_trap();

    // Label domains match a direct scan.
    catapult::LabelDomains domains = catapult::LabelDomains::Build(view);
    for (catapult::VertexId v = 0; v < g.NumVertices(); ++v) {
      catapult::Label label = g.VertexLabel(v);
      const uint64_t* words = domains.Words(label);
      if (words == nullptr) __builtin_trap();
      if ((words[v >> 6] & (uint64_t{1} << (v & 63))) == 0) __builtin_trap();
    }

    // The flat kernel agrees with the reference search on self-containment
    // (true for every non-empty connected graph), in verdict and in nodes
    // expanded. Both CHECK connectivity, so only connected inputs are fed.
    if (g.NumVertices() > 0 && catapult::IsConnected(g)) {
      catapult::obs::MetricsRegistry reference_metrics;
      bool reference;
      {
        catapult::obs::ScopedMetricsScope scope(&reference_metrics);
        reference = catapult::reference::ContainsSubgraph(g, g);
      }
      catapult::obs::MetricsRegistry flat_metrics;
      bool flat_result;
      {
        catapult::obs::ScopedMetricsScope scope(&flat_metrics);
        flat_result = catapult::FlatContainsSubgraph(view, view, &domains);
      }
      if (reference != flat_result) __builtin_trap();
      if (reference_metrics.Snapshot().counter(
              catapult::obs::Counter::kVf2Nodes) !=
          flat_metrics.Snapshot().counter(catapult::obs::Counter::kVf2Nodes)) {
        __builtin_trap();
      }
    }
  }
  // GED of each graph against the next one (the last against the first).
  // A small node budget keeps large inputs cheap and exercises truncation.
  catapult::GedOptions ged;
  ged.node_budget = 2000;
  for (size_t id = 0; id < db->size(); ++id) {
    const catapult::Graph& a = db->graph(static_cast<catapult::GraphId>(id));
    const catapult::Graph& b =
        db->graph(static_cast<catapult::GraphId>((id + 1) % db->size()));
    if (a.NumVertices() > 16 || b.NumVertices() > 16) continue;
    catapult::GedResult flat = catapult::GraphEditDistance(a, b, ged);
    catapult::GedResult reference =
        catapult::reference::GraphEditDistance(a, b, ged);
    if (flat.distance != reference.distance) __builtin_trap();
    if (flat.exact != reference.exact) __builtin_trap();
    if (flat.nodes != reference.nodes) __builtin_trap();
    if (flat.distance < catapult::GedLowerBound(a, b)) __builtin_trap();
    if (!flat.exact) continue;
    if (a.NumVertices() <= 6 && b.NumVertices() <= 6 &&
        flat.distance != catapult::reference::BruteForceGed(a, b)) {
      __builtin_trap();
    }
    // An exact search below its cutoff returns the distance; at or above
    // it, some value no smaller than the cutoff.
    const double d = flat.distance;
    if (catapult::GraphEditDistance(a, b, ged, d + 1).distance != d) {
      __builtin_trap();
    }
    catapult::GedResult at_cutoff = catapult::GraphEditDistance(a, b, ged, d);
    if (at_cutoff.exact && at_cutoff.distance < d) __builtin_trap();
  }
  // MCS of the same pairs, under a budget small enough to truncate, and
  // unbounded when both graphs are small.
  for (size_t id = 0; id < db->size(); ++id) {
    const catapult::Graph& a = db->graph(static_cast<catapult::GraphId>(id));
    const catapult::Graph& b =
        db->graph(static_cast<catapult::GraphId>((id + 1) % db->size()));
    if (a.NumVertices() > 16 || b.NumVertices() > 16) continue;
    const bool small = a.NumVertices() <= 6 && b.NumVertices() <= 6;
    for (uint64_t budget : {uint64_t{2000}, uint64_t{0}}) {
      if (budget == 0 && !small) continue;
      for (bool connected : {true, false}) {
        for (bool match : {false, true}) {
          catapult::McsOptions mcs;
          mcs.connected = connected;
          mcs.match_edge_labels = match;
          mcs.node_budget = budget;
          catapult::McsResult flat = catapult::MaxCommonSubgraph(a, b, mcs);
          catapult::McsResult reference =
              catapult::reference::MaxCommonSubgraph(a, b, mcs);
          if (flat.mapping != reference.mapping) __builtin_trap();
          if (flat.common_edges != reference.common_edges) __builtin_trap();
          if (flat.common_vertices != reference.common_vertices) {
            __builtin_trap();
          }
          if (flat.exact != reference.exact) __builtin_trap();
          if (flat.nodes != reference.nodes) __builtin_trap();
          bool common_connected = true;
          if (catapult::reference::CommonEdges(a, b, flat.mapping, match,
                                               &common_connected) !=
              flat.common_edges) {
            __builtin_trap();
          }
          if (connected && !common_connected) __builtin_trap();
          if (flat.exact && small &&
              flat.common_edges !=
                  catapult::reference::BruteForceMcs(a, b, mcs)) {
            __builtin_trap();
          }
        }
      }
    }
  }
  return 0;
}

#include "fuzz/standalone_main.h"
