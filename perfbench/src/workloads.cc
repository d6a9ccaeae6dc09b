#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <utility>

#include "src/cluster/pipeline.h"
#include "src/core/catapult.h"
#include "src/core/score_table.h"
#include "src/core/selector.h"
#include "src/csg/csg.h"
#include "src/data/molecule_generator.h"
#include "src/graph/flat_graph.h"
#include "src/graph/io.h"
#include "src/iso/flat_vf2.h"
#include "src/iso/ged.h"
#include "src/iso/mcs.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

using catapult::CatapultOptions;
using catapult::CatapultResult;
using catapult::ClusterSummaryGraph;
using catapult::GraphDatabase;
using catapult::GraphId;
namespace obs = catapult::obs;
namespace serve = catapult::serve;

// The pipeline seed of `catapult_cli mine` (its --seed default).
constexpr uint64_t kPipelineSeed = 42;
// Scaffold families of `catapult_cli generate` (its --families default).
constexpr size_t kScaffoldFamilies = 12;
// Set-up samples taken after every one-shot mine of a mine_* run.
constexpr size_t kSetupSamplesPerMine = 3;
// One-shot mines (and, untraced, server set-ups) of a serve_mix run.
constexpr size_t kServeReps = 8;
// Repetitions of each side of the traced-versus-untraced comparison.
constexpr size_t kOverheadReps = 3;

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

template <typename... Args>
std::string Fmt(const char* format, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

// --- Corpus and panel handling ----------------------------------------------

bool WriteCorpus(const std::string& path, size_t graphs, uint64_t seed) {
  catapult::MoleculeGeneratorOptions options;
  options.num_graphs = graphs;
  options.scaffold_families = kScaffoldFamilies;
  options.seed = seed;
  return static_cast<bool>(catapult::WriteDatabaseToFile(
      catapult::GenerateMoleculeDatabase(options), path));
}

std::optional<GraphDatabase> Ingest(const std::string& path,
                                    uint64_t* quarantine_digest = nullptr) {
  catapult::IngestReport report;
  auto db = catapult::ReadDatabaseFromFile(path, catapult::IngestOptions{},
                                           &report);
  if (quarantine_digest != nullptr) {
    *quarantine_digest = report.quarantine_digest;
  }
  return db;
}

GraphDatabase PanelDatabase(const catapult::LabelMap& labels,
                            const std::vector<catapult::SelectedPattern>& ps) {
  GraphDatabase panel;
  panel.labels() = labels;
  for (const catapult::SelectedPattern& p : ps) panel.Add(p.graph);
  return panel;
}

// Digest of a panel's patterns in the gSpan text format `catapult_cli mine
// --out` writes; scores are excluded so the digest pins the panel itself.
std::string PanelDigest(const GraphDatabase& panel) {
  std::ostringstream out;
  catapult::WriteDatabase(panel, out);
  return Hex64(Fnv1a64(out.str()));
}

std::string FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Hex64(Fnv1a64(bytes));
}

void CheckDigest(const DigestTable* table, const std::string& workload,
                 const std::string& key, const std::string& digest,
                 RunResult* result, bool* failed) {
  if (table == nullptr) return;
  switch (table->Check(workload, key, digest)) {
    case DigestTable::Verdict::kMatch:
      return;
    case DigestTable::Verdict::kMismatch:
      result->Problem(workload + " " + key + ": panel digest " + digest +
                      " differs from the committed digest");
      break;
    case DigestTable::Verdict::kMissing:
      result->Problem(workload + " " + key + ": no committed digest");
      break;
  }
  *failed = true;
}

// --- Per-layer table ----------------------------------------------------------

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A traced run reports all
// of them; a layer the workload does not exercise reads 0.
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"graph.ingest_s", "s"},
    {"graph.graphs", "count"},
    {"cluster.coarse_s", "s"},
    {"cluster.fine_s", "s"},
    {"cluster.kmeans_iterations", "count"},
    {"cluster.fine_split_rounds", "count"},
    {"cluster.count", "count"},
    {"csg.build_s", "s"},
    {"csg.folds", "count"},
    {"csg.dummy_pads", "count"},
    {"dist.sharded_phase_s", "s"},
    {"dist.workers_spawned", "count"},
    {"dist.retries", "count"},
    {"dist.fallbacks", "count"},
    {"core.select_s", "s"},
    {"core.walk_steps", "count"},
    {"core.pcp_dedup_ratio", "ratio"},
    {"core.div_folds", "count"},
    {"core.div_pruned_ratio", "ratio"},
    {"core.class_cache_hit_ratio", "ratio"},
    {"iso.ged_calls", "count"},
    {"iso.ged_us_per_call", "us"},
    {"iso.ged_exact_share", "ratio"},
    {"iso.mcs_calls", "count"},
    {"iso.mcs_us_per_call", "us"},
    {"iso.mcs_exact_share", "ratio"},
    {"iso.vf2_us_per_call", "us"},
    {"vf2.calls", "count"},
    {"vf2.nodes", "count"},
    {"serve.queue_wait_p95_ms", "ms"},
    {"serve.request_p95_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.shed", "count"},
    {"serve.queue_depth_peak", "count"},
    {"serve.client_gap_p95_ms", "ms"},
    {"serve.gen_late_p99_ms", "ms"},
    {"serve.slo_rps", "1/s"},
    {"obs.trace_overhead_frac", "ratio"},
};

class LayerTable {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  void AddTo(RunResult* result) const {
    for (const LayerMetricSpec& spec : kLayerMetrics) {
      result->Add(spec.name, Get(spec.name), spec.unit);
    }
  }
  bool WriteFile(const std::string& path) const {
    obs::JsonWriter json(2);
    json.BeginObject();
    for (const LayerMetricSpec& spec : kLayerMetrics) {
      json.Key(spec.name).BeginObject();
      json.Key("value").Value(Get(spec.name));
      json.Key("unit").Value(spec.unit);
      json.EndObject();
    }
    json.EndObject();
    return json.WriteFile(path);
  }

 private:
  std::map<std::string, double> values_;
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Selection-layer counters of a metrics snapshot.
void SetCoreCounters(const obs::MetricsSnapshot& m, LayerTable* layers) {
  using obs::Counter;
  layers->Set("core.walk_steps",
              static_cast<double>(m.counter(Counter::kWalkSteps)));
  layers->Set("core.pcp_dedup_ratio",
              Ratio(m.counter(Counter::kPcpDeduplicated),
                    m.counter(Counter::kPcpEmitted) +
                        m.counter(Counter::kPcpDeduplicated)));
  const uint64_t folds = m.counter(Counter::kSelectorDivFolds);
  const uint64_t pruned = m.counter(Counter::kSelectorDivPruned);
  layers->Set("core.div_folds", static_cast<double>(folds));
  layers->Set("core.div_pruned_ratio", Ratio(pruned, folds + pruned));
  const uint64_t hits = m.counter(Counter::kSelectorCacheHits);
  layers->Set("core.class_cache_hit_ratio",
              Ratio(hits, hits + m.counter(Counter::kSelectorCacheMisses)));
  layers->Set("vf2.calls", static_cast<double>(m.counter(Counter::kVf2Calls)));
  layers->Set("vf2.nodes", static_cast<double>(m.counter(Counter::kVf2Nodes)));
}

void SetClusterCounters(const obs::MetricsSnapshot& m, LayerTable* layers) {
  using obs::Counter;
  layers->Set("cluster.kmeans_iterations",
              static_cast<double>(m.counter(Counter::kKmeansIterations)));
  layers->Set("cluster.fine_split_rounds",
              static_cast<double>(m.counter(Counter::kFineSplitRounds)));
  layers->Set("csg.folds", static_cast<double>(m.counter(Counter::kCsgFolds)));
  layers->Set("csg.dummy_pads",
              static_cast<double>(m.counter(Counter::kCsgDummyPads)));
}

// --- Traced stage replay ------------------------------------------------------

// The in-process pipeline of RunCatapult, called stage by stage through
// each module's public entry point with a span around every call. Produces
// the same panel as RunCatapult for the same options (checked by callers).
struct Replay {
  std::optional<GraphDatabase> db;
  std::vector<std::vector<GraphId>> coarse_clusters;
  std::vector<std::vector<GraphId>> clusters;
  std::vector<ClusterSummaryGraph> csgs;
  catapult::SelectionResult selection;
  obs::MetricsSnapshot metrics;
  double ingest_s = 0.0;
  double coarse_s = 0.0;
  double fine_s = 0.0;
  double csg_s = 0.0;
  double select_s = 0.0;
  double total_s = 0.0;  // ingest through panel written
  std::string panel_digest;
  bool complete = false;
};

Replay ReplayPipeline(const std::string& corpus_path,
                      const CatapultOptions& options,
                      const std::string& panel_path, obs::Tracer* tracer,
                      uint64_t parent_span) {
  Replay r;
  obs::MetricsRegistry registry;
  obs::ScopedMetricsScope scope(&registry);
  catapult::ThreadPool pool(std::max<size_t>(1, options.threads));
  const catapult::RunContext ctx =
      catapult::RunContext().WithPool(&pool).WithObservability(&registry,
                                                               tracer);
  obs::Span root(tracer, "perfbench.replay", parent_span);
  const Clock::time_point t0 = Clock::now();
  {
    obs::Span span(tracer, "graph.ingest", root.id());
    r.db = Ingest(corpus_path);
  }
  const Clock::time_point t1 = Clock::now();
  r.ingest_s = SecondsBetween(t0, t1);
  if (!r.db) return r;
  const GraphDatabase& db = *r.db;

  catapult::Rng rng(options.seed);
  std::vector<GraphId> all(db.size());
  for (GraphId i = 0; i < db.size(); ++i) all[i] = i;
  catapult::ClusteringResult clustering;
  {
    obs::Span span(tracer, "cluster.CoarseClusteringStage", root.id());
    clustering = catapult::CoarseClusteringStage(db, all, options.clustering,
                                                 rng, ctx);
  }
  const Clock::time_point t2 = Clock::now();
  r.coarse_clusters = clustering.clusters;
  {
    obs::Span span(tracer, "cluster.FineClusteringStage", root.id());
    catapult::FineClusteringStage(db, options.clustering, &clustering, rng,
                                  ctx);
  }
  const Clock::time_point t3 = Clock::now();
  r.clusters = std::move(clustering.clusters);
  size_t degraded = 0;
  {
    obs::Span span(tracer, "csg.BuildCsgs", root.id());
    r.csgs = catapult::BuildCsgs(db, r.clusters, ctx, &degraded);
  }
  const Clock::time_point t4 = Clock::now();
  {
    obs::Span span(tracer, "core.FindCannedPatternSet", root.id());
    r.selection = catapult::FindCannedPatternSet(db, r.clusters, r.csgs,
                                                 options.selector, rng, ctx);
  }
  const Clock::time_point t5 = Clock::now();
  {
    obs::Span span(tracer, "graph.WriteDatabaseToFile", root.id());
    catapult::WriteDatabaseToFile(
        PanelDatabase(db.labels(), r.selection.patterns), panel_path);
  }
  const Clock::time_point t6 = Clock::now();
  root.Close();
  r.coarse_s = SecondsBetween(t1, t2);
  r.fine_s = SecondsBetween(t2, t3);
  r.csg_s = SecondsBetween(t3, t4);
  r.select_s = SecondsBetween(t4, t5);
  r.total_s = SecondsBetween(t0, t6);
  r.panel_digest = FileDigest(panel_path);
  r.complete = clustering.Complete() && degraded == 0 &&
               r.selection.complete && r.selection.fallback_patterns == 0;
  r.metrics = registry.Snapshot();
  return r;
}

void SetReplayLayers(const Replay& r, LayerTable* layers) {
  layers->Set("graph.ingest_s", r.ingest_s);
  layers->Set("graph.graphs", r.db ? static_cast<double>(r.db->size()) : 0.0);
  layers->Set("cluster.coarse_s", r.coarse_s);
  layers->Set("cluster.fine_s", r.fine_s);
  layers->Set("cluster.count", static_cast<double>(r.clusters.size()));
  layers->Set("csg.build_s", r.csg_s);
  layers->Set("core.select_s", r.select_s);
  SetClusterCounters(r.metrics, layers);
  SetCoreCounters(r.metrics, layers);
}

// --- Kernel probes --------------------------------------------------------------

// GED over every pair of the final panel, under the selector's GED options.
void GedProbe(const std::vector<catapult::SelectedPattern>& panel,
              const catapult::GedOptions& options, obs::Tracer* tracer,
              uint64_t parent, LayerTable* layers) {
  obs::Span span(tracer, "iso.GraphEditDistance", parent);
  size_t calls = 0;
  size_t exact = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < panel.size(); ++i) {
    for (size_t j = i + 1; j < panel.size(); ++j) {
      exact += catapult::GraphEditDistance(panel[i].graph, panel[j].graph,
                                           options)
                   .exact
                   ? 1
                   : 0;
      ++calls;
    }
  }
  const double us = SecondsBetween(start, Clock::now()) * 1e6;
  layers->Set("iso.ged_calls", static_cast<double>(calls));
  layers->Set("iso.ged_us_per_call", calls == 0 ? 0.0 : us / calls);
  layers->Set("iso.ged_exact_share", Ratio(exact, calls));
}

// MCS over a seeded sample of graph pairs drawn from the same coarse
// cluster, under the fine-clustering MCS options.
void McsProbe(const GraphDatabase& db,
              const std::vector<std::vector<GraphId>>& coarse,
              const catapult::McsOptions& options, uint64_t seed,
              obs::Tracer* tracer, uint64_t parent, LayerTable* layers) {
  constexpr size_t kPairs = 200;
  std::vector<size_t> eligible;
  for (size_t c = 0; c < coarse.size(); ++c) {
    if (coarse[c].size() >= 2) eligible.push_back(c);
  }
  std::vector<std::pair<GraphId, GraphId>> pairs;
  std::mt19937_64 rng(seed);
  for (size_t k = 0; k < kPairs && !eligible.empty(); ++k) {
    const auto& members = coarse[eligible[rng() % eligible.size()]];
    const size_t a = rng() % members.size();
    const size_t b = (a + 1 + rng() % (members.size() - 1)) % members.size();
    pairs.push_back({members[a], members[b]});
  }
  obs::Span span(tracer, "iso.MaxCommonSubgraph", parent);
  size_t exact = 0;
  const Clock::time_point start = Clock::now();
  for (const auto& [a, b] : pairs) {
    exact += catapult::MaxCommonSubgraph(db.graph(a), db.graph(b), options)
                     .exact
                 ? 1
                 : 0;
  }
  const double us = SecondsBetween(start, Clock::now()) * 1e6;
  layers->Set("iso.mcs_calls", static_cast<double>(pairs.size()));
  layers->Set("iso.mcs_us_per_call",
              pairs.empty() ? 0.0 : us / static_cast<double>(pairs.size()));
  layers->Set("iso.mcs_exact_share", Ratio(exact, pairs.size()));
}

// Flat VF2 containment of every panel pattern in every CSG summary, under
// the selector's coverage node budget.
void Vf2Probe(const std::vector<catapult::SelectedPattern>& panel,
              const std::vector<ClusterSummaryGraph>& csgs,
              uint64_t node_budget, obs::Tracer* tracer, uint64_t parent,
              LayerTable* layers) {
  const catapult::FlatSummaryIndex index = catapult::BuildFlatSummaryIndex(csgs);
  obs::Span span(tracer, "iso.FlatContainsSubgraph", parent);
  catapult::IsoOptions options;
  options.node_budget = node_budget;
  size_t calls = 0;
  const Clock::time_point start = Clock::now();
  for (const catapult::SelectedPattern& p : panel) {
    const catapult::FlatGraph flat = catapult::FlatGraph::Build(p.graph);
    for (size_t s = 0; s < index.size(); ++s) {
      if (index.summaries[s].NumVertices() == 0) continue;
      catapult::FlatContainsSubgraph(flat.View(), index.flat.view(s),
                                     &index.domains[s], options);
      ++calls;
    }
  }
  const double us = SecondsBetween(start, Clock::now()) * 1e6;
  layers->Set("iso.vf2_us_per_call", calls == 0 ? 0.0 : us / calls);
}

std::string ResultPath(const RunArgs& args, const std::string& suffix) {
  return args.results_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + suffix;
}

// --- One-shot mining -------------------------------------------------------------

CatapultOptions MineOptions(size_t eta_min, size_t eta_max, size_t gamma,
                            size_t threads, size_t processes) {
  // Mirrors `catapult_cli mine` option construction.
  CatapultOptions options;
  options.selector.budget.eta_min = eta_min;
  options.selector.budget.eta_max = eta_max;
  options.selector.budget.gamma = gamma;
  options.seed = kPipelineSeed;
  options.threads = threads;
  options.processes = processes;
  options.clustering.fine_mcs.node_budget = 5000;
  return options;
}

struct Parallelism {
  size_t threads = 1;
  size_t processes = 0;
};

Parallelism MineParallelism(const MineConfig& config) {
  const size_t width = std::min<size_t>(4, Nproc());
  if (config.sharded && width > 1) return {1, width};
  return {width, 0};
}

struct MineOutcome {
  double wall_s = 0.0;
  std::string digest;
  std::string problem;  // empty = ok
  CatapultResult result;
};

// One `catapult_cli mine`: ingest through the panel written.
MineOutcome MineOnce(const std::string& corpus_path,
                     const std::string& panel_path,
                     CatapultOptions options) {
  MineOutcome out;
  const Clock::time_point start = Clock::now();
  uint64_t quarantine = 0;
  std::optional<GraphDatabase> db = Ingest(corpus_path, &quarantine);
  if (!db || db->size() == 0) {
    out.problem = "cannot ingest " + corpus_path;
    return out;
  }
  options.ingest_digest = quarantine;
  out.result = catapult::RunCatapult(*db, options);
  const bool written = static_cast<bool>(catapult::WriteDatabaseToFile(
      PanelDatabase(db->labels(), out.result.selection.patterns), panel_path));
  out.wall_s = SecondsBetween(start, Clock::now());
  if (!out.result.ok()) {
    out.problem = "options rejected: " + out.result.option_errors[0].field;
  } else if (!written) {
    out.problem = "cannot write " + panel_path;
  } else if (out.result.execution.Degraded()) {
    out.problem = "degraded panel for " + corpus_path;
  }
  out.digest = FileDigest(panel_path);
  return out;
}

std::string CorpusPath(const RunArgs& args, const MineConfig& config,
                       size_t index) {
  return args.workdir + "/" + config.name + "-c" + std::to_string(index) +
         ".txt";
}

std::string CorpusKey(size_t index) { return "c" + std::to_string(index); }

// Stage replays of one corpus, kOverheadReps with a tracer interleaved
// with as many without, so that only the tracing differs between the two
// sides and a drift in the host's speed charges both alike. The first
// traced replay records into `tracer`; the rest record into tracers of
// their own, so the written trace holds one replay.
struct TracedComparison {
  std::vector<Replay> traced;
  std::vector<Replay> untraced;

  // Median traced time over median untraced time, minus 1.
  double OverheadFrac() const {
    return MedianTotal(traced) / MedianTotal(untraced) - 1.0;
  }

  // Counts every replay in `result`; each must be complete and match the
  // untraced one-shot panel `digest`.
  void Check(const std::string& digest, const std::string& corpus,
             RunResult* result) const {
    for (const std::vector<Replay>* side : {&traced, &untraced}) {
      for (const Replay& r : *side) {
        ++result->attempted;
        if (!r.db || !r.complete || r.panel_digest != digest) {
          ++result->failed;
          result->Problem("stage-replay panel differs from the one-shot "
                          "panel for " + corpus);
        }
      }
    }
  }

 private:
  static double MedianTotal(const std::vector<Replay>& replays) {
    std::vector<double> totals;
    for (const Replay& r : replays) totals.push_back(r.total_s);
    return Median(totals);
  }
};

TracedComparison CompareTraced(const std::string& corpus_path,
                               const CatapultOptions& options,
                               const std::string& panel_path,
                               obs::Tracer* tracer, uint64_t parent_span) {
  TracedComparison c;
  for (size_t rep = 0; rep < kOverheadReps; ++rep) {
    obs::Tracer own;
    auto traced = [&] {
      c.traced.push_back(ReplayPipeline(corpus_path, options, panel_path,
                                        rep == 0 ? tracer : &own,
                                        rep == 0 ? parent_span : 0));
    };
    auto untraced = [&] {
      c.untraced.push_back(
          ReplayPipeline(corpus_path, options, panel_path, nullptr, 0));
    };
    // Which side goes first alternates, so neither always runs warmer.
    if (rep % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
  }
  return c;
}

RunResult RunMineTraced(const MineConfig& config, const RunArgs& args,
                        const std::vector<size_t>& corpora,
                        const Parallelism& par) {
  RunResult result;
  LayerTable layers;
  obs::Tracer tracer;
  tracer.SetProcessName(1, "perfbench " + config.name);
  // The drawn corpus of the costliest stratum, where every layer's share is
  // largest and steadiest.
  size_t index = corpora.front();
  for (size_t c : corpora) {
    const std::vector<size_t>& top = config.strata.back();
    if (std::find(top.begin(), top.end(), c) != top.end()) index = c;
  }
  const std::string corpus = CorpusPath(args, config, index);
  const std::string panel = args.workdir + "/" + config.name + "-panel.txt";
  const CatapultOptions options = MineOptions(
      config.eta_min, config.eta_max, config.gamma, par.threads, par.processes);

  // Untraced reference first: the end-to-end path with tracing off.
  const MineOutcome plain = MineOnce(corpus, panel, options);
  ++result.attempted;
  bool failed = !plain.problem.empty();
  if (failed) result.Problem(plain.problem);
  CheckDigest(args.digests, config.name, CorpusKey(index), plain.digest,
              &result, &failed);
  if (failed) ++result.failed;

  // The stages can only be called one by one in-process, so a sharded
  // workload's replays run in-process; their panels must still equal the
  // sharded one.
  CatapultOptions in_process = options;
  in_process.processes = 0;
  obs::Span root(&tracer, "perfbench." + config.name);
  const TracedComparison comparison =
      CompareTraced(corpus, in_process, panel, &tracer, root.id());
  comparison.Check(plain.digest, corpus, &result);
  const Replay& replay = comparison.traced.front();
  if (!replay.db) return result;
  SetReplayLayers(replay, &layers);

  if (plain.result.execution.dist.enabled) {
    const catapult::dist::DistReport& d = plain.result.execution.dist;
    layers.Set("dist.sharded_phase_s",
               plain.result.clustering_seconds + plain.result.csg_seconds -
                   (replay.coarse_s + replay.fine_s + replay.csg_s));
    layers.Set("dist.workers_spawned", static_cast<double>(d.workers_spawned));
    layers.Set("dist.retries", static_cast<double>(d.shard_retries));
    layers.Set("dist.fallbacks", static_cast<double>(d.inprocess_fallbacks));
  }
  GedProbe(replay.selection.patterns, options.selector.ged, &tracer, root.id(),
           &layers);
  McsProbe(*replay.db, replay.coarse_clusters, options.clustering.fine_mcs,
           args.seed, &tracer, root.id(), &layers);
  Vf2Probe(replay.selection.patterns, replay.csgs,
           options.selector.iso_node_budget, &tracer, root.id(), &layers);
  root.Close();
  layers.Set("obs.trace_overhead_frac", comparison.OverheadFrac());

  result.notes.push_back(Fmt(
      "untraced mine %.3f s; traced replay %.3f s: coarse %.3f, fine %.3f, "
      "csg %.3f, select %.3f (selection share %.2f, clustering+csg share "
      "%.2f)",
      plain.wall_s, replay.total_s, replay.coarse_s, replay.fine_s,
      replay.csg_s, replay.select_s, replay.select_s / replay.total_s,
      (replay.coarse_s + replay.fine_s + replay.csg_s) / replay.total_s));
  tracer.WriteFile(ResultPath(args, "-trace.json"));
  layers.WriteFile(ResultPath(args, "-layers.json"));
  layers.AddTo(&result);
  return result;
}

// --- Serving -------------------------------------------------------------------

struct Budget {
  size_t eta_min;
  size_t eta_max;
  size_t gamma;
  std::string Key() const {
    return std::to_string(eta_min) + "-" + std::to_string(eta_max) + "-" +
           std::to_string(gamma);
  }
};

struct ServeConfig {
  size_t graphs = 300;
  uint64_t corpus_seed = 3001;
  size_t worker_threads = 2;
  size_t pipeline_threads = 1;
  // Offered rate of the untraced run, the rates the traced run sweeps, and
  // the share of requests that go to the hot, cached budgets. The cold
  // share keeps the two workers about half busy at rate_per_s: more queueing
  // made the cold latency swing with the host's speed from run to run.
  double rate_per_s = 48.0;
  std::vector<double> sweep_rates = {48.0, 96.0, 192.0};
  double hot_share = 0.875;
  // Latency limits (from due time) a rate must meet for every request.
  double hit_limit_ms = 50.0;
  double cold_limit_ms = 1000.0;
  std::vector<Budget> hot = {{3, 4, 4}, {3, 5, 6}, {3, 6, 3}};
  // One-shot reference mine behind mine_s: the costliest cold budget.
  Budget reference = {3, 6, 8};

  // Cold budgets: eta_min 3, eta_max 4..6, gamma 3..8. gamma 12 over 3..8
  // costs seconds per request and is left out.
  std::vector<Budget> Cold() const {
    std::vector<Budget> cold;
    for (size_t eta_max = 4; eta_max <= 6; ++eta_max) {
      for (size_t gamma = 3; gamma <= 8; ++gamma) {
        cold.push_back({3, eta_max, gamma});
      }
    }
    return cold;
  }
};

// The server's pipeline options: the CLI's, with the per-request budget
// filled in by the server.
CatapultOptions ServePipeline(size_t threads) {
  return MineOptions(3, 8, 12, threads, 0);
}

std::string CorpusPathServe(const RunArgs& args) {
  return args.workdir + "/serve_mix-corpus.txt";
}

// The traced server's request log: one JSONL line per request, carrying
// the server's own queue-wait and run times and the client's span id.
std::string RequestLogPath(const RunArgs& args) {
  return args.workdir + "/serve_mix-requests.jsonl";
}

// Encoded panels of every budget, computed outside the server from a
// separately prepared corpus; every served reply must match byte for byte.
struct References {
  std::map<std::string, std::string> panel_bytes;  // budget key -> bytes
};

References ComputeReferences(const GraphDatabase& db,
                             const ServeConfig& config,
                             const DigestTable* digests, RunResult* result,
                             bool* failed) {
  References refs;
  const size_t threads = std::min<size_t>(4, Nproc());
  const CatapultOptions base = ServePipeline(threads);
  const catapult::PreparedCorpus corpus =
      catapult::PrepareCorpus(db, base, catapult::RunContext());
  std::vector<std::string> names;
  for (size_t l = 0; l < db.labels().size(); ++l) {
    names.push_back(db.labels().Name(static_cast<catapult::Label>(l)));
  }
  for (const Budget& b : config.Cold()) {
    CatapultOptions opts = base;
    opts.selector.budget.eta_min = b.eta_min;
    opts.selector.budget.eta_max = b.eta_max;
    opts.selector.budget.gamma = b.gamma;
    const CatapultResult r =
        catapult::RunCatapultSelection(db, corpus, opts, catapult::RunContext());
    serve::Panel panel;
    panel.degraded = r.execution.Degraded() || !corpus.complete;
    panel.labels = names;
    panel.patterns = r.selection.patterns;
    refs.panel_bytes[b.Key()] = serve::EncodePanel(panel);
    if (panel.degraded) {
      *failed = true;
      result->Problem("reference panel degraded for budget " + b.Key());
    }
    CheckDigest(digests, "serve_mix", b.Key(),
                PanelDigest(PanelDatabase(db.labels(), r.selection.patterns)),
                result, failed);
  }
  return refs;
}

struct ServeSetup {
  std::unique_ptr<GraphDatabase> db;
  std::unique_ptr<serve::Server> server;
  double seconds = 0.0;
  std::string error;
};

// Ingest + PrepareCorpus + Server::Start, until a client's ping is answered.
ServeSetup StartServer(const RunArgs& args, const ServeConfig& config,
                       bool tracing, uint64_t trace_id) {
  ServeSetup s;
  const Clock::time_point start = Clock::now();
  std::optional<GraphDatabase> db = Ingest(CorpusPathServe(args));
  if (!db) {
    s.error = "cannot ingest the serve corpus";
    return s;
  }
  s.db = std::make_unique<GraphDatabase>(std::move(*db));
  serve::ServeOptions options;
  options.socket_path = args.workdir + "/serve.sock";
  options.worker_threads = config.worker_threads;
  options.max_queue_depth = 64;
  options.pipeline = ServePipeline(config.pipeline_threads);
  options.enable_tracing = tracing;
  if (tracing) options.request_log_path = RequestLogPath(args);
  s.server = std::make_unique<serve::Server>();
  if (tracing) s.server->tracer()->SetTraceId(trace_id);
  s.error = s.server->Start(*s.db, options);
  if (s.error.empty()) {
    serve::ServeClient client;
    serve::PongReply pong;
    s.error = client.Connect(options.socket_path);
    if (s.error.empty()) s.error = client.Ping(&pong);
  }
  s.seconds = SecondsBetween(start, Clock::now());
  return s;
}

// One open-loop phase against a running server.
struct TrafficOutcome {
  std::vector<RequestTiming> timings;
  std::vector<bool> cold;  // per request
  size_t hot_requests = 0;
  size_t cold_requests = 0;
  // Traced only: each exchange's client-side time, keyed by the span id the
  // request carried to the server.
  std::map<uint64_t, double> exchange_ms_by_span;
};

TrafficOutcome DriveTraffic(const ServeConfig& config,
                            const std::string& socket_path,
                            const References& refs, double rate,
                            double seconds, uint64_t seed,
                            obs::Tracer* tracer, uint64_t parent_span,
                            RunResult* result) {
  const std::vector<Budget> cold = config.Cold();
  std::vector<Budget> kinds = config.hot;
  kinds.insert(kinds.end(), cold.begin(), cold.end());
  const size_t hot_kinds = config.hot.size();
  std::vector<double> weights;
  std::vector<size_t> lane_of_kind;
  for (size_t k = 0; k < kinds.size(); ++k) {
    const bool is_hot = k < hot_kinds;
    weights.push_back(is_hot ? config.hot_share / hot_kinds
                             : (1.0 - config.hot_share) / cold.size());
    lane_of_kind.push_back(is_hot ? 0 : 1);
  }
  // Hits and cold requests use separate connections, so a hit never waits
  // behind a cold request on the client side; the cold lane has one
  // connection per server worker. At most nproc connections in all.
  const size_t per_lane = std::min<size_t>(config.worker_threads,
                                           std::max<size_t>(1, Nproc() / 2));
  const std::vector<size_t> lane_connections = {per_lane, per_lane};
  std::vector<std::vector<std::unique_ptr<serve::ServeClient>>> clients(2);
  for (size_t lane = 0; lane < 2; ++lane) {
    for (size_t c = 0; c < per_lane; ++c) {
      clients[lane].push_back(std::make_unique<serve::ServeClient>());
      const std::string err = clients[lane].back()->Connect(socket_path);
      if (!err.empty()) result->Problem("connect: " + err);
    }
  }
  std::mutex mutex;  // guards result->problems and exchange_ms_by_span
  TrafficOutcome traffic;
  const std::vector<ScheduledRequest> schedule =
      PoissonSchedule(rate, seconds, weights, seed);
  auto send = [&](size_t lane, size_t conn, const ScheduledRequest& req) {
    const Budget& b = kinds[req.kind];
    const bool is_cold = lane == 1;
    obs::Span span(tracer, is_cold ? "client.cold" : "client.hit",
                   parent_span);
    serve::MineRequest request;
    request.eta_min = b.eta_min;
    request.eta_max = b.eta_max;
    request.gamma = b.gamma;
    request.bypass_cache = is_cold;
    if (tracer != nullptr) {
      request.trace_id = tracer->trace_id();
      request.parent_span_id = span.id();
    }
    const Clock::time_point sent = Clock::now();
    const serve::ServeClient::MineOutcome out =
        clients[lane][conn]->Mine(request);
    if (tracer != nullptr) {
      const double ms = SecondsBetween(sent, Clock::now()) * 1e3;
      std::lock_guard<std::mutex> lock(mutex);
      traffic.exchange_ms_by_span[span.id()] = ms;
    }
    std::string problem;
    if (out.kind != serve::ServeClient::MineOutcome::Kind::kPanel) {
      problem = "budget " + b.Key() + ": " +
                (out.kind == serve::ServeClient::MineOutcome::Kind::kShed
                     ? std::string("shed")
                     : out.error);
    } else if (out.reply.panel != refs.panel_bytes.at(b.Key())) {
      problem = "budget " + b.Key() + ": served panel differs from the "
                "one-shot reference";
    } else if (out.reply.cache_hit == is_cold) {
      problem = "budget " + b.Key() +
                (is_cold ? ": cold request answered from cache"
                         : ": hot request missed the cache");
    }
    if (problem.empty()) return true;
    std::lock_guard<std::mutex> lock(mutex);
    result->Problem(problem);
    return false;
  };
  traffic.timings = RunOpenLoop(schedule, lane_of_kind, lane_connections, send);
  for (const ScheduledRequest& r : schedule) {
    const bool is_cold = r.kind >= hot_kinds;
    traffic.cold.push_back(is_cold);
    ++(is_cold ? traffic.cold_requests : traffic.hot_requests);
  }
  return traffic;
}

struct TrafficStats {
  std::vector<double> all_ms, hit_ms, cold_ms, late_ms;
  size_t failed = 0;
  bool slo_met = true;
};

TrafficStats Summarize(const TrafficOutcome& t, const ServeConfig& config,
                       double seconds) {
  TrafficStats s;
  double last_done = 0.0;
  for (size_t i = 0; i < t.timings.size(); ++i) {
    const RequestTiming& r = t.timings[i];
    last_done = std::max(last_done, r.done_s);
    s.late_ms.push_back(r.GeneratorLateMs());
    if (!r.ok) {
      ++s.failed;
      s.slo_met = false;
      continue;
    }
    const double ms = r.LatencyMs();
    s.all_ms.push_back(ms);
    if (t.cold[i]) {
      s.cold_ms.push_back(ms);
      if (ms > config.cold_limit_ms) s.slo_met = false;
    } else {
      s.hit_ms.push_back(ms);
      if (ms > config.hit_limit_ms) s.slo_met = false;
    }
  }
  // A backlog that outlives the schedule by more than the cold limit is
  // growing, whatever the individual latencies say.
  if ((last_done - seconds) * 1e3 > config.cold_limit_ms) s.slo_met = false;
  return s;
}

std::string PercentileNote(const char* what, const std::vector<double>& ms,
                           double pct) {
  const std::optional<double> p = SupportedPercentile(ms, pct);
  char buf[256];
  if (p) {
    std::snprintf(buf, sizeof(buf), "%s p50 %.3f ms, p%g %.3f ms (n=%zu)",
                  what, Median(ms), pct, *p, ms.size());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s p50 %.3f ms, p%g unsupported (n=%zu; highest p%g)", what,
                  Median(ms), pct, ms.size(), HighestSupportedPercentile(ms.size()));
  }
  return buf;
}

// The text after `"key":` in a one-line JSON object, up to the next ',' or
// '}'; empty when the key is absent.
std::string JsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

// Client latency minus server latency, per traced request: the client's
// exchange time less the queue wait and run time the server's request log
// holds for it (both 0 for a cache hit). What remains is the socket,
// protocol and event-loop cost.
std::vector<double> ClientGapsMs(const std::string& log_path,
                                 const std::map<uint64_t, double>& exchange_ms) {
  std::vector<double> gaps;
  std::ifstream in(log_path);
  std::string line;
  while (std::getline(in, line)) {
    const std::string span = JsonField(line, "parent_span_id");
    if (span.empty()) continue;  // untraced warm-up request
    const auto it = exchange_ms.find(std::stoull(span));
    if (it == exchange_ms.end()) continue;
    gaps.push_back(it->second - std::stod(JsonField(line, "queue_wait_ms")) -
                   std::stod(JsonField(line, "run_ms")));
  }
  return gaps;
}

// Warms the cache with one request per hot budget (not timed).
void WarmHotBudgets(const ServeConfig& config, const std::string& socket_path,
                    const References& refs, RunResult* result) {
  serve::ServeClient client;
  if (std::string err = client.Connect(socket_path); !err.empty()) {
    result->Problem("connect: " + err);
    return;
  }
  for (const Budget& b : config.hot) {
    serve::MineRequest request;
    request.eta_min = b.eta_min;
    request.eta_max = b.eta_max;
    request.gamma = b.gamma;
    const auto out = client.Mine(request);
    if (out.kind != serve::ServeClient::MineOutcome::Kind::kPanel ||
        out.reply.panel != refs.panel_bytes.at(b.Key())) {
      result->Problem("warm-up request for budget " + b.Key() + " failed");
    }
  }
}

RunResult RunServeTraced(const RunArgs& args, const ServeConfig& config,
                         const References& refs,
                         const std::string& mine_digest) {
  RunResult result;
  LayerTable layers;
  obs::Tracer tracer;
  tracer.SetProcessName(1, "perfbench serve_mix");
  tracer.SetTraceId(Fnv1a64("serve_mix/" + std::to_string(args.seed)));
  obs::Span root(&tracer, "perfbench.serve_mix");

  // Stage replays at the reference budget, checked against the one-shots.
  const CatapultOptions options =
      MineOptions(config.reference.eta_min, config.reference.eta_max,
                  config.reference.gamma, std::min<size_t>(4, Nproc()), 0);
  const TracedComparison comparison =
      CompareTraced(CorpusPathServe(args), options,
                    args.workdir + "/serve_mix-panel.txt", &tracer, root.id());
  comparison.Check(mine_digest, CorpusPathServe(args), &result);
  const Replay& replay = comparison.traced.front();
  if (!replay.db) return result;
  SetReplayLayers(replay, &layers);
  layers.Set("obs.trace_overhead_frac", comparison.OverheadFrac());
  GedProbe(replay.selection.patterns, options.selector.ged, &tracer, root.id(),
           &layers);
  McsProbe(*replay.db, replay.coarse_clusters, options.clustering.fine_mcs,
           args.seed, &tracer, root.id(), &layers);
  Vf2Probe(replay.selection.patterns, replay.csgs,
           options.selector.iso_node_budget, &tracer, root.id(), &layers);

  std::remove(RequestLogPath(args).c_str());  // the server appends
  ServeSetup setup = StartServer(args, config, true, tracer.trace_id());
  if (!setup.error.empty()) {
    result.Problem("server start: " + setup.error);
    return result;
  }
  WarmHotBudgets(config, setup.server->socket_path(), refs, &result);
  // The offered-rate sweep: the highest rate at which every request meets
  // its latency limit with no growing backlog.
  double slo_rps = 0.0;
  std::vector<double> late_ms;
  std::map<uint64_t, double> exchange_ms;
  const double phase_s = args.seconds / config.sweep_rates.size();
  for (size_t i = 0; i < config.sweep_rates.size(); ++i) {
    const double rate = config.sweep_rates[i];
    obs::Span phase(&tracer, "perfbench.rate_phase", root.id());
    const TrafficOutcome t =
        DriveTraffic(config, setup.server->socket_path(), refs, rate, phase_s,
                     args.seed + i, &tracer, phase.id(), &result);
    const TrafficStats s = Summarize(t, config, phase_s);
    result.attempted += t.timings.size();
    result.failed += s.failed;
    if (s.slo_met) slo_rps = std::max(slo_rps, rate);
    late_ms.insert(late_ms.end(), s.late_ms.begin(), s.late_ms.end());
    exchange_ms.insert(t.exchange_ms_by_span.begin(),
                       t.exchange_ms_by_span.end());
    result.notes.push_back(
        Fmt("rate %.0f/s: slo %s; ", rate, s.slo_met ? "met" : "missed") +
        PercentileNote("hit", s.hit_ms, 99.0) + "; " +
        PercentileNote("cold", s.cold_ms, 95.0));
  }
  setup.server->Stop();
  root.Close();
  const obs::MetricsSnapshot m = setup.server->Metrics();
  using obs::Counter;
  const obs::HistData& wait = m.hist(obs::Hist::kServeQueueWaitMillis);
  const obs::HistData& req = m.hist(obs::Hist::kServeRequestMillis);
  layers.Set("serve.queue_wait_p95_ms",
             static_cast<double>(wait.count ? wait.Quantile(0.95) : 0));
  layers.Set("serve.request_p95_ms",
             static_cast<double>(req.count ? req.Quantile(0.95) : 0));
  const uint64_t hits = m.counter(Counter::kServeCacheHits);
  layers.Set("serve.cache_hit_ratio",
             Ratio(hits, hits + m.counter(Counter::kServeCacheMisses)));
  layers.Set("serve.shed", static_cast<double>(m.counter(Counter::kServeShed)));
  layers.Set("serve.queue_depth_peak",
             static_cast<double>(m.gauge(obs::Gauge::kServeQueueDepthPeak)));
  const std::vector<double> gaps =
      ClientGapsMs(RequestLogPath(args), exchange_ms);
  layers.Set("serve.client_gap_p95_ms",
             SupportedPercentile(gaps, 95.0).value_or(Median(gaps)));
  layers.Set("serve.gen_late_p99_ms",
             SupportedPercentile(late_ms, 99.0).value_or(Median(late_ms)));
  layers.Set("serve.slo_rps", slo_rps);
  result.notes.push_back(Fmt("slo limits: hit %.0f ms, cold %.0f ms",
                             config.hit_limit_ms, config.cold_limit_ms));
  result.notes.push_back(Fmt("client gap over %.0f of %.0f traced requests",
                             static_cast<double>(gaps.size()),
                             static_cast<double>(exchange_ms.size())));

  tracer.WriteFile(ResultPath(args, "-trace.json"));
  setup.server->tracer()->WriteFile(ResultPath(args, "-server-trace.json"));
  layers.WriteFile(ResultPath(args, "-layers.json"));
  layers.AddTo(&result);
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"mine_select", "mine_cluster",
                                                 "serve_mix"};
  return names;
}

bool FindMineConfig(const std::string& name, MineConfig* config) {
  MineConfig c;
  c.name = name;
  if (name == "mine_select") {
    // Selection-bound: CLI-default budget on small corpora, in-process.
    c.graphs_per_corpus = 40;
    c.pool_size = 32;
    c.pool_seed_base = 1000;
    c.eta_min = 3;
    c.eta_max = 8;
    c.gamma = 12;
    // Pool corpora paired by median mine wall (--record-digests prints it),
    // cheapest pair first.
    c.strata = {{6, 13},  {26, 24}, {12, 16}, {31, 8}, {0, 11},  {17, 15},
                {20, 5},  {4, 22},  {14, 23}, {25, 2}, {29, 27}, {28, 10},
                {9, 7},   {1, 18},  {19, 21}, {3, 30}};
    c.sharded = false;
  } else if (name == "mine_cluster") {
    // Clustering-bound: a small budget on larger corpora, sharded.
    c.graphs_per_corpus = 200;
    c.pool_size = 32;
    c.pool_seed_base = 2000;
    c.eta_min = 3;
    c.eta_max = 4;
    c.gamma = 3;
    c.strata = {{11, 7},  {28, 4},  {20, 18}, {3, 1},   {24, 16}, {8, 9},
                {6, 15},  {31, 19}, {14, 17}, {25, 29}, {26, 2},  {0, 23},
                {30, 5},  {13, 27}, {12, 10}, {21, 22}};
    c.sharded = true;
  } else {
    return false;
  }
  *config = c;
  return true;
}

std::vector<size_t> DrawCorpora(const MineConfig& config, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + config.pool_seed_base);
  std::vector<size_t> drawn;
  for (const std::vector<size_t>& stratum : config.strata) {
    drawn.push_back(stratum[rng() % stratum.size()]);
  }
  for (size_t i = drawn.size(); i > 1; --i) {
    std::swap(drawn[i - 1], drawn[rng() % i]);
  }
  return drawn;
}

RunResult RunMine(const MineConfig& config, const RunArgs& args,
                  Provenance* provenance) {
  const Parallelism par = MineParallelism(config);
  provenance->threads = par.threads;
  provenance->processes = par.processes;
  const std::vector<size_t> corpora = DrawCorpora(config, args.seed);
  for (size_t index : corpora) {
    if (!WriteCorpus(CorpusPath(args, config, index), config.graphs_per_corpus,
                     config.pool_seed_base + index)) {
      RunResult r;
      r.attempted = 1;
      r.failed = 1;
      r.Problem("cannot write corpus " + CorpusPath(args, config, index));
      return r;
    }
  }
  if (args.trace) return RunMineTraced(config, args, corpora, par);

  RunResult result;
  // Set-up: ingesting all the run's corpora, one corpus per task on
  // min(4, nproc) threads, sampled a few times after every mine. On a shared
  // host one core's speed flips between two levels about 1.6x apart for
  // seconds at a time; samples that use every core and are spread over the
  // whole run keep the median from jumping between the two levels.
  std::vector<double> setups;
  std::vector<char> ingested(corpora.size());
  auto sample_setups = [&] {
    // Not kept across mines: no idle threads while shard workers fork.
    catapult::ThreadPool ingest_pool(std::min<size_t>(4, Nproc()));
    for (size_t rep = 0; rep < kSetupSamplesPerMine; ++rep) {
      const Clock::time_point start = Clock::now();
      ingest_pool.ParallelFor(corpora.size(), [&](size_t i) {
        ingested[i] = Ingest(CorpusPath(args, config, corpora[i])) ? 1 : 0;
      });
      setups.push_back(SecondsBetween(start, Clock::now()));
      for (size_t i = 0; i < corpora.size(); ++i) {
        if (!ingested[i]) {
          result.Problem("cannot ingest corpus " + CorpusKey(corpora[i]));
        }
      }
    }
  };

  const CatapultOptions options = MineOptions(
      config.eta_min, config.eta_max, config.gamma, par.threads, par.processes);
  const std::string panel = args.workdir + "/" + config.name + "-panel.txt";
  std::vector<double> all_ms;
  // Per drawn corpus: the walls of its successful mines.
  std::vector<std::vector<double>> walls(corpora.size());
  double select_s = 0.0;
  double total_s = 0.0;
  // Cycles through the drawn corpora, each at least once, until the next
  // mine would run past the measured time (judged by that corpus's last
  // wall). Many cheap mines of corpora close in cost keep the median steady
  // when the host's speed drifts within a run.
  const Clock::time_point start = Clock::now();
  std::vector<double> last_wall(corpora.size(), 0.0);
  for (size_t k = 0;; ++k) {
    const size_t i = k % corpora.size();
    if (k >= corpora.size() &&
        SecondsBetween(start, Clock::now()) + last_wall[i] > args.seconds) {
      break;
    }
    const size_t index = corpora[i];
    const MineOutcome out =
        MineOnce(CorpusPath(args, config, index), panel, options);
    last_wall[i] = out.wall_s;
    ++result.attempted;
    bool failed = !out.problem.empty();
    if (failed) result.Problem(out.problem);
    CheckDigest(args.digests, config.name, CorpusKey(index), out.digest,
                &result, &failed);
    sample_setups();
    if (failed) {
      ++result.failed;
      continue;
    }
    all_ms.push_back(out.wall_s * 1e3);
    walls[i].push_back(out.wall_s);
    select_s += out.result.selection_seconds;
    total_s += out.wall_s;
  }
  // mine_s weighs every drawn corpus the same, however often it was mined.
  std::vector<double> corpus_means;
  std::string walls_note = "mine walls (s):";
  for (size_t i = 0; i < corpora.size(); ++i) {
    if (walls[i].empty()) continue;
    corpus_means.push_back(Mean(walls[i]));
    walls_note += " " + CorpusKey(corpora[i]) + "=";
    for (size_t r = 0; r < walls[i].size(); ++r) {
      walls_note += Fmt(r == 0 ? "%.3f" : "/%.3f", walls[i][r]);
    }
  }
  result.Add("setup_s", Median(setups), "s");
  result.Add("mine_s", Mean(corpus_means), "s");
  // Every request of a one-shot workload computes its panel from scratch.
  result.Add("req_p50_ms", Median(all_ms), "ms");
  result.Add("cold_p50_ms", Median(all_ms), "ms");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.notes.push_back(walls_note);
  std::string setups_note = "set-up samples (s):";
  for (double w : setups) setups_note += Fmt(" %.4f", w);
  result.notes.push_back(setups_note);
  result.notes.push_back(
      Fmt("%.0f mines over %.0f corpora of %.0f graphs; selection share of "
          "mine wall %.2f",
          static_cast<double>(all_ms.size()),
          static_cast<double>(corpora.size()),
          static_cast<double>(config.graphs_per_corpus),
          total_s > 0.0 ? select_s / total_s : 0.0));
  return result;
}

namespace {

RunResult RunServe(const RunArgs& args, Provenance* provenance) {
  const ServeConfig config;
  provenance->threads = config.pipeline_threads;
  provenance->processes = 0;
  RunResult result;
  if (!WriteCorpus(CorpusPathServe(args), config.graphs, config.corpus_seed)) {
    result.attempted = 1;
    result.failed = 1;
    result.Problem("cannot write the serve corpus");
    return result;
  }

  // One-shot mines at the reference budget: the correctness anchor for the
  // served panels and this workload's mine_s. In the untraced run each is
  // followed by a server set-up, half of them before the traffic and half
  // after, so the samples span the run rather than one stretch of the
  // host's drifting speed; the last server set up before the traffic takes
  // it.
  const std::string panel = args.workdir + "/serve_mix-oneshot.txt";
  std::vector<double> oneshot_walls;
  std::vector<double> setups;
  MineOutcome oneshot;
  ServeSetup setup;
  auto sample = [&]() -> bool {
    oneshot = MineOnce(
        CorpusPathServe(args), panel,
        MineOptions(config.reference.eta_min, config.reference.eta_max,
                    config.reference.gamma, std::min<size_t>(4, Nproc()), 0));
    ++result.attempted;
    oneshot_walls.push_back(oneshot.wall_s);
    bool failed = !oneshot.problem.empty();
    if (failed) result.Problem(oneshot.problem);
    CheckDigest(args.digests, "serve_mix", config.reference.Key(),
                oneshot.digest, &result, &failed);
    if (failed) ++result.failed;
    if (args.trace) return true;
    setup.server.reset();  // stops it before its database goes
    setup = StartServer(args, config, false, 0);
    if (!setup.error.empty()) {
      result.Problem("server start: " + setup.error);
      ++result.attempted;
      ++result.failed;
      return false;
    }
    setups.push_back(setup.seconds);
    return true;
  };
  const size_t reps_before = args.trace ? kServeReps : kServeReps / 2;
  for (size_t rep = 0; rep < reps_before; ++rep) {
    if (!sample()) return result;
  }

  std::optional<GraphDatabase> db = Ingest(CorpusPathServe(args));
  if (!db) {
    result.Problem("cannot ingest the serve corpus");
    ++result.attempted;
    ++result.failed;
    return result;
  }
  bool refs_failed = false;
  const References refs =
      ComputeReferences(*db, config, args.digests, &result, &refs_failed);
  ++result.attempted;
  if (refs_failed) ++result.failed;
  if (args.trace) {
    RunResult traced =
        RunServeTraced(args, config, refs, oneshot.digest);
    traced.attempted += result.attempted;
    traced.failed += result.failed;
    for (const std::string& p : result.problems) traced.Problem(p);
    return traced;
  }

  WarmHotBudgets(config, setup.server->socket_path(), refs, &result);
  const TrafficOutcome traffic =
      DriveTraffic(config, setup.server->socket_path(), refs, config.rate_per_s,
                   args.seconds, args.seed, nullptr, 0, &result);
  setup.server->Stop();
  const TrafficStats s = Summarize(traffic, config, args.seconds);
  result.attempted += traffic.timings.size();
  result.failed += s.failed;

  // No cache hit may reach selection. Cold requests bypass the cache
  // lookup, so the only misses are the warm-up requests; every hot request
  // must be a hit.
  const obs::MetricsSnapshot m = setup.server->Metrics();
  const uint64_t misses = m.counter(obs::Counter::kServeCacheMisses);
  const uint64_t hits = m.counter(obs::Counter::kServeCacheHits);
  if (misses != config.hot.size() || hits != traffic.hot_requests) {
    result.Problem("cache accounting: " + std::to_string(misses) +
                   " misses for " + std::to_string(config.hot.size()) +
                   " warm-up requests, " + std::to_string(hits) + " hits for " +
                   std::to_string(traffic.hot_requests) + " hot requests");
  }

  for (size_t rep = reps_before; rep < kServeReps; ++rep) {
    if (!sample()) return result;
  }

  std::string reps = "one-shot mines (s):";
  for (double w : oneshot_walls) reps += Fmt(" %.3f", w);
  reps += "; set-ups (s):";
  for (double w : setups) reps += Fmt(" %.3f", w);
  result.notes.push_back(reps);
  result.Add("setup_s", Median(setups), "s");
  result.Add("mine_s", Median(oneshot_walls), "s");
  result.Add("req_p50_ms", Median(s.all_ms), "ms");
  result.Add("cold_p50_ms", Median(s.cold_ms), "ms");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.notes.push_back(
      Fmt("offered %.0f req/s for %.0f s: %.0f hits, %.0f cold; ",
          config.rate_per_s, args.seconds,
          static_cast<double>(traffic.hot_requests),
          static_cast<double>(traffic.cold_requests)) +
      PercentileNote("hit", s.hit_ms, 99.0) + "; " +
      PercentileNote("cold", s.cold_ms, 95.0) + "; " +
      PercentileNote("generator lateness", s.late_ms, 99.0) + "; slo " +
      (s.slo_met ? "met" : "missed"));
  return result;
}

}  // namespace

RunResult RunWorkload(const RunArgs& args, Provenance* provenance) {
  provenance->workload = args.workload;
  provenance->seed = args.seed;
  MineConfig config;
  if (FindMineConfig(args.workload, &config)) {
    return RunMine(config, args, provenance);
  }
  return RunServe(args, provenance);
}

std::vector<std::string> RecordMineDigests(const MineConfig& config,
                                           const std::string& workdir) {
  std::vector<std::string> lines;
  const Parallelism par = MineParallelism(config);
  const CatapultOptions options = MineOptions(
      config.eta_min, config.eta_max, config.gamma, par.threads, par.processes);
  RunArgs args;
  args.workdir = workdir;
  for (size_t index = 0; index < config.pool_size; ++index) {
    const std::string corpus = CorpusPath(args, config, index);
    WriteCorpus(corpus, config.graphs_per_corpus, config.pool_seed_base + index);
    std::vector<double> walls;
    std::vector<double> select_shares;
    MineOutcome out;
    for (int rep = 0; rep < 3 && out.problem.empty(); ++rep) {
      out = MineOnce(corpus, workdir + "/record-panel.txt", options);
      walls.push_back(out.wall_s);
      select_shares.push_back(out.result.selection_seconds / out.wall_s);
    }
    lines.push_back(config.name + " " + CorpusKey(index) + " " +
                    (out.problem.empty() ? out.digest : "FAILED:" + out.problem) +
                    Fmt("  # median mine %.3f s", Median(walls)) +
                    Fmt(", selection %.2f", Median(select_shares)));
  }
  return lines;
}

std::vector<std::string> RecordDigests(const std::string& workload,
                                       const std::string& workdir) {
  MineConfig config;
  if (FindMineConfig(workload, &config)) {
    return RecordMineDigests(config, workdir);
  }
  // serve_mix: every budget mined one-shot, exactly like `catapult_cli mine`.
  const ServeConfig serve_config;
  RunArgs args;
  args.workdir = workdir;
  WriteCorpus(CorpusPathServe(args), serve_config.graphs,
              serve_config.corpus_seed);
  std::vector<std::string> lines;
  for (const Budget& b : serve_config.Cold()) {
    const MineOutcome out = MineOnce(
        CorpusPathServe(args), workdir + "/record-panel.txt",
        MineOptions(b.eta_min, b.eta_max, b.gamma, std::min<size_t>(4, Nproc()),
                    0));
    lines.push_back("serve_mix " + b.Key() + " " +
                    (out.problem.empty() ? out.digest : "FAILED:" + out.problem));
  }
  return lines;
}

}  // namespace perfbench
