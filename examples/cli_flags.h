// Command-line front end shared by the example binaries (catapult_cli,
// catapult_serve, catapult_worker, catapult_client): the flag parser, the
// ingestion-limit flags, and the pipeline options every binary that mines,
// serves or carries shards builds from its flags.
//
// Header-only on purpose: every examples/*.cpp is its own executable.

#ifndef CATAPULT_EXAMPLES_CLI_FLAGS_H_
#define CATAPULT_EXAMPLES_CLI_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/catapult.h"
#include "src/graph/io.h"
#include "src/util/thread_pool.h"

namespace catapult::cli {

// Minimal flag parser over the argv entries after the first `first`, read
// left to right: a --name followed by a token that does not start with "--"
// takes that token as its value; any other --name (followed by another
// --flag or by nothing) is a boolean flag recorded as "true".
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_.emplace_back(argv[i] + 2, argv[i + 1]);
        ++i;
      } else {
        values_.emplace_back(argv[i] + 2, "true");
      }
    }
  }

  std::optional<std::string> Get(const std::string& name) const {
    for (const auto& [key, value] : values_) {
      if (key == name) return value;
    }
    return std::nullopt;
  }

  long GetInt(const std::string& name, long fallback) const {
    auto v = Get(name);
    return v ? std::atol(v->c_str()) : fallback;
  }

  bool GetBool(const std::string& name) const { return Get(name).has_value(); }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

// The ingestion options every database-reading binary shares: the
// structural limits --max-graph-vertices, --max-graph-edges, --max-graphs
// (0 = no cap) and --strict-parse, plus --mem-budget-mb bounding ingestion
// too. catapult_worker derives its database fingerprint from a read under
// these options, so it ingests exactly the graphs the supervisor did.
inline IngestOptions IngestLimitsFromFlags(const Flags& flags) {
  IngestOptions options;
  options.limits.max_vertices_per_graph = static_cast<size_t>(flags.GetInt(
      "max-graph-vertices",
      static_cast<long>(options.limits.max_vertices_per_graph)));
  options.limits.max_edges_per_graph = static_cast<size_t>(flags.GetInt(
      "max-graph-edges",
      static_cast<long>(options.limits.max_edges_per_graph)));
  options.limits.max_graphs =
      static_cast<size_t>(flags.GetInt("max-graphs", 0));
  options.strict = flags.GetBool("strict-parse");
  long mem_budget_mb = flags.GetInt("mem-budget-mb", 0);
  if (mem_budget_mb > 0) {
    options.memory =
        MemoryBudget::Limited(0, static_cast<size_t>(mem_budget_mb) << 20);
  }
  return options;
}

// Prints the quarantine/memory summary of a read of `path` to stderr when
// anything was skipped or ingestion stopped early; silent otherwise.
inline void PrintIngestSummary(const std::string& path,
                               const IngestReport& report) {
  if (report.graphs_quarantined > 0 || !report.quarantine_reasons.empty() ||
      report.stopped_early) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), report.Summary().c_str());
  }
}

// The pipeline options of a database read with quarantine digest
// `ingest_digest`: --seed (default 42), --sampling, --threads (0 = hardware
// concurrency; absent = "auto", the CATAPULT_THREADS environment variable,
// else 1) and --mem-budget-mb, with the fine-clustering MCS budget every
// binary runs at.
inline CatapultOptions PipelineOptionsFromFlags(const Flags& flags,
                                                uint64_t ingest_digest) {
  CatapultOptions options;
  options.ingest_digest = ingest_digest;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.use_sampling = flags.GetBool("sampling");
  options.clustering.fine_mcs.node_budget = 5000;
  if (auto threads = flags.Get("threads")) {
    long n = std::atol(threads->c_str());
    options.threads =
        n <= 0 ? ThreadPool::HardwareThreads() : static_cast<size_t>(n);
  }
  long mem_budget_mb = flags.GetInt("mem-budget-mb", 0);
  if (mem_budget_mb > 0) {
    options.mem_hard_limit_bytes = static_cast<size_t>(mem_budget_mb) << 20;
  }
  return options;
}

// `catapult_cli mine`'s pipeline options: the above plus the pattern budget
// --gamma (default 12), --min-size (3) and --max-size (8). catapult_worker
// derives its handshake fingerprint from the same function, so a worker
// given the supervisor's flags matches its ConfigFingerprint by
// construction.
inline CatapultOptions MineOptionsFromFlags(const Flags& flags,
                                            uint64_t ingest_digest) {
  CatapultOptions options = PipelineOptionsFromFlags(flags, ingest_digest);
  options.selector.budget.gamma =
      static_cast<size_t>(flags.GetInt("gamma", 12));
  options.selector.budget.eta_min =
      static_cast<size_t>(flags.GetInt("min-size", 3));
  options.selector.budget.eta_max =
      static_cast<size_t>(flags.GetInt("max-size", 8));
  return options;
}

}  // namespace catapult::cli

#endif  // CATAPULT_EXAMPLES_CLI_FLAGS_H_
