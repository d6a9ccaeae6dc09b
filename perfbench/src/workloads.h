#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads, each driven through the library's public API
// from this one process. The program under test only ever sees the
// generated corpus files, which it ingests with ReadDatabaseFromFile.

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";  // corpora, panels, socket
  std::string results_dir = ".bench_build/results";
  std::string repo_root = ".";
  const DigestTable* digests = nullptr;
};

// One-shot mining over a pool of `pool_size` generated corpora. Each run
// mines one corpus from each of `strata`, drawn by the run seed, so every
// panel has a committed digest whatever the seed.
struct MineConfig {
  std::string name;
  size_t graphs_per_corpus = 150;
  size_t pool_size = 16;
  uint64_t pool_seed_base = 1000;  // corpus i uses generator seed base + i
  size_t eta_min = 3;
  size_t eta_max = 8;
  size_t gamma = 12;
  // Pool corpora grouped by measured mining cost; a run draws one corpus
  // from each group, so seeds differ in their corpora but not in the mix of
  // cheap and costly ones.
  std::vector<std::vector<size_t>> strata;
  // Sharded: fine clustering + CSG folding over min(4, nproc) forked
  // workers of one thread each; otherwise in-process on min(4, nproc)
  // threads.
  bool sharded = false;
};

const std::vector<std::string>& WorkloadNames();
bool FindMineConfig(const std::string& name, MineConfig* config);

// The corpus indices (into the pool) a run with `seed` mines, in order.
std::vector<size_t> DrawCorpora(const MineConfig& config, uint64_t seed);

RunResult RunMine(const MineConfig& config, const RunArgs& args,
                  Provenance* provenance);
RunResult RunWorkload(const RunArgs& args, Provenance* provenance);

// Mines every pool corpus (or, for serve_mix, every budget one-shot) and
// returns "workload key digest" lines for the committed digest table.
std::vector<std::string> RecordDigests(const std::string& workload,
                                       const std::string& workdir);
std::vector<std::string> RecordMineDigests(const MineConfig& config,
                                           const std::string& workdir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
