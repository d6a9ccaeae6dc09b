// End-to-end benchmark program.
//
//   catapult_perfbench --workload NAME --seed N --seconds S --trace 0|1
//       [--workdir DIR] [--results-dir DIR] [--repo DIR] [--digests FILE]
//   catapult_perfbench --record-digests NAME --workdir DIR
//
// Prints a provenance line, breakdown lines ("# ..."), and as its last line
// the result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 1 the metrics are the per-layer table of a traced run, and the
// Chrome trace and layer table are written under --results-dir. Exits 1
// when any panel or reply is wrong, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "catapult_perfbench: %s\nusage: catapult_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--results-dir DIR] [--repo DIR] [--digests FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("expected --flag value pairs");
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("expected --flag value pairs");
  auto get = [&flags](const std::string& k, const std::string& def) {
    auto it = flags.find(k);
    return it == flags.end() ? def : it->second;
  };

  perfbench::RunArgs args;
  args.workdir = get("workdir", args.workdir);
  args.results_dir = get("results-dir", args.results_dir);
  args.repo_root = get("repo", args.repo_root);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  std::filesystem::create_directories(args.results_dir, ec);

  if (flags.count("record-digests")) {
    for (const std::string& line :
         perfbench::RecordDigests(flags["record-digests"], args.workdir)) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }

  args.workload = get("workload", "");
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == args.workload;
  }
  if (!known) return Usage("unknown or missing --workload");
  args.seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
  args.seconds = std::atof(get("seconds", "10").c_str());
  args.trace = get("trace", "0") == "1";
  if (args.seconds < 0.0) return Usage("--seconds must be >= 0");

  perfbench::DigestTable digests;
  std::string error;
  if (!digests.Load(get("digests", args.repo_root + "/perfbench/digests.txt"),
                    &error)) {
    return Usage(error.c_str());
  }
  args.digests = &digests;

  perfbench::Provenance provenance =
      perfbench::CollectProvenance(args.repo_root);
  const perfbench::RunResult result =
      perfbench::RunWorkload(args, &provenance);

  const std::string provenance_json = perfbench::ProvenanceJson(provenance);
  const std::string result_json = perfbench::ResultJson(result);
  std::printf("%s\n", provenance_json.c_str());
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  const std::string record = args.results_dir + "/" + args.workload +
                             "-seed" + std::to_string(args.seed) +
                             (args.trace ? "-traced" : "") + "-result.json";
  if (FILE* f = std::fopen(record.c_str(), "w")) {
    std::fprintf(f, "%s\n%s\n", provenance_json.c_str(), result_json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result_json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
