// Self-tests of the benchmark harness: the percentile rule, open-loop
// due-time accounting under an injected stall, digest-mismatch detection,
// and a run on a held-out seed.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 19; ++i) samples.push_back(i);
  EXPECT_FALSE(SupportedPercentile(samples, 50.0).has_value());
  samples.push_back(20);
  ASSERT_TRUE(SupportedPercentile(samples, 50.0).has_value());
  EXPECT_EQ(*SupportedPercentile(samples, 50.0), 10.0);

  std::vector<double> many(999, 1.0);
  EXPECT_FALSE(SupportedPercentile(many, 99.0).has_value());
  EXPECT_EQ(HighestSupportedPercentile(many.size()), 95.0);
  many.push_back(2.0);
  EXPECT_TRUE(SupportedPercentile(many, 99.0).has_value());
  EXPECT_EQ(HighestSupportedPercentile(many.size()), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(5), 0.0);
}

TEST(PoissonSchedule, StratifiedMixAndSeededOrder) {
  const std::vector<double> weights = {0.75, 0.25};
  const auto a = PoissonSchedule(40.0, 10.0, weights, 1);
  const auto b = PoissonSchedule(40.0, 10.0, weights, 2);
  ASSERT_EQ(a.size(), 400u);
  ASSERT_EQ(b.size(), 400u);
  size_t cold_a = 0, cold_b = 0;
  bool same_order = true;
  for (size_t i = 0; i < a.size(); ++i) {
    cold_a += a[i].kind;
    cold_b += b[i].kind;
    same_order = same_order && a[i].kind == b[i].kind;
    if (i > 0) {
      EXPECT_LE(a[i - 1].due_s, a[i].due_s);
    }
    EXPECT_GE(a[i].due_s, 0.0);
    EXPECT_LT(a[i].due_s, 10.0);
  }
  EXPECT_EQ(cold_a, 100u);
  EXPECT_EQ(cold_b, 100u);
  EXPECT_FALSE(same_order);
  const auto again = PoissonSchedule(40.0, 10.0, weights, 1);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, again[i].due_s);
    EXPECT_EQ(a[i].kind, again[i].kind);
  }
}

// One connection, a request every 10 ms, and a first exchange that stalls
// for 200 ms: the requests queued behind the stall are charged the wait from
// their due time, while the generator itself keeps to the schedule.
TEST(OpenLoop, StallIsChargedFromDueTime) {
  std::vector<ScheduledRequest> schedule;
  for (int i = 0; i < 30; ++i) schedule.push_back({0.010 * i, 0});
  const auto timings = RunOpenLoop(
      schedule, {0}, {1}, [](size_t, size_t, const ScheduledRequest& r) {
        if (r.due_s == 0.0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        return true;
      });
  ASSERT_EQ(timings.size(), schedule.size());
  // Request 5 was due at 50 ms and could not be sent before ~200 ms.
  EXPECT_GE(timings[5].LatencyMs(), 140.0);
  EXPECT_LT(timings[5].RoundTripMs(), 40.0);
  for (const RequestTiming& t : timings) {
    EXPECT_TRUE(t.ok);
    EXPECT_LT(t.GeneratorLateMs(), 40.0);
  }
  // Once the backlog drains, latency returns to the exchange time.
  EXPECT_LT(timings.back().LatencyMs(), 40.0);
}

MineConfig TinyConfig() {
  MineConfig c;
  c.name = "mine_tiny";
  c.graphs_per_corpus = 40;
  c.pool_size = 3;
  c.strata = {{0, 1}, {2}};
  c.pool_seed_base = 77;
  c.eta_min = 3;
  c.eta_max = 4;
  c.gamma = 3;
  return c;
}

DigestTable RecordedTable(const MineConfig& config, const std::string& dir) {
  DigestTable table;
  for (const std::string& line : RecordMineDigests(config, dir)) {
    std::istringstream fields(line);
    std::string workload, key, digest;
    fields >> workload >> key >> digest;
    table.Set(workload, key, digest);
  }
  return table;
}

RunArgs TinyArgs(const DigestTable* table, uint64_t seed) {
  RunArgs args;
  args.workload = "mine_tiny";
  args.seed = seed;
  args.seconds = 0.0;  // one pass over the drawn corpora
  args.workdir = "perfbench_selftest_work";
  args.results_dir = "perfbench_selftest_work";
  args.digests = table;
  std::filesystem::create_directories(args.workdir);
  return args;
}

TEST(Digests, MismatchFailsTheRun) {
  const MineConfig config = TinyConfig();
  const RunArgs probe = TinyArgs(nullptr, 5);
  DigestTable table = RecordedTable(config, probe.workdir);
  ASSERT_EQ(table.size(), config.pool_size);
  RunArgs args = TinyArgs(&table, 5);
  Provenance provenance;
  const RunResult good = RunMine(config, args, &provenance);
  EXPECT_TRUE(good.correct());
  EXPECT_EQ(good.failed, 0u);
  EXPECT_EQ(good.attempted, config.strata.size());

  const size_t first = DrawCorpora(config, 5).front();
  table.Set(config.name, "c" + std::to_string(first), "0000000000000000");
  const RunResult bad = RunMine(config, args, &provenance);
  EXPECT_FALSE(bad.correct());
  EXPECT_GE(bad.failed, 1u);

  DigestTable empty;
  args.digests = &empty;
  const RunResult missing = RunMine(config, args, &provenance);
  EXPECT_FALSE(missing.correct());
  EXPECT_EQ(missing.failed, missing.attempted);
}

// A seed never used while the benchmark was tuned still draws its corpora
// from the recorded pool and passes the gate.
TEST(Digests, HeldOutSeedRunIsCorrect) {
  const MineConfig config = TinyConfig();
  const RunArgs probe = TinyArgs(nullptr, 0);
  const DigestTable table = RecordedTable(config, probe.workdir);
  const uint64_t held_out = 987654321987ULL;
  Provenance provenance;
  const RunResult r = RunMine(config, TinyArgs(&table, held_out), &provenance);
  EXPECT_TRUE(r.correct());
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.attempted, config.strata.size());
  for (const std::string name : {"setup_s", "mine_s", "req_p50_ms",
                                 "cold_p50_ms", "peak_rss_mb"}) {
    bool found = false;
    for (const Metric& m : r.metrics) {
      if (m.name == name) {
        found = true;
        EXPECT_GT(m.value, 0.0) << name;
      }
    }
    EXPECT_TRUE(found) << name;
  }
}

// The committed table covers every corpus any seed can draw, and every
// served budget.
TEST(Digests, CommittedTableCoversEveryPoolEntry) {
  DigestTable table;
  std::string error;
  ASSERT_TRUE(table.Load(std::string(PERFBENCH_SOURCE_DIR) + "/digests.txt",
                         &error))
      << error;
  for (const std::string& name : WorkloadNames()) {
    MineConfig config;
    if (!FindMineConfig(name, &config)) continue;
    for (size_t i = 0; i < config.pool_size; ++i) {
      EXPECT_NE(table.Check(name, "c" + std::to_string(i), "?"),
                DigestTable::Verdict::kMissing)
          << name << " c" << i;
    }
  }
  for (size_t eta_max = 4; eta_max <= 6; ++eta_max) {
    for (size_t gamma = 3; gamma <= 8; ++gamma) {
      const std::string key = "3-" + std::to_string(eta_max) + "-" +
                              std::to_string(gamma);
      EXPECT_NE(table.Check("serve_mix", key, "?"),
                DigestTable::Verdict::kMissing)
          << key;
    }
  }
}

}  // namespace
}  // namespace perfbench
