// Chaos suite for sharded multi-process execution (DESIGN.md §12): the
// backoff policy, the shard planner, the wire protocol, per-cluster shard
// artifacts, the worker session's input checks, and — the acceptance bar —
// that a multi-process run survives every injected kill site (worker death
// before/after its first shipped result, corrupt results, nonzero exits,
// heartbeat hangs, unconditional failure driving quarantine and in-process
// fallback) while producing a selection bit-identical to the in-process
// run, down to the checkpoint bytes the two modes leave behind.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/catapult.h"
#include "src/core/report.h"
#include "src/data/molecule_generator.h"
#include "src/dist/channel.h"
#include "src/dist/net_worker.h"
#include "src/dist/shard_plan.h"
#include "src/dist/wire.h"
#include "src/dist/worker.h"
#include "src/persist/checkpoint.h"
#include "src/persist/codec.h"
#include "src/persist/record_io.h"
#include "src/util/backoff.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#define CATAPULT_DIST_TEST_POSIX 1
#endif

namespace catapult {
namespace {

using dist::PlanShards;
using dist::ShardPlan;
using persist::RecordType;

class DistTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  std::string ScratchDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "catapult_dist_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      "_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }
};

GraphDatabase SmallDb(uint64_t seed = 31, size_t n = 36) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = n;
  gen.min_vertices = 8;
  gen.max_vertices = 14;
  gen.seed = seed;
  return GenerateMoleculeDatabase(gen);
}

CatapultOptions FastOptions() {
  CatapultOptions options;
  options.selector.budget.eta_min = 3;
  options.selector.budget.eta_max = 6;
  options.selector.budget.gamma = 6;
  options.selector.walks_per_candidate = 8;
  options.clustering.max_cluster_size = 10;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 99;
  return options;
}

// Sharded variant of the same configuration. Retries are quick so the
// chaos tests exercise real backoff without slowing the suite down.
CatapultOptions DistOptionsOf(const CatapultOptions& base,
                              size_t processes) {
  CatapultOptions options = base;
  options.processes = processes;
  options.shard_backoff_base_ms = 5.0;
  options.shard_backoff_cap_ms = 40.0;
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

std::string EncodeCsgBytes(const ClusterSummaryGraph& csg) {
  persist::BinaryWriter w;
  persist::EncodeCsg(csg, w);
  return w.TakeBuffer();
}

// The acceptance bar: selection, clusters, and CSGs of a sharded run must
// match the in-process run bit-for-bit, scores included.
void ExpectSameResult(const CatapultResult& expected,
                      const CatapultResult& actual) {
  ASSERT_EQ(expected.clusters, actual.clusters);
  ASSERT_EQ(expected.csgs.size(), actual.csgs.size());
  for (size_t i = 0; i < expected.csgs.size(); ++i) {
    EXPECT_EQ(EncodeCsgBytes(expected.csgs[i]), EncodeCsgBytes(actual.csgs[i]))
        << "csg " << i;
  }
  ASSERT_EQ(expected.selection.patterns.size(),
            actual.selection.patterns.size());
  for (size_t i = 0; i < expected.selection.patterns.size(); ++i) {
    const SelectedPattern& a = expected.selection.patterns[i];
    const SelectedPattern& b = actual.selection.patterns[i];
    EXPECT_EQ(a.graph.DebugString(), b.graph.DebugString()) << "pattern " << i;
    EXPECT_EQ(a.score, b.score) << "pattern " << i;
    EXPECT_EQ(a.ccov, b.ccov) << "pattern " << i;
    EXPECT_EQ(a.lcov, b.lcov) << "pattern " << i;
    EXPECT_EQ(a.div, b.div) << "pattern " << i;
    EXPECT_EQ(a.cog, b.cog) << "pattern " << i;
  }
}

bool HasEvent(const std::vector<dist::ShardEvent>& events,
              dist::ShardEvent::Kind kind) {
  for (const dist::ShardEvent& e : events) {
    if (e.kind == kind) return true;
  }
  return false;
}

// The value of `key=` in an event detail such as "worker=1 clusters=2
// attempt=0", or -1 when absent.
long DetailValue(const std::string& detail, const std::string& key) {
  size_t pos = detail.find(key + "=");
  if (pos == std::string::npos) return -1;
  return std::stol(detail.substr(pos + key.size() + 1));
}

// --- backoff policy ---------------------------------------------------------

TEST(BackoffTest, DeterministicDoublingUpToCap) {
  ExponentialBackoff backoff(25.0, 1000.0);
  EXPECT_EQ(backoff.DelayMs(0), 0.0);  // no failure yet, no wait
  EXPECT_EQ(backoff.DelayMs(1), 25.0);
  EXPECT_EQ(backoff.DelayMs(2), 50.0);
  EXPECT_EQ(backoff.DelayMs(3), 100.0);
  EXPECT_EQ(backoff.DelayMs(6), 800.0);
  EXPECT_EQ(backoff.DelayMs(7), 1000.0);  // capped
  EXPECT_EQ(backoff.DelayMs(40), 1000.0);  // stays capped, no overflow
  // Pure function of the attempt number: replays identically.
  EXPECT_EQ(backoff.DelayMs(3), ExponentialBackoff(25.0, 1000.0).DelayMs(3));
}

TEST(BackoffTest, DegenerateInputsClampSafely) {
  EXPECT_EQ(ExponentialBackoff(0.0, 0.0).DelayMs(5), 0.0);
  EXPECT_EQ(ExponentialBackoff(-10.0, 100.0).DelayMs(3), 0.0);
  EXPECT_EQ(ExponentialBackoff(50.0, 10.0).DelayMs(1), 10.0);  // cap < base
}

// --- shard planner ----------------------------------------------------------

TEST(ShardPlanTest, EveryClusterInExactlyOneShard) {
  std::vector<size_t> sizes = {7, 1, 5, 5, 2, 9, 1, 3};
  ShardPlan plan = PlanShards(sizes, 3);
  EXPECT_EQ(plan.shards.size(), 3u);
  EXPECT_EQ(plan.TotalClusters(), sizes.size());
  std::vector<int> seen(sizes.size(), 0);
  for (const auto& shard : plan.shards) {
    EXPECT_FALSE(shard.empty());
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    for (size_t idx : shard) {
      ASSERT_LT(idx, sizes.size());
      ++seen[idx];
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << i;
}

TEST(ShardPlanTest, BalancesLoadDeterministically) {
  std::vector<size_t> sizes = {10, 10, 10, 1, 1, 1};
  ShardPlan plan = PlanShards(sizes, 3);
  ASSERT_EQ(plan.shards.size(), 3u);
  // LPT: each shard gets one size-10 cluster plus one size-1 cluster.
  for (const auto& shard : plan.shards) {
    size_t load = 0;
    for (size_t idx : shard) load += sizes[idx];
    EXPECT_EQ(load, 11u);
  }
  // Same input, same plan.
  EXPECT_EQ(plan.shards, PlanShards(sizes, 3).shards);
}

TEST(ShardPlanTest, FewerClustersThanShardsYieldsSingletons) {
  ShardPlan plan = PlanShards({4, 2}, 8);
  EXPECT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.TotalClusters(), 2u);
  EXPECT_TRUE(PlanShards({}, 4).shards.empty());
}

// --- wire protocol ----------------------------------------------------------

TEST(WireTest, AllFrameTypesRoundTrip) {
  dist::FrameReader reader;
  std::string stream;
  stream += dist::EncodeFrame(dist::FrameType::kHeartbeat,
                              dist::Encode(dist::HeartbeatFrame{3, 1, 4242}));
  stream += dist::EncodeFrame(dist::FrameType::kHeartbeat,
                              dist::Encode(dist::HeartbeatFrame{3, 17, 2}));
  dist::ShardDoneFrame done{3, 5, std::vector<uint64_t>(obs::kNumCounters, 0)};
  done.counters[2] = 77;
  stream += dist::EncodeFrame(dist::FrameType::kShardDone, dist::Encode(done));
  stream += dist::EncodeFrame(
      dist::FrameType::kShardError,
      dist::Encode(dist::ShardErrorFrame{3, "deadline expired"}));

  reader.Feed(stream.data(), stream.size());

  auto first = reader.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, dist::FrameType::kHeartbeat);
  dist::HeartbeatFrame h;
  ASSERT_TRUE(dist::Decode(first->payload, &h));
  EXPECT_EQ(h.shard, 3u);
  EXPECT_EQ(h.seq, 1u);
  EXPECT_EQ(h.clusters_done, 4242u);

  auto hb = reader.Next();
  ASSERT_TRUE(hb.has_value());
  dist::HeartbeatFrame hbf;
  ASSERT_TRUE(dist::Decode(hb->payload, &hbf));
  EXPECT_EQ(hbf.seq, 17u);

  auto sd = reader.Next();
  ASSERT_TRUE(sd.has_value());
  dist::ShardDoneFrame sdf;
  ASSERT_TRUE(dist::Decode(sd->payload, &sdf));
  EXPECT_EQ(sdf.clusters_done, 5u);
  ASSERT_EQ(sdf.counters.size(), obs::kNumCounters);
  EXPECT_EQ(sdf.counters[2], 77u);

  auto se = reader.Next();
  ASSERT_TRUE(se.has_value());
  dist::ShardErrorFrame sef;
  ASSERT_TRUE(dist::Decode(se->payload, &sef));
  EXPECT_EQ(sef.message, "deadline expired");

  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.corrupt());
}

TEST(WireTest, ByteAtATimeFeedingReassemblesFrames) {
  std::string stream = dist::EncodeFrame(
      dist::FrameType::kHeartbeat, dist::Encode(dist::HeartbeatFrame{1, 2, 3}));
  dist::FrameReader reader;
  size_t frames = 0;
  for (char c : stream) {
    reader.Feed(&c, 1);
    while (reader.Next().has_value()) ++frames;
  }
  EXPECT_EQ(frames, 1u);
  EXPECT_FALSE(reader.corrupt());
}

TEST(WireTest, ChecksumMismatchPoisonsStream) {
  std::string stream = dist::EncodeFrame(
      dist::FrameType::kHeartbeat, dist::Encode(dist::HeartbeatFrame{1, 2, 3}));
  stream[stream.size() - 1] ^= 0x40;  // flip one payload bit
  dist::FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.corrupt());
  // A poisoned reader stays poisoned: no resynchronisation.
  std::string good = dist::EncodeFrame(
      dist::FrameType::kHeartbeat, dist::Encode(dist::HeartbeatFrame{1, 2, 3}));
  reader.Feed(good.data(), good.size());
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(WireTest, BadMagicAndOversizedPayloadPoison) {
  {
    dist::FrameReader reader;
    std::string junk = "not a CTWF frame, definitely";
    reader.Feed(junk.data(), junk.size());
    EXPECT_FALSE(reader.Next().has_value());
    EXPECT_TRUE(reader.corrupt());
  }
  {
    // Valid magic, absurd payload size: corruption, not a huge allocation.
    std::string header = dist::EncodeFrame(dist::FrameType::kHeartbeat, "");
    header[8] = '\xff';
    header[9] = '\xff';
    header[10] = '\xff';
    header[11] = '\x7f';
    dist::FrameReader reader;
    reader.Feed(header.data(), header.size());
    EXPECT_FALSE(reader.Next().has_value());
    EXPECT_TRUE(reader.corrupt());
  }
  // The retired pipe-era types 1 (Hello) and 3 (ClusterDone) are unknown
  // types now: a well-formed frame carrying either poisons the reader.
  for (char retired : {'\x01', '\x03'}) {
    std::string frame = dist::EncodeFrame(dist::FrameType::kHeartbeat, "");
    frame[4] = retired;
    dist::FrameReader reader;
    reader.Feed(frame.data(), frame.size());
    EXPECT_FALSE(reader.Next().has_value());
    EXPECT_TRUE(reader.corrupt());
    EXPECT_EQ(reader.error(), "unknown frame type");
  }
}

TEST(WireTest, TruncatedFrameIsIncompleteNotCorrupt) {
  std::string stream = dist::EncodeFrame(
      dist::FrameType::kShardError,
      dist::Encode(dist::ShardErrorFrame{0, "mid-write death"}));
  dist::FrameReader reader;
  reader.Feed(stream.data(), stream.size() / 2);  // worker died mid-write
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.corrupt());  // dead peer, not a poisoned stream
}

// --- shard artifacts --------------------------------------------------------

class ShardArtifactTest : public DistTest {
 protected:
  // A tiny spec over a fake "coarse partition" of SmallDb, enough to drive
  // ComputeShardCluster / Save / Load directly.
  dist::ShardExecutionSpec MakeSpec(const GraphDatabase& db,
                                    std::vector<std::vector<GraphId>>* coarse,
                                    const std::string& dir) {
    coarse->clear();
    std::vector<GraphId> members;
    for (GraphId g = 0; g < db.size(); ++g) members.push_back(g);
    coarse->push_back(members);
    dist::ShardExecutionSpec spec;
    spec.db = &db;
    spec.coarse = coarse;
    Rng rng(7);
    spec.streams = SplitFineStreams(rng, coarse->size());
    spec.fine.max_cluster_size = 8;
    spec.shard_dir = dir;
    spec.fingerprint = 0xfeedface;
    return spec;
  }
};

TEST_F(ShardArtifactTest, RoundTripsAndValidatesBinding) {
  GraphDatabase db = SmallDb();
  std::vector<std::vector<GraphId>> coarse;
  dist::ShardExecutionSpec spec = MakeSpec(db, &coarse, ScratchDir("rt"));

  dist::ShardClusterResult computed =
      dist::ComputeShardCluster(spec, 0, RunContext::NoLimit());
  ASSERT_TRUE(computed.Complete());
  ASSERT_FALSE(computed.fine_clusters.empty());
  ASSERT_EQ(computed.fine_clusters.size(), computed.csgs.size());
  ASSERT_EQ(dist::SaveShardArtifact(spec, 0, computed), "");

  dist::ShardClusterResult loaded;
  ASSERT_EQ(dist::LoadShardArtifact(spec, 0, &loaded), "");
  EXPECT_EQ(loaded.fine_clusters, computed.fine_clusters);
  ASSERT_EQ(loaded.csgs.size(), computed.csgs.size());
  for (size_t i = 0; i < loaded.csgs.size(); ++i) {
    EXPECT_EQ(EncodeCsgBytes(loaded.csgs[i]), EncodeCsgBytes(computed.csgs[i]));
  }

  // Loading a missing cluster reports, not crashes.
  dist::ShardClusterResult missing;
  EXPECT_NE(dist::LoadShardArtifact(spec, 1, &missing), "");
}

TEST_F(ShardArtifactTest, RejectsArtifactBoundToDifferentCluster) {
  GraphDatabase db = SmallDb();
  std::vector<std::vector<GraphId>> coarse;
  dist::ShardExecutionSpec spec = MakeSpec(db, &coarse, ScratchDir("bind"));
  dist::ShardClusterResult computed =
      dist::ComputeShardCluster(spec, 0, RunContext::NoLimit());
  ASSERT_EQ(dist::SaveShardArtifact(spec, 0, computed), "");

  // Same file, different current membership: the binding check must fire.
  coarse[0].pop_back();
  Rng rng(7);
  spec.streams = SplitFineStreams(rng, coarse.size());
  dist::ShardClusterResult loaded;
  std::string err = dist::LoadShardArtifact(spec, 0, &loaded);
  EXPECT_NE(err, "") << "artifact bound to a different member list accepted";
}

TEST_F(ShardArtifactTest, RejectsCorruptedArtifactBytes) {
  GraphDatabase db = SmallDb();
  std::vector<std::vector<GraphId>> coarse;
  dist::ShardExecutionSpec spec = MakeSpec(db, &coarse, ScratchDir("flip"));
  dist::ShardClusterResult computed =
      dist::ComputeShardCluster(spec, 0, RunContext::NoLimit());
  ASSERT_EQ(dist::SaveShardArtifact(spec, 0, computed), "");

  std::string path = dist::ShardArtifactPath(spec.shard_dir, 0);
  std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x08;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  dist::ShardClusterResult loaded;
  EXPECT_NE(dist::LoadShardArtifact(spec, 0, &loaded), "");
}

// --- end-to-end bit-identity ------------------------------------------------

TEST_F(DistTest, FourProcessRunMatchesInProcessRun) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(expected.execution.dist.enabled);

  CatapultResult actual = RunCatapult(db, DistOptionsOf(base, 4));
  ASSERT_TRUE(actual.ok());
  EXPECT_TRUE(actual.execution.dist.enabled);
  EXPECT_EQ(actual.execution.dist.processes, 4u);
  EXPECT_GT(actual.execution.dist.shards, 0u);
  EXPECT_GE(actual.execution.dist.workers_spawned,
            actual.execution.dist.shards);
  EXPECT_EQ(actual.execution.dist.worker_deaths, 0u);
  EXPECT_EQ(actual.execution.dist.quarantined_shards, 0u);
  ExpectSameResult(expected, actual);
}

TEST_F(DistTest, SamplingPathMatchesToo) {
  GraphDatabase db = SmallDb(/*seed=*/77, /*n=*/60);
  CatapultOptions base = FastOptions();
  base.use_sampling = true;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());
  CatapultResult actual = RunCatapult(db, DistOptionsOf(base, 3));
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);
}

TEST_F(DistTest, MultiThreadWorkersMatchSingleThreadRun) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  base.threads = 1;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  CatapultOptions sharded = DistOptionsOf(base, 2);
  sharded.threads = 4;  // 4 threads inside each worker
  CatapultResult actual = RunCatapult(db, sharded);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(actual.execution.threads, 4u);
  ExpectSameResult(expected, actual);
}

TEST_F(DistTest, CheckpointBytesMatchInProcessRun) {
  GraphDatabase db = SmallDb();
  std::string dir_classic = ScratchDir("classic");
  std::string dir_dist = ScratchDir("dist");

  CatapultOptions base = FastOptions();
  base.checkpoint_dir = dir_classic;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  CatapultOptions sharded = DistOptionsOf(base, 4);
  sharded.checkpoint_dir = dir_dist;
  CatapultResult actual = RunCatapult(db, sharded);
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);

  // The durable artifacts are the strongest identity witness: both modes
  // must leave byte-identical phase checkpoints behind.
  for (RecordType type :
       {RecordType::kClustering, RecordType::kCsgs, RecordType::kSelection}) {
    std::string classic_bytes = ReadFileBytes(
        dir_classic + "/" + CheckpointStore::FileNameFor(type));
    std::string dist_bytes =
        ReadFileBytes(dir_dist + "/" + CheckpointStore::FileNameFor(type));
    ASSERT_FALSE(classic_bytes.empty());
    EXPECT_EQ(classic_bytes, dist_bytes)
        << "checkpoint " << CheckpointStore::FileNameFor(type);
  }

  // A sharded run's checkpoints resume fine under a different process
  // count — the supervision knobs are excluded from the fingerprint.
  CatapultOptions resume = base;
  resume.checkpoint_dir = dir_dist;
  resume.resume = true;
  CatapultResult resumed = RunCatapult(db, resume);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.execution.resumed_from, "selection");
  ExpectSameResult(expected, resumed);
}

// --- chaos: every kill site must recover bit-identically --------------------

class DistChaosTest : public DistTest {
 protected:
  // Runs the sharded pipeline under an armed kill site and asserts recovery
  // reproduced the unperturbed in-process result exactly.
  CatapultResult RunChaos(const std::string& site, long count,
                          size_t processes = 4) {
    GraphDatabase db = SmallDb();
    CatapultOptions base = FastOptions();
    CatapultResult expected = RunCatapult(db, base);
    EXPECT_TRUE(expected.ok());

    failpoint::Arm(site, count);
    CatapultResult actual = RunCatapult(db, DistOptionsOf(base, processes));
    failpoint::DisarmAll();
    EXPECT_TRUE(actual.ok());
    ExpectSameResult(expected, actual);
    return actual;
  }
};

TEST_F(DistChaosTest, RecoversFromKillBeforeCheckpoint) {
  CatapultResult result = RunChaos(dist::kFailpointKillBeforeCheckpoint, -1);
  const dist::DistReport& d = result.execution.dist;
  EXPECT_GE(d.worker_deaths, 1u);
  EXPECT_GE(d.shard_retries, 1u);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerDied));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kShardRetried));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerSpawned));
}

TEST_F(DistChaosTest, RecoversFromKillAfterCheckpointReusingArtifacts) {
  CatapultResult result = RunChaos(dist::kFailpointKillAfterCheckpoint, -1);
  const dist::DistReport& d = result.execution.dist;
  EXPECT_GE(d.worker_deaths, 1u);
  // The killed worker shipped its first cluster before dying, and the
  // supervisor accepted (and checkpointed) it; the retry must be assigned
  // only the clusters still missing, not recompute the shipped one.
  std::vector<long> shard_size(d.shards, -1);
  for (const dist::ShardEvent& e : d.events) {
    if (e.kind == dist::ShardEvent::Kind::kShardCompleted) {
      shard_size[e.shard] = DetailValue(e.detail, "clusters");
    }
  }
  size_t short_retries = 0;
  for (const dist::ShardEvent& e : d.events) {
    if (e.kind != dist::ShardEvent::Kind::kShardAssigned ||
        DetailValue(e.detail, "attempt") < 1) {
      continue;
    }
    ASSERT_GT(shard_size[e.shard], 0) << e.detail;
    EXPECT_LT(DetailValue(e.detail, "clusters"), shard_size[e.shard])
        << e.detail;
    ++short_retries;
  }
  EXPECT_GE(short_retries, 1u);
}

TEST_F(DistChaosTest, RejectsCorruptShardArtifactAndRecomputes) {
  CatapultResult result = RunChaos(dist::kFailpointCorruptShardArtifact, -1);
  const dist::DistReport& d = result.execution.dist;
  EXPECT_GE(d.artifacts_rejected, 1u);
  EXPECT_GE(d.shard_retries, 1u);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kArtifactRejected));
}

TEST_F(DistChaosTest, RecoversFromNonzeroWorkerExit) {
  CatapultResult result = RunChaos(dist::kFailpointExitNonzero, -1);
  const dist::DistReport& d = result.execution.dist;
  EXPECT_GE(d.worker_deaths, 1u);
  EXPECT_GE(d.shard_retries, 1u);
}

TEST_F(DistChaosTest, DetectsHeartbeatHangAndRecovers) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  CatapultOptions sharded = DistOptionsOf(base, 4);
  // Tight deadline so the hung workers are detected quickly; comfortably
  // above the suite's scheduling noise floor.
  sharded.shard_heartbeat_timeout_ms = 250.0;
  failpoint::Arm(dist::kFailpointHangHeartbeat, -1);
  CatapultResult actual = RunCatapult(db, sharded);
  failpoint::DisarmAll();
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);

  const dist::DistReport& d = actual.execution.dist;
  EXPECT_GE(d.worker_hangs, 1u);
  EXPECT_GE(d.shard_retries, 1u);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerHung));
}

TEST_F(DistChaosTest, QuarantinesAfterFailureBudgetAndFallsBackInProcess) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  CatapultOptions sharded = DistOptionsOf(base, 3);
  sharded.max_shard_retries = 2;
  failpoint::Arm(dist::kFailpointFailAlways, -1);  // every attempt fails
  CatapultResult actual = RunCatapult(db, sharded);
  failpoint::DisarmAll();
  ASSERT_TRUE(actual.ok());
  // The last rung of the ladder still reproduces the exact result.
  ExpectSameResult(expected, actual);

  const dist::DistReport& d = actual.execution.dist;
  EXPECT_EQ(d.quarantined_shards, d.shards);
  EXPECT_EQ(d.inprocess_fallbacks, d.shards);
  // Every shard burned its full failure budget: max_shard_retries retries
  // each, every retry after the first failure preceded by a backoff wait.
  EXPECT_EQ(d.shard_retries, d.shards * sharded.max_shard_retries);
  EXPECT_EQ(d.backoff_waits, d.shard_retries);
  EXPECT_GT(d.backoff_total_ms, 0.0);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kShardQuarantined));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kInProcessFallback));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kBackoffWait));
}

// Persist-layer corruption inside the shard namespace: torn artifact writes
// and bit-flipped reads must resolve to a cold shard restart (recompute),
// never a crash — at multi-threaded workers, like production would run.
TEST_F(DistChaosTest, TornShardArtifactWriteResolvesToRestart) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  base.threads = 4;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  failpoint::Arm("persist.torn_write", 1);  // first artifact write per process
  CatapultResult actual = RunCatapult(db, DistOptionsOf(base, 4));
  failpoint::DisarmAll();
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);
  EXPECT_GE(actual.execution.dist.artifacts_rejected, 1u);
}

TEST_F(DistChaosTest, BitFlippedShardArtifactReadResolvesToRestart) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  base.threads = 4;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  failpoint::Arm("persist.bit_flip", 1);  // first artifact read per process
  CatapultResult actual = RunCatapult(db, DistOptionsOf(base, 4));
  failpoint::DisarmAll();
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);
  const dist::DistReport& d = actual.execution.dist;
  EXPECT_GE(d.artifacts_rejected + d.shard_retries, 1u);
}

// --- worker session: hostile supervisor input ------------------------------

#if defined(CATAPULT_DIST_TEST_POSIX)

// Plays supervisor on one end of a socketpair against a forked worker
// session: admits the worker, sends `assign`, and returns the worker's exit
// code (128 + signal when it died by a signal, -1 when it had not exited
// within 10 s).
int SessionExitAfterAssign(const GraphDatabase& db,
                           const dist::ShardAssignFrame& assign) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1;
  pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    failpoint::DisarmAll();
    ::_exit(dist::RunWorkerSession(db, dist::RemoteWorkerOptions{}, fds[1]));
  }
  ::close(fds[1]);
  dist::Channel channel(fds[0]);
  dist::FrameReader reader;
  bool assigned = false;
  int status = 0;
  pid_t rc = 0;
  for (int spin = 0; spin < 10000 && rc == 0; ++spin) {
    channel.DrainInto(&reader);
    while (std::optional<dist::Frame> frame = reader.Next()) {
      if (assigned || frame->type != dist::FrameType::kJoinRequest) continue;
      dist::JoinAcceptFrame accept;
      accept.worker_id = 1;
      accept.generation = 1;
      channel.Send(accept, dist::FrameType::kJoinAccept);
      channel.Send(assign, dist::FrameType::kShardAssign);
      assigned = true;
    }
    rc = ::waitpid(pid, &status, WNOHANG);
    if (rc == 0) ::usleep(1000);
  }
  if (rc == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    return -1;
  }
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}

TEST(DistWorkerSessionTest, RejectsAssignmentsOutsideTheDatabase) {
  GraphDatabase db = SmallDb();
  auto one_cluster = [&](uint64_t index, GraphId member) {
    dist::ShardAssignFrame assign;
    assign.fine_enabled = false;
    dist::ClusterWork work;
    work.index = index;
    work.members = {0, member};
    assign.clusters.push_back(work);
    return assign;
  };
  // A cluster index that would wrap the sparse partition's size to 0.
  EXPECT_EQ(SessionExitAfterAssign(db, one_cluster(UINT64_MAX, 1)),
            dist::kWorkerExitProtocol);
  // A cluster index far past any real partition (would throw bad_alloc).
  EXPECT_EQ(SessionExitAfterAssign(db, one_cluster(uint64_t{1} << 40, 1)),
            dist::kWorkerExitProtocol);
  // A member id past the end of the database.
  EXPECT_EQ(SessionExitAfterAssign(
                db, one_cluster(0, static_cast<GraphId>(db.size()))),
            dist::kWorkerExitProtocol);
  // The same cluster twice in one assignment.
  dist::ShardAssignFrame repeated = one_cluster(2, 1);
  repeated.clusters.push_back(repeated.clusters[0]);
  EXPECT_EQ(SessionExitAfterAssign(db, repeated), dist::kWorkerExitProtocol);
}

// A member whose stream carries a CRC-valid but undecodable frame is
// fenced as a poisoned stream, whatever the frame type; the run still
// completes bit-identically through the fallback.
TEST_F(DistTest, MalformedMemberFramesPoisonTheConnection) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());
  const uint64_t fingerprint = ConfigFingerprint(base, db);
  const std::string dir = ScratchDir("poison");

  const std::pair<dist::FrameType, const char*> inputs[] = {
      {dist::FrameType::kShardError, "bad shard-error"},
      {dist::FrameType::kHeartbeat, "bad heartbeat"},
      {dist::FrameType::kShardDone, "bad shard-done"},
  };
  for (const auto& [type, reason] : inputs) {
    SCOPED_TRACE(reason);
    dist::Address addr;
    std::string error;
    ASSERT_TRUE(dist::ParseAddress("unix:" + dir + "/s.sock", &addr, &error));
    dist::Listener listener;
    ASSERT_EQ(listener.Listen(addr), "");

    // The fake member joins, waits for its assignment, then sends one
    // frame whose payload no decoder accepts.
    std::thread member([&, type = type] {
      int fd = dist::Dial(addr, 2000.0, &error);
      if (fd < 0) return;
      dist::Channel channel(fd);
      dist::JoinRequestFrame join;
      join.fingerprint = fingerprint;
      channel.Send(join, dist::FrameType::kJoinRequest);
      dist::FrameReader reader;
      for (int spin = 0; spin < 20000; ++spin) {
        if (channel.DrainInto(&reader) != dist::Channel::DrainStatus::kOk) {
          return;
        }
        while (std::optional<dist::Frame> frame = reader.Next()) {
          if (frame->type == dist::FrameType::kShardAssign) {
            channel.SendEncoded(dist::EncodeFrame(type, "\x01"));
          }
        }
        ::usleep(1000);
      }
    });

    CatapultOptions sharded = DistOptionsOf(base, 2);
    sharded.dist_listen_fd = listener.fd();
    sharded.dist_join_timeout_ms = 300.0;
    CatapultResult actual = RunCatapult(db, sharded);
    listener.Close();
    member.join();
    ASSERT_TRUE(actual.ok());
    ExpectSameResult(expected, actual);

    bool poisoned = false;
    for (const dist::ShardEvent& e : actual.execution.dist.events) {
      if (e.kind == dist::ShardEvent::Kind::kWorkerFenced &&
          e.detail.find(std::string("poisoned stream: ") + reason) !=
              std::string::npos) {
        poisoned = true;
      }
    }
    EXPECT_TRUE(poisoned);
    EXPECT_GE(actual.execution.dist.worker_deaths, 1u);
  }
}

#endif  // CATAPULT_DIST_TEST_POSIX

// --- supervision under stop requests ----------------------------------------

TEST_F(DistTest, DeadlineDuringShardedPhaseDegradesGracefully) {
  GraphDatabase db = SmallDb(/*seed=*/5, /*n=*/80);
  CatapultOptions options = DistOptionsOf(FastOptions(), 4);
  options.deadline_ms = 30.0;  // expires somewhere inside the pipeline
  CatapultResult result = RunCatapult(db, options);
  ASSERT_TRUE(result.ok());  // partial results, never a crash
  EXPECT_TRUE(result.execution.deadline_set);
}

TEST_F(DistTest, CancellationReapsWorkersAndReturnsPartial) {
  GraphDatabase db = SmallDb(/*seed=*/5, /*n=*/80);
  CatapultOptions options = DistOptionsOf(FastOptions(), 4);
  RunContext ctx = RunContext::NoLimit();
  std::thread canceller([token = ctx.cancel_token()] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    token.Cancel();
  });
  CatapultResult result = RunCatapult(db, options, ctx);
  canceller.join();
  ASSERT_TRUE(result.ok());
  // Whatever phase the cancel landed in, the run wound down cooperatively;
  // no worker process is left behind (the supervisor reaps before exiting,
  // and leaked children would trip the next fork-heavy test anyway).
}

// --- observability ----------------------------------------------------------

TEST_F(DistTest, SupervisionCountersAndReportJsonExposed) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = DistOptionsOf(FastOptions(), 2);
  options.shard_heartbeat_timeout_ms = 150.0;  // ~37ms heartbeat interval
  obs::MetricsRegistry registry;
  RunContext ctx = RunContext::NoLimit().WithObservability(&registry, nullptr);
  CatapultResult result = RunCatapult(db, options, ctx);
  ASSERT_TRUE(result.ok());

  const dist::DistReport& d = result.execution.dist;
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kDistWorkersSpawned),
            d.workers_spawned);
  EXPECT_GE(snap.counter(obs::Counter::kDistWorkersSpawned), d.shards);
  // Forked workers are admitted through the same handshake as remote ones.
  EXPECT_EQ(snap.counter(obs::Counter::kDistNetJoins),
            snap.counter(obs::Counter::kDistWorkersSpawned));
  EXPECT_EQ(snap.counter(obs::Counter::kDistHeartbeats), d.heartbeats);
  // Worker-side counters crossed the process fence: the workers did all the
  // CSG folding, yet the merged registry still saw it.
  EXPECT_GT(snap.counter(obs::Counter::kCsgFolds), 0u);

  // The selection report carries the supervision block for GUI layers.
  LabelMap labels;
  std::string json = SelectionReportJson(result, labels);
  EXPECT_NE(json.find("\"dist\""), std::string::npos);
  EXPECT_NE(json.find("\"workers_spawned\""), std::string::npos);
  EXPECT_NE(json.find("\"quarantined_shards\""), std::string::npos);
}

TEST_F(DistTest, EventLogRendersHumanReadably) {
  dist::ShardEvent event{dist::ShardEvent::Kind::kBackoffWait, 3,
                         "delay_ms=50"};
  std::string text = dist::ToString(event);
  EXPECT_NE(text.find("backoff_wait"), std::string::npos);
  EXPECT_NE(text.find("shard=3"), std::string::npos);
  EXPECT_NE(text.find("delay_ms=50"), std::string::npos);
}

}  // namespace
}  // namespace catapult
