#include "src/dist/net_worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/dist/channel.h"
#include "src/dist/worker.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/backoff.h"
#include "src/util/deadline.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>
#define CATAPULT_DIST_NET_POSIX 1
#endif

namespace catapult::dist {

#if defined(CATAPULT_DIST_NET_POSIX)

namespace {

using Clock = std::chrono::steady_clock;

void SleepMillis(double ms) {
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

// Blocks until the next complete frame, EOF/error, or `timeout_ms`
// (<= 0 = wait forever). `*lost` is set when the connection is unusable.
std::optional<Frame> WaitFrame(Channel& channel, FrameReader& reader,
                               double timeout_ms, bool* lost) {
  *lost = false;
  Clock::time_point deadline =
      timeout_ms > 0.0
          ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   timeout_ms))
          : Clock::time_point::max();
  for (;;) {
    if (std::optional<Frame> frame = reader.Next()) return frame;
    if (reader.corrupt() || channel.fd() < 0) {
      *lost = true;
      return std::nullopt;
    }
    Clock::time_point now = Clock::now();
    if (now >= deadline) return std::nullopt;
    double wait_ms = 500.0;
    if (deadline != Clock::time_point::max()) {
      double remaining =
          std::chrono::duration<double, std::milli>(deadline - now).count();
      wait_ms = std::min(wait_ms, std::max(remaining, 1.0));
    }
    struct pollfd pfd = {channel.fd(), POLLIN, 0};
    int rc = ::poll(&pfd, 1, static_cast<int>(wait_ms));
    if (rc < 0 && errno != EINTR) {
      *lost = true;
      return std::nullopt;
    }
    Channel::DrainStatus status = channel.DrainInto(&reader);
    if (status == Channel::DrainStatus::kEof) {
      // The peer's close may trail a final complete frame.
      if (std::optional<Frame> frame = reader.Next()) return frame;
      *lost = true;
      return std::nullopt;
    }
    if (status == Channel::DrainStatus::kError) {
      *lost = true;
      return std::nullopt;
    }
  }
}

// True when every cluster index and member id of `assign` is below
// `db_size` and no index repeats. Checked before anything is sized from the
// assignment: the sparse partition below is indexed by cluster index, and
// ComputeShardCluster indexes the database by member id.
bool AssignmentFits(const ShardAssignFrame& assign, size_t db_size) {
  std::vector<bool> seen(db_size, false);
  for (const ClusterWork& c : assign.clusters) {
    if (c.index >= db_size || seen[c.index]) return false;
    seen[c.index] = true;
    for (GraphId id : c.members) {
      if (id >= db_size) return false;
    }
  }
  return true;
}

// Carries one ShardAssign (already bounds-checked by AssignmentFits):
// computes every cluster, `pool.num_threads()` at a time, and ships the
// results in assignment order. Returns true while the connection is still
// usable, false when it was (deliberately or not) lost and the caller
// should reconnect.
bool CarryShard(const GraphDatabase& db, const RemoteWorkerOptions& options,
                const ShardAssignFrame& assign, Channel& channel,
                ThreadPool& pool, obs::MetricsRegistry& metrics,
                std::atomic<uint64_t>& clusters_done) {
  size_t max_index = 0;
  for (const ClusterWork& c : assign.clusters) {
    max_index = std::max(max_index, static_cast<size_t>(c.index));
  }
  // Sparse rebuild of the supervisor's coarse partition: only the assigned
  // indices are populated, which is all ComputeShardCluster ever touches.
  std::vector<std::vector<GraphId>> coarse(max_index + 1);
  ShardExecutionSpec spec;
  spec.streams.resize(max_index + 1);
  for (const ClusterWork& c : assign.clusters) {
    coarse[c.index] = c.members;
    spec.streams[c.index] = c.stream;
  }
  spec.db = &db;
  spec.coarse = &coarse;
  spec.fine_enabled = assign.fine_enabled;
  spec.fine.max_cluster_size = assign.fine_max_cluster_size;
  spec.fine.mcs.connected = assign.mcs_connected;
  spec.fine.mcs.match_edge_labels = assign.mcs_match_edge_labels;
  spec.fine.mcs.node_budget = assign.mcs_node_budget;
  spec.fingerprint = options.fingerprint;

  MemoryBudget budget =
      (assign.mem_soft_limit_bytes != 0 || assign.mem_hard_limit_bytes != 0)
          ? MemoryBudget::Limited(assign.mem_soft_limit_bytes,
                                  assign.mem_hard_limit_bytes)
          : MemoryBudget::Unlimited();
  Deadline deadline = assign.deadline_remaining_ms > 0.0
                          ? Deadline::AfterMillis(assign.deadline_remaining_ms)
                          : Deadline::Infinite();
  RunContext ctx = RunContext(deadline).WithMemory(std::move(budget));
  spec.deadline = deadline;

  // Spans are recorded per cluster. With a 1-thread pool every span opens
  // on this session thread, so span ids and tick consumption are
  // deterministic for a given assignment — the basis for byte-stable
  // merged traces under fixed clock ticks.
  obs::Tracer tracer;
  obs::Tracer* span_sink =
      assign.trace_id != 0 || options.local_tracer != nullptr ? &tracer
                                                              : nullptr;
  // One-shot kill sites fire on a shard's first attempt only (net_worker.h).
  const bool first_attempt = assign.attempt == 0;

  bool first_result = true;
  const size_t wave = pool.num_threads();
  std::vector<ShardClusterResult> results;
  for (size_t i = 0; i < assign.clusters.size(); ++i) {
    if (i % wave == 0) {
      // Compute the next `wave` clusters at once, one per pool thread.
      results.assign(std::min(wave, assign.clusters.size() - i), {});
      pool.ParallelFor(
          results.size(), 1,
          [&](size_t k) {
            size_t idx = static_cast<size_t>(assign.clusters[i + k].index);
            obs::Span cluster_span(span_sink,
                                   "cluster-" + std::to_string(idx));
            results[k] = ComputeShardCluster(spec, idx, ctx);
          },
          &metrics);
    }
    size_t idx = static_cast<size_t>(assign.clusters[i].index);
    const ShardClusterResult& result = results[i % wave];
    if (!result.Complete()) {
      // Degraded work never ships: the supervisor retries elsewhere or
      // degrades under its own context via the fallback ladder.
      channel.Send(ShardErrorFrame{assign.shard,
                                   "cluster " + std::to_string(idx) +
                                       " degraded (stop requested)"},
                   FrameType::kShardError);
      return true;  // connection is fine; supervisor decides what's next
    }
    ClusterResultFrame out;
    out.shard = assign.shard;
    out.generation = assign.generation;
    out.cluster_index = idx;
    out.payload = EncodeShardResultPayload(spec, idx, result);
    if (first_result && first_attempt &&
        CATAPULT_FAILPOINT(kFailpointCorruptShardArtifact)) {
      // Bind the payload to a neighbouring cluster index: the frame decodes
      // and the envelope CRC will match, so only the supervisor's binding
      // check can catch it.
      out.payload[0] = static_cast<char>(out.payload[0] ^ 0x01);
    }
    std::string bytes = EncodeFrame(FrameType::kClusterResult, Encode(out));

    if (first_result && first_attempt &&
        CATAPULT_FAILPOINT(kFailpointKillBeforeCheckpoint)) {
      ::raise(SIGKILL);
    }
    if (first_result && CATAPULT_FAILPOINT(kFailpointStallBeforeResult)) {
      // Hold every frame (results and, by test arrangement, heartbeats)
      // past the supervisor's deadline: by the time these bytes land the
      // generation is fenced and they must be counted, not applied.
      SleepMillis(options.stall_test_ms);
    }
    if (CATAPULT_FAILPOINT(kFailpointDropMidFrame)) {
      // Die halfway through a frame: the supervisor sees a truncated
      // buffer (dead peer, not corruption) and reassigns the shard.
      size_t half = bytes.size() / 2;
      size_t sent = 0;
      while (sent < half) {
        ssize_t n = ::send(channel.fd(), bytes.data() + sent, half - sent,
                           MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<size_t>(n);
      }
      channel.Close();
      return false;
    }
    if (!channel.SendEncoded(bytes)) return false;
    if (CATAPULT_FAILPOINT(kFailpointDupClusterResult)) {
      // Duplicate delivery (e.g. an ambiguous timeout followed by a
      // resend): the supervisor must treat results as idempotent.
      channel.SendEncoded(bytes);
    }
    if (first_result &&
        (CATAPULT_FAILPOINT(kFailpointKillAfterFirstResult) ||
         (first_attempt &&
          CATAPULT_FAILPOINT(kFailpointKillAfterCheckpoint)))) {
      ::raise(SIGKILL);
    }
    first_result = false;
    clusters_done.fetch_add(1, std::memory_order_relaxed);
  }

  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  ShardDoneFrame done;
  done.shard = assign.shard;
  done.clusters_done = assign.clusters.size();
  done.counters.assign(snapshot.counters.begin(), snapshot.counters.end());
  done.trace_id = assign.trace_id;
  std::vector<obs::SpanRecord> spans;
  if (span_sink != nullptr) spans = tracer.DrainSpans();
  if (assign.trace_id != 0) done.spans = spans;
  std::string done_bytes = EncodeFrame(FrameType::kShardDone, Encode(done));
  bool sent = channel.SendEncoded(done_bytes);
  if (sent && CATAPULT_FAILPOINT(kFailpointDupShardDone)) {
    // At-least-once completion delivery: the supervisor must merge this
    // shard's spans and counters exactly once, not twice.
    channel.SendEncoded(done_bytes);
  }
  // Worker-local capture for --metrics-out/--trace-out: the same deltas and
  // spans the supervisor merges, kept per process.
  if (options.accumulate != nullptr) options.accumulate->MergeFrom(snapshot);
  if (options.local_tracer != nullptr && !spans.empty()) {
    const int pid = static_cast<int>(2 + assign.shard);
    options.local_tracer->SetProcessName(
        pid, "catapult shard " + std::to_string(assign.shard));
    options.local_tracer->ImportShardSpans(
        spans, pid, 0, "shard-" + std::to_string(assign.shard), 0);
  }
  // Counters are per-shard deltas; a member carrying several shards must
  // not re-ship the first shard's work.
  metrics.Reset();
  return sent;
}

// One connected session: handshake already accepted; heartbeats + shard
// carrying until shutdown or connection loss. Returns the process exit
// code, or -1 to reconnect.
int RunSession(const GraphDatabase& db, const RemoteWorkerOptions& options,
               Channel& channel, FrameReader& reader,
               const JoinAcceptFrame& accept) {
  obs::MetricsRegistry metrics;
  obs::ScopedMetricsScope metrics_scope(&metrics);
  // Worker-local pool, created after any fork: every thread this session
  // computes on is its own.
  ThreadPool pool(options.worker_threads);

  std::atomic<uint64_t> clusters_done{0};
  std::atomic<uint64_t> current_shard{0};
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool stop_heartbeat = false;
  std::thread heartbeat([&] {
    uint64_t seq = 0;
    auto interval = std::chrono::duration<double, std::milli>(
        std::max(accept.heartbeat_interval_ms, 1.0));
    std::unique_lock<std::mutex> lock(hb_mutex);
    while (!stop_heartbeat) {
      if (CATAPULT_FAILPOINT(kFailpointDelayHeartbeat)) {
        // A long GC-style pause on the heartbeat path: silent well past
        // the supervisor's deadline, then business as usual.
        lock.unlock();
        SleepMillis(accept.heartbeat_timeout_ms * 2.5);
        lock.lock();
        if (stop_heartbeat) break;
      }
      HeartbeatFrame hb;
      hb.shard = current_shard.load(std::memory_order_relaxed);
      hb.seq = seq++;
      hb.clusters_done = clusters_done.load(std::memory_order_relaxed);
      channel.Send(hb, FrameType::kHeartbeat);
      hb_cv.wait_for(lock, interval, [&] { return stop_heartbeat; });
    }
  });
  auto stop_hb = [&] {
    {
      std::lock_guard<std::mutex> lock(hb_mutex);
      stop_heartbeat = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  };

  for (;;) {
    bool lost = false;
    std::optional<Frame> frame = WaitFrame(channel, reader, 0.0, &lost);
    if (lost || channel.failed()) {
      stop_hb();
      return -1;
    }
    if (!frame.has_value()) continue;
    switch (frame->type) {
      case FrameType::kShardAssign: {
        ShardAssignFrame assign;
        if (!Decode(frame->payload, &assign) ||
            !AssignmentFits(assign, db.size())) {
          stop_hb();
          return kWorkerExitProtocol;
        }
        const bool first_attempt = assign.attempt == 0;
        if (first_attempt && CATAPULT_FAILPOINT(kFailpointHangHeartbeat)) {
          // A wedged worker: alive as a process, silent on the socket,
          // making no progress. Only the heartbeat deadline can clear it.
          stop_hb();
          for (;;) ::pause();
        }
        if (CATAPULT_FAILPOINT(kFailpointFailAlways)) {
          channel.Send(ShardErrorFrame{assign.shard,
                                       "injected: worker.fail_always"},
                       FrameType::kShardError);
          stop_hb();
          return kWorkerExitInjected;
        }
        if (first_attempt && CATAPULT_FAILPOINT(kFailpointExitNonzero)) {
          stop_hb();
          return kWorkerExitInjectedExit;  // abnormal exit, no result frame
        }
        current_shard.store(assign.shard, std::memory_order_relaxed);
        if (!CarryShard(db, options, assign, channel, pool, metrics,
                        clusters_done)) {
          stop_hb();
          return -1;
        }
        break;
      }
      case FrameType::kShutdown: {
        ShutdownFrame f;
        if (!Decode(frame->payload, &f)) {
          stop_hb();
          return kWorkerExitProtocol;
        }
        stop_hb();
        if (f.code == static_cast<uint32_t>(ShutdownCode::kFenced)) {
          return -1;  // reconnect and rejoin at a bumped generation
        }
        return 0;  // kDone / kCancelled: clean exit
      }
      default:
        break;  // nothing else is addressed to an active worker
    }
  }
}

// Sends the JoinRequest over a connected `channel` and waits for the
// verdict. Returns 0 with `*accept` filled when admitted, -1 when the
// connection failed before a verdict (worth another dial), or the exit
// code for a verdict retrying cannot change.
int Join(const RemoteWorkerOptions& options, uint64_t prev_worker_id,
         uint64_t prev_generation, Channel& channel, FrameReader& reader,
         JoinAcceptFrame* accept) {
  JoinRequestFrame req;
  req.protocol = options.protocol;
  req.fingerprint = options.fingerprint;
  req.shard_namespace = options.shard_namespace;
  req.worker_name = options.worker_name;
  req.prev_worker_id = prev_worker_id;
  req.prev_generation = prev_generation;
  req.pid = static_cast<uint64_t>(::getpid());
  if (!channel.Send(req, FrameType::kJoinRequest)) return -1;
  bool lost = false;
  std::optional<Frame> reply =
      WaitFrame(channel, reader, options.handshake_timeout_ms, &lost);
  if (!reply.has_value()) return -1;
  if (reply->type == FrameType::kJoinReject) {
    return kWorkerExitRejected;  // typed refusal: retrying cannot help
  }
  if (reply->type != FrameType::kJoinAccept) return kWorkerExitProtocol;
  if (!Decode(reply->payload, accept)) return kWorkerExitProtocol;
  return 0;
}

}  // namespace

int RunRemoteWorker(const GraphDatabase& db,
                    const RemoteWorkerOptions& options) {
  ::signal(SIGPIPE, SIG_IGN);
  Address addr;
  std::string err;
  if (!ParseAddress(options.address, &addr, &err)) {
    return kWorkerExitConnectFailed;
  }
  ExponentialBackoff backoff(options.dial_backoff_base_ms,
                             options.dial_backoff_cap_ms);
  uint64_t prev_worker_id = 0;
  uint64_t prev_generation = 0;
  size_t failures = 0;
  for (;;) {
    if (failures > options.max_dial_attempts) return kWorkerExitConnectFailed;
    // Deterministic capped pacing: attempt n always waits the same delay,
    // whatever generation the worker is rejoining at.
    SleepMillis(backoff.DelayMs(failures));
    std::string dial_err;
    int fd = Dial(addr, options.dial_timeout_ms, &dial_err);
    if (fd < 0) {
      ++failures;
      continue;
    }
    Channel channel(fd, options.write_stall_timeout_ms);
    FrameReader reader;
    JoinAcceptFrame accept;
    int joined = Join(options, prev_worker_id, prev_generation, channel,
                      reader, &accept);
    if (joined < 0) {
      ++failures;
      continue;
    }
    if (joined > 0) return joined;
    failures = 0;
    prev_worker_id = accept.worker_id;
    prev_generation = accept.generation;
    int session = RunSession(db, options, channel, reader, accept);
    if (session >= 0) return session;
    ++failures;  // lost or fenced: reconnect with the previous identity
  }
}

int RunWorkerSession(const GraphDatabase& db,
                     const RemoteWorkerOptions& options, int fd) {
  ::signal(SIGPIPE, SIG_IGN);
  Channel channel(fd, options.write_stall_timeout_ms);
  FrameReader reader;
  JoinAcceptFrame accept;
  int joined = Join(options, 0, 0, channel, reader, &accept);
  if (joined < 0) return kWorkerExitLost;
  if (joined > 0) return joined;
  int session = RunSession(db, options, channel, reader, accept);
  return session >= 0 ? session : kWorkerExitLost;
}

#else  // !CATAPULT_DIST_NET_POSIX

int RunRemoteWorker(const GraphDatabase&, const RemoteWorkerOptions&) {
  return kWorkerExitConnectFailed;
}

int RunWorkerSession(const GraphDatabase&, const RemoteWorkerOptions&, int) {
  return kWorkerExitLost;
}

#endif  // CATAPULT_DIST_NET_POSIX

}  // namespace catapult::dist
