#ifndef CATAPULT_DIST_NET_WORKER_H_
#define CATAPULT_DIST_NET_WORKER_H_

#include <cstdint>
#include <string>

#include "src/dist/wire.h"
#include "src/graph/graph_database.h"

// The one shard-worker body (DESIGN.md §12, §14). A worker session
// completes the versioned handshake (protocol + ConfigFingerprint + shard
// namespace; a typed kJoinReject maps to a distinct exit code), then loops:
// receive a ShardAssign carrying coarse clusters and their pre-split rng
// streams, compute each cluster through ComputeShardCluster, and ship each
// result back as a ClusterResult frame, closing the shard with ShardDone.
//
// Two entry points run the same session. RunRemoteWorker is the body of the
// standalone catapult_worker binary: it dials a supervisor endpoint and, on
// a lost or fenced connection, reconnects under capped deterministic
// backoff, presenting its previous (worker-id, generation) so the
// supervisor bumps its generation instead of minting a new member.
// RunWorkerSession is the body of a `--processes` worker the supervisor
// forked onto one end of a socketpair: one session on that fd, no dialing,
// no reconnecting.

namespace catapult::dist {

// Failpoint sites driving the network chaos matrix (tests arm these in
// the worker process; see also the channel-level sites in channel.h).
// None is gated on the attempt: a remote worker's armed table is its own.
inline constexpr char kFailpointDupClusterResult[] =
    "dist.net.dup_cluster_result";
inline constexpr char kFailpointDupShardDone[] = "dist.net.dup_shard_done";
inline constexpr char kFailpointDropMidFrame[] = "dist.net.drop_mid_frame";
inline constexpr char kFailpointDelayHeartbeat[] = "dist.net.delay_heartbeat";
inline constexpr char kFailpointStallBeforeResult[] =
    "dist.net.stall_before_result";
inline constexpr char kFailpointKillAfterFirstResult[] =
    "dist.net.kill_after_first_result";

// Kill sites for forked `--processes` workers. A forked worker inherits the
// supervisor's armed table and its hit-count consumption never propagates
// back, so the sites that should fail *once* are evaluated only when the
// ShardAssign carries attempt == 0: the retry sees the site armed but does
// not evaluate it. `worker.fail_always` has no gate and drives the
// quarantine path. "Checkpoint" names the first ClusterResult: the
// supervisor checkpoints each result it accepts.
inline constexpr char kFailpointKillBeforeCheckpoint[] =
    "worker.kill_before_checkpoint";  // SIGKILL before the first result
inline constexpr char kFailpointKillAfterCheckpoint[] =
    "worker.kill_after_checkpoint";   // SIGKILL after the first result
inline constexpr char kFailpointHangHeartbeat[] =
    "worker.hang_heartbeat";          // silent hang: heartbeats stop too
inline constexpr char kFailpointCorruptShardArtifact[] =
    "worker.corrupt_shard_artifact";  // ship a result bound to another index
inline constexpr char kFailpointExitNonzero[] =
    "worker.exit_nonzero";            // exit without sending a frame
inline constexpr char kFailpointFailAlways[] =
    "worker.fail_always";             // ShardError, then exit

// Worker exit codes.
inline constexpr int kWorkerExitInjected = 12;       // worker.fail_always
inline constexpr int kWorkerExitInjectedExit = 13;   // worker.exit_nonzero
inline constexpr int kWorkerExitConnectFailed = 20;  // dial budget exhausted
inline constexpr int kWorkerExitRejected = 21;       // typed kJoinReject
inline constexpr int kWorkerExitProtocol = 22;       // malformed supervisor
inline constexpr int kWorkerExitLost = 23;  // session fd lost or fenced

struct RemoteWorkerOptions {
  std::string address;  // supervisor endpoint: "unix:PATH" / "tcp:HOST:PORT"
  uint64_t fingerprint = 0;  // ConfigFingerprint of this worker's (opts, db)
  std::string shard_namespace = kShardNamespace;
  std::string worker_name = "worker";
  // Overridable for skew tests; production workers never change this.
  uint64_t protocol = kDistProtocolVersion;

  double dial_timeout_ms = 2000.0;
  double handshake_timeout_ms = 5000.0;
  // Reconnect pacing: capped deterministic backoff over the consecutive-
  // failure count (src/util/backoff.h), reset on every successful join.
  double dial_backoff_base_ms = 50.0;
  double dial_backoff_cap_ms = 1000.0;
  // Consecutive dial/handshake failures tolerated before giving up.
  size_t max_dial_attempts = 5;

  double write_stall_timeout_ms = 5000.0;
  // Size of the session's cluster pool: an assignment's clusters are
  // computed this many at a time, and their results shipped in order.
  size_t worker_threads = 1;
  // How long kFailpointStallBeforeResult sleeps (tests tune this against
  // the supervisor's heartbeat timeout to manufacture a zombie).
  double stall_test_ms = 0.0;

  // Optional worker-local telemetry capture (both non-owning, may be null),
  // backing the worker binary's --metrics-out/--trace-out: every carried
  // shard's metrics deltas merge into `accumulate`, and its span buffer is
  // also imported into `local_tracer` (one process track per shard), so a
  // fleet run without the admin endpoint still leaves per-process
  // artifacts. Touched only from the worker's session thread.
  obs::MetricsSnapshot* accumulate = nullptr;
  obs::Tracer* local_tracer = nullptr;
};

// Runs the remote worker until the supervisor says the run is over
// (Shutdown kDone/kCancelled → 0), the handshake is refused, or the
// reconnect budget is exhausted. Returns the process exit code.
int RunRemoteWorker(const GraphDatabase& db,
                    const RemoteWorkerOptions& options);

// Runs one worker session over `fd`, an already-connected stream socket
// whose other end is the supervisor (takes ownership). `options.address`
// and the dial/reconnect fields are unused. Returns the process exit code:
// 0 on Shutdown kDone/kCancelled, kWorkerExitLost when the connection is
// lost or fenced, or the handshake/protocol codes above.
int RunWorkerSession(const GraphDatabase& db,
                     const RemoteWorkerOptions& options, int fd);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_NET_WORKER_H_
