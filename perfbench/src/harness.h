#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Workload-independent pieces of the end-to-end benchmark: sample
// statistics under the percentile rule, seeded open-loop request schedules
// and their due-time accounting, panel digests checked against a committed
// table, provenance, and the result record printed at exit.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Statistics --------------------------------------------------------------

// A tail percentile is reported only when at least this many samples lie
// beyond it; below that it is an anecdote, not a percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// Nearest-rank `pct` percentile (0 < pct < 100) of `samples`, or nullopt when
// fewer than kMinSamplesBeyond samples rank above it.
std::optional<double> SupportedPercentile(std::vector<double> samples,
                                          double pct);

// The highest of 99.9/99/95/90/75/50 that SupportedPercentile supports for
// this sample count, or 0 when even the median is unsupported.
double HighestSupportedPercentile(size_t n);

// --- Open-loop schedules -----------------------------------------------------

// One request of an open-loop schedule: when it is due (seconds from the
// start of the phase) and which entry of the caller's request table it is.
struct ScheduledRequest {
  double due_s = 0.0;
  size_t kind = 0;
};

// A Poisson arrival schedule at `rate_per_s` over `duration_s`, conditioned
// on its request count (round(rate * duration) arrivals at sorted uniform
// times). The request mix is stratified: kind k appears in proportion to
// weights[k] exactly (largest-remainder rounding), in a seeded order, so two
// seeds differ in order and arrival times but not in the mix.
std::vector<ScheduledRequest> PoissonSchedule(double rate_per_s,
                                              double duration_s,
                                              const std::vector<double>& weights,
                                              uint64_t seed);

// What one sent request observed, in seconds from the phase start.
struct RequestTiming {
  double due_s = 0.0;
  double dispatched_s = 0.0;  // handed to its lane by the generator
  double sent_s = 0.0;        // picked up by a connection and sent
  double done_s = 0.0;        // reply received
  bool ok = false;

  // Latency as a user sees it: from when the request was due, so a stall
  // also charges every request that queued behind it.
  double LatencyMs() const { return (done_s - due_s) * 1e3; }
  double GeneratorLateMs() const { return (dispatched_s - due_s) * 1e3; }
  double RoundTripMs() const { return (done_s - sent_s) * 1e3; }
};

// Sends `schedule` open-loop. Each kind maps to a lane (lane_of_kind); each
// lane has its own FIFO and `lane_connections[lane]` sender threads, each
// owning one connection. A generator thread hands every request to its lane
// at its due time whatever the lanes are doing; `send(lane, connection,
// request)` performs one blocking exchange and returns whether it succeeded.
// Returns one timing per scheduled request, in schedule order.
std::vector<RequestTiming> RunOpenLoop(
    const std::vector<ScheduledRequest>& schedule,
    const std::vector<size_t>& lane_of_kind,
    const std::vector<size_t>& lane_connections,
    const std::function<bool(size_t lane, size_t connection,
                             const ScheduledRequest& request)>& send);

// --- Digests -----------------------------------------------------------------

uint64_t Fnv1a64(const std::string& bytes);
std::string Hex64(uint64_t v);

// Committed panel digests, one "workload key hex" line each ('#' comments).
class DigestTable {
 public:
  bool Load(const std::string& path, std::string* error);
  void Set(const std::string& workload, const std::string& key,
           const std::string& digest);

  enum class Verdict { kMatch, kMismatch, kMissing };
  Verdict Check(const std::string& workload, const std::string& key,
                const std::string& digest) const;

  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, std::string> entries_;  // "workload key" -> digest
};

// --- Provenance and results ---------------------------------------------------

// Where and how the numbers were produced: hardware threads, build type,
// compiler, source revision (from .git when the checkout has one), the
// workload seed and parallelism, and the src/ line count.
struct Provenance {
  unsigned nproc = 0;
  std::string build_type;
  std::string compiler;
  std::string git_commit;
  std::string workload;
  uint64_t seed = 0;
  size_t threads = 0;
  size_t processes = 0;
  size_t src_lines = 0;
};

Provenance CollectProvenance(const std::string& repo_root);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's outcome. `problems` lists every correctness failure; any entry
// makes the run incorrect and the command exit non-zero.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  // Human-oriented breakdown lines printed before the result line.
  std::vector<std::string> notes;

  bool correct() const { return problems.empty(); }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Problem(const std::string& what);
};

// The single-line result object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit"}}}
std::string ResultJson(const RunResult& result);
std::string ProvenanceJson(const Provenance& p);

// Peak resident set of this process plus that of its largest reaped child
// (forked shard workers), in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
