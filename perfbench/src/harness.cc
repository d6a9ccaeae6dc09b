#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "src/obs/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

namespace {

// Zero-based nearest-rank index of the pct percentile among n samples.
size_t NearestRankIndex(size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
  return rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
}

bool Supported(size_t n, double pct) {
  return n > 0 && n - 1 - NearestRankIndex(n, pct) >= kMinSamplesBeyond;
}

}  // namespace

std::optional<double> SupportedPercentile(std::vector<double> samples,
                                          double pct) {
  const size_t n = samples.size();
  if (!Supported(n, pct)) return std::nullopt;
  const size_t idx = NearestRankIndex(n, pct);
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

double HighestSupportedPercentile(size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (Supported(n, pct)) return pct;
  }
  return 0.0;
}

std::vector<ScheduledRequest> PoissonSchedule(double rate_per_s,
                                              double duration_s,
                                              const std::vector<double>& weights,
                                              uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uniform01 = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const size_t n =
      static_cast<size_t>(std::llround(std::max(0.0, rate_per_s * duration_s)));

  // Largest-remainder apportionment of n requests over the weights.
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<size_t> counts(weights.size(), 0);
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t k = 0; k < weights.size(); ++k) {
    const double exact = total > 0.0 ? weights[k] / total * n : 0.0;
    counts[k] = static_cast<size_t>(exact);
    assigned += counts[k];
    remainders.push_back({exact - static_cast<double>(counts[k]), k});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; assigned < n && i < remainders.size(); ++i, ++assigned) {
    ++counts[remainders[i].second];
  }
  std::vector<size_t> kinds;
  kinds.reserve(n);
  for (size_t k = 0; k < counts.size(); ++k) kinds.insert(kinds.end(), counts[k], k);
  for (size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng() % i]);
  }

  std::vector<double> times(kinds.size());
  for (double& t : times) t = uniform01() * duration_s;
  std::sort(times.begin(), times.end());
  std::vector<ScheduledRequest> schedule(kinds.size());
  for (size_t i = 0; i < kinds.size(); ++i) schedule[i] = {times[i], kinds[i]};
  return schedule;
}

std::vector<RequestTiming> RunOpenLoop(
    const std::vector<ScheduledRequest>& schedule,
    const std::vector<size_t>& lane_of_kind,
    const std::vector<size_t>& lane_connections,
    const std::function<bool(size_t, size_t, const ScheduledRequest&)>& send) {
  struct Lane {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<size_t> queue;  // guarded by mutex
    bool closed = false;       // guarded by mutex
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  for (size_t i = 0; i < lane_connections.size(); ++i) {
    lanes.push_back(std::make_unique<Lane>());
  }
  std::vector<RequestTiming> timings(schedule.size());
  const Clock::time_point start = Clock::now();
  auto now_s = [start] { return SecondsBetween(start, Clock::now()); };

  std::vector<std::thread> senders;
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    for (size_t conn = 0; conn < lane_connections[lane]; ++conn) {
      senders.emplace_back([&, lane, conn] {
        Lane& l = *lanes[lane];
        for (;;) {
          size_t index = 0;
          {
            std::unique_lock<std::mutex> lock(l.mutex);
            l.cv.wait(lock, [&l] { return l.closed || !l.queue.empty(); });
            if (l.queue.empty()) return;
            index = l.queue.front();
            l.queue.pop_front();
          }
          RequestTiming& t = timings[index];
          t.sent_s = now_s();
          t.ok = send(lane, conn, schedule[index]);
          t.done_s = now_s();
        }
      });
    }
  }

  for (size_t i = 0; i < schedule.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i].due_s)));
    timings[i].due_s = schedule[i].due_s;
    timings[i].dispatched_s = now_s();
    Lane& l = *lanes[lane_of_kind[schedule[i].kind]];
    {
      std::lock_guard<std::mutex> lock(l.mutex);
      l.queue.push_back(i);
    }
    l.cv.notify_one();
  }
  for (auto& l : lanes) {
    {
      std::lock_guard<std::mutex> lock(l->mutex);
      l->closed = true;
    }
    l->cv.notify_all();
  }
  for (std::thread& t : senders) t.join();
  return timings;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool DigestTable::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, digest;
    if (!(fields >> workload >> key >> digest)) {
      *error = path + ":" + std::to_string(line_no) + ": expected 3 fields";
      return false;
    }
    Set(workload, key, digest);
  }
  return true;
}

void DigestTable::Set(const std::string& workload, const std::string& key,
                      const std::string& digest) {
  entries_[workload + " " + key] = digest;
}

DigestTable::Verdict DigestTable::Check(const std::string& workload,
                                        const std::string& key,
                                        const std::string& digest) const {
  auto it = entries_.find(workload + " " + key);
  if (it == entries_.end()) return Verdict::kMissing;
  return it->second == digest ? Verdict::kMatch : Verdict::kMismatch;
}

namespace {

size_t CountSourceLines(const std::string& src_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  size_t lines = 0;
  for (fs::recursive_directory_iterator it(src_dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& p = it->path();
    if (!it->is_regular_file() ||
        (p.extension() != ".h" && p.extension() != ".cc")) {
      continue;
    }
    std::ifstream in(p, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    lines += static_cast<size_t>(std::count(contents.begin(), contents.end(), '\n'));
  }
  return lines;
}

std::string ReadGitCommit(const std::string& repo_root) {
  auto first_line = [](const std::string& path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
  };
  const std::string git = repo_root + "/.git";
  const std::string head = first_line(git + "/HEAD");
  if (head.empty()) return "none";
  if (head.rfind("ref: ", 0) != 0) return head;  // detached HEAD
  const std::string ref = head.substr(5);
  const std::string loose = first_line(git + "/" + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(git + "/packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    const size_t space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref) {
      return line.substr(0, space);
    }
  }
  return "unknown";
}

}  // namespace

Provenance CollectProvenance(const std::string& repo_root) {
  Provenance p;
  p.nproc = std::thread::hardware_concurrency();
  p.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  p.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  p.compiler = std::string("gcc ") + __VERSION__;
#else
  p.compiler = "unknown";
#endif
  p.git_commit = ReadGitCommit(repo_root);
  p.src_lines = CountSourceLines(repo_root + "/src");
  return p;
}

void RunResult::Problem(const std::string& what) {
  // Keep the report readable when one defect repeats across many requests.
  if (problems.size() < 20) problems.push_back(what);
  else if (problems.size() == 20) problems.push_back("... further problems omitted");
}

std::string ResultJson(const RunResult& result) {
  catapult::obs::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Value(result.correct());
  json.Key("attempted").Value(result.attempted);
  json.Key("failed").Value(result.failed);
  json.Key("metrics").BeginObject();
  for (const Metric& m : result.metrics) {
    json.Key(m.name).BeginObject();
    json.Key("value").Value(m.value);
    json.Key("unit").Value(m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

std::string ProvenanceJson(const Provenance& p) {
  catapult::obs::JsonWriter json;
  json.BeginObject();
  json.Key("provenance").BeginObject();
  json.Key("nproc").Value(static_cast<uint64_t>(p.nproc));
  json.Key("build_type").Value(p.build_type);
  json.Key("compiler").Value(p.compiler);
  json.Key("git_commit").Value(p.git_commit);
  json.Key("workload").Value(p.workload);
  json.Key("seed").Value(p.seed);
  json.Key("threads").Value(static_cast<uint64_t>(p.threads));
  json.Key("processes").Value(static_cast<uint64_t>(p.processes));
  json.Key("src_lines").Value(static_cast<uint64_t>(p.src_lines));
  json.EndObject();
  json.EndObject();
  return json.str();
}

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
