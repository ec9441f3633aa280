// Shared types of the end-to-end benchmark: run arguments, the result
// every workload returns, and small measurement helpers.
#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace e2e {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout for segment files; created
  /// and removed by the run.
  std::string workdir;
  /// Where the traced run writes its spans.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `correct` covers every operation that
/// did not fail; `errors` holds the first few mismatches for stderr.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    Note(why);
  }
  void Note(const std::string& why) {
    if (errors.size() < 20) errors.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since `t0` (NowNs()).
inline double Since(int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// Wall time of each set-up step: index (or seed) the corpus, flush it
/// to segment files, load the segments, start servers and connect.
struct SetupTimes {
  double index = 0, flush = 0, load = 0, connect = 0;
  double total() const { return index + flush + load + connect; }
};

/// Adds the median set-up time (end-to-end) or the median of each step
/// (per-layer) over the run's set-ups.
void AddSetupMetrics(const std::vector<SetupTimes>& setups, bool per_layer,
                     RunResult* result);

/// Resident set size of this process in MB (/proc/self/statm).
double ResidentMb();

/// Number of set-ups per run; set_up_s is their median.
inline constexpr int kSetups = 3;

/// Resident memory of the live heap: free heap pages are handed back
/// first (malloc_trim), so memory the set-up freed, such as an
/// indexer's working set, does not count.
inline double LiveResidentMb() {
  malloc_trim(0);
  return ResidentMb();
}

/// Sets a stack up kSetups times from scratch with build(stack, times,
/// attempt) and keeps the first one. The first runs in the process as
/// the inputs left it, so that the memory it and `warm_up(stack)` add
/// can be read (returned through `rss_mb`) before the others are built
/// and torn down beside it.
template <typename Stack, typename Build, typename WarmUp>
dls::Status RepeatedSetUp(const Build& build, const WarmUp& warm_up,
                          std::unique_ptr<Stack>* stack,
                          std::vector<SetupTimes>* times, double* rss_mb) {
  times->assign(kSetups, SetupTimes{});
  const double rss_before = LiveResidentMb();
  *stack = std::make_unique<Stack>();
  DLS_RETURN_IF_ERROR(build(stack->get(), &(*times)[0], 0));
  warm_up(stack->get());
  *rss_mb = LiveResidentMb() - rss_before;
  for (int attempt = 1; attempt < kSetups; ++attempt) {
    auto extra = std::make_unique<Stack>();
    DLS_RETURN_IF_ERROR(build(extra.get(), &(*times)[attempt], attempt));
  }
  return dls::Status::Ok();
}

/// Nearest-rank quantile of an unsorted sample (copied); 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// CPU time (user + system) this process has used, in seconds.
double ProcessCpuSeconds();

/// Client connections and threads the load generator may use: the
/// machine's processor count, at most 4.
size_t ClientConnections();

/// Removes a directory tree (best effort) and recreates it empty.
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);

/// Bytes of all regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

RunResult RunTextWorkload(const Args& args, bool hot);
RunResult RunLiveWorkload(const Args& args);
RunResult RunFederatedWorkload(const Args& args);

}  // namespace e2e

#endif  // E2EBENCH_BENCH_H_
