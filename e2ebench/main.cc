// End-to-end search benchmark.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir>
//
// Builds the serving stack of the named workload from the synthetic
// generators, drives it over localhost TCP, checks every answer, and
// prints one JSON object as its last line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.h"

namespace e2e {

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

size_t ClientConnections() {
  const size_t n = std::thread::hardware_concurrency();
  return std::clamp<size_t>(n, 1, 4);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void ResetDir(const std::string& dir) {
  RemoveDir(dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void AddSetupMetrics(const std::vector<SetupTimes>& setups, bool per_layer,
                     RunResult* result) {
  std::vector<double> total, index, flush, load, connect;
  for (const SetupTimes& t : setups) {
    total.push_back(t.total());
    index.push_back(t.index);
    flush.push_back(t.flush);
    load.push_back(t.load);
    connect.push_back(t.connect);
  }
  if (!per_layer) {
    result->Add("setup_s", Median(total), "s");
    return;
  }
  result->Add("setup.index_s", Median(index), "s");
  result->Add("setup.flush_s", Median(flush), "s");
  result->Add("setup.load_s", Median(load), "s");
  result->Add("setup.connect_s", Median(connect), "s");
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"serve_rss_mb", "MB"},
    {"index_bytes_per_posting", "bytes"},
};

constexpr MetricSpec kPerLayer[] = {
    {"e2e.p50_ms", "ms"},
    {"e2e.p99_ms", "ms"},
    {"e2e.peak_qps", "queries/s"},
    {"e2e.cpu_ms_per_query", "ms"},
    {"client.lateness_ms_p99", "ms"},
    {"serve.frontend_us_p50", "us"},
    {"serve.client_wire_us_p50", "us"},
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p99", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.batch_riders", "queries/batch"},
    {"serve.epoch_changes", "count"},
    {"serve.cache_warmed", "count"},
    {"serve.stale_served", "count"},
    {"net.backend_us_p50", "us"},
    {"net.backend_us_p99", "us"},
    {"net.exchange_us_p50", "us"},
    {"net.exchange_us_p99", "us"},
    {"net.shard_handle_us_p50", "us"},
    {"net.shard_handle_us_p99", "us"},
    {"net.wire_decode_us", "us"},
    {"net.wire_encode_us", "us"},
    {"net.bytes_per_query", "bytes"},
    {"net.messages_per_query", "count"},
    {"net.hedges_per_query", "count"},
    {"net.failovers", "count"},
    {"ir.eval_us_p50", "us"},
    {"ir.eval_us_p99", "us"},
    {"ir.postings_per_query", "count"},
    {"ir.blocks_decoded_per_query", "count"},
    {"ir.blocks_skipped_per_query", "count"},
    {"ingest.docs_per_s", "docs/s"},
    {"ingest.insert_us_p50", "us"},
    {"ingest.insert_us_p99", "us"},
    {"ingest.delete_us_p50", "us"},
    {"ingest.delete_us_p99", "us"},
    {"ingest.merges", "count"},
    {"ingest.delta_docs", "count"},
    {"federate.text_us", "us"},
    {"federate.webspace_us", "us"},
    {"federate.cobra_us", "us"},
    {"federate.candidates_per_query", "docs"},
    {"setup.index_s", "s"},
    {"setup.flush_s", "s"},
    {"setup.load_s", "s"},
    {"setup.connect_s", "s"},
    {"path.generator_us", "us"},
    {"path.client_wire_us", "us"},
    {"path.frontend_us", "us"},
    {"path.backend_us", "us"},
    {"path.exchange_us", "us"},
    {"path.shard_us", "us"},
    {"trace.p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.self_sum_over_p50", "ratio"},
    {"trace.requests", "count"},
    {"trace.full_paths", "count"},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0;
}

/// The metrics of the mode, in declaration order; a per-layer metric
/// the workload does not exercise reads 0.
template <size_t N>
bool Select(const MetricSpec (&specs)[N], bool fill_missing,
            RunResult* result) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const Metric* found = nullptr;
    for (const Metric& m : result->metrics) {
      if (m.name == spec.name) found = &m;
    }
    if (found == nullptr && !fill_missing) {
      std::fprintf(stderr, "metric %s not measured\n", spec.name);
      return false;
    }
    double value = found != nullptr ? found->value : 0.0;
    if (!std::isfinite(value)) value = 0.0;
    out.push_back({spec.name, value, spec.unit});
  }
  result->metrics = std::move(out);
  return true;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <text_open|text_hot|live_churn|"
                 "federated> --seed <n> --seconds <s> --trace <0|1> "
                 "--workdir <dir>\n");
    return 2;
  }
  const std::string root = args.workdir;
  args.workdir = root + "/run-" + std::to_string(::getpid());
  args.trace_out = root + "/spans-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".tsv";
  ResetDir(args.workdir);

  RunResult result;
  if (args.workload == "text_open") {
    result = RunTextWorkload(args, /*hot=*/false);
  } else if (args.workload == "text_hot") {
    result = RunTextWorkload(args, /*hot=*/true);
  } else if (args.workload == "live_churn") {
    result = RunLiveWorkload(args);
  } else if (args.workload == "federated") {
    result = RunFederatedWorkload(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    RemoveDir(args.workdir);
    return 2;
  }
  RemoveDir(args.workdir);

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::fprintf(stderr, "  %-32s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (result.attempted == 0 ||
      (args.trace ? !Select(kPerLayer, true, &result)
                  : !Select(kEndToEnd, false, &result))) {
    std::fprintf(stderr, "run produced no result\n");
    return 1;
  }
  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
