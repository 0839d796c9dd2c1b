// perfbench_run: one closed-loop benchmark run.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--git-sha <sha>]
//
// Prints a host stamp, the run's operation and check counts, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Workloads: study-temporal, scale-churn, formation-batch.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

int Usage(const std::string& error) {
  std::cerr << "perfbench_run: " << error << "\n"
            << "usage: perfbench_run --workload "
               "<study-temporal|scale-churn|formation-batch> --seed <n> "
               "--seconds <1..600> --trace <0|1> [--git-sha <sha>]\n";
  return 2;
}

/// A fixed amount of integer work; the result is returned so the loop is
/// not optimized away.
std::uint64_t Burn(std::uint64_t iterations) {
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Wall milliseconds of one Burn on each of `threads` threads at once.
double BurnMs(std::size_t threads, std::uint64_t* sink) {
  constexpr std::uint64_t kIterations = 60'000'000;
  std::vector<std::uint64_t> out(threads, 0);
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < threads; ++i) {
      workers.emplace_back([&out, i] { out[i] = Burn(kIterations); });
    }
    for (std::thread& t : workers) t.join();
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  for (const std::uint64_t v : out) *sink ^= v;
  return ms;
}

/// The same fixed burn on one thread and on every core at once, twice:
/// nproc * t1 / tN is the parallelism the host delivers. The first
/// all-core burn starts from idle cores; the second follows it at once.
std::string HostStamp(const std::string& sha) {
  const std::size_t nproc = perfbench::HostThreads();
  std::uint64_t sink = 0;
  const double one_ms = BurnMs(1, &sink);
  const double cold_ms = BurnMs(nproc, &sink);
  const double warm_ms = BurnMs(nproc, &sink);
  const double n = static_cast<double>(nproc);
  std::ostringstream stamp;
  stamp << "host: nproc=" << nproc << " build=" << PERFBENCH_BUILD_TYPE
        << " git_sha=" << sha << " burn_1_thread_ms=" << one_ms
        << " effective_parallelism_first=" << n * one_ms / cold_ms
        << " effective_parallelism_second=" << n * one_ms / warm_ms
        << " (burn checksum " << (sink & 0xFF) << ")";
  return stamp.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const long seconds = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || seconds < 1 || seconds > 600) {
        return Usage("bad --seconds " + value);
      }
      options.seconds = static_cast<int>(seconds);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--git-sha") {
      sha = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.trace) {
    const std::filesystem::path dir = ".bench_traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    options.trace_path = (dir / (options.workload + "-seed" +
                                 std::to_string(options.seed) + ".jsonl"))
                             .string();
  }
  std::unique_ptr<perfbench::Bench> bench = perfbench::MakeWorkload(options);
  if (bench == nullptr) return Usage("unknown workload " + options.workload);

  std::cout << HostStamp(sha) << std::endl;
  const RunResult result = bench->Run();
  for (const std::string& note : result.notes) std::cout << note << "\n";

  std::ostringstream json;
  json.precision(12);
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    json << (i ? ", " : "") << JsonString(m.name) << ": {\"value\": "
         << m.value << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
