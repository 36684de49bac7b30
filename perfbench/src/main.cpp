// perfbench: the repository benchmark's load generator.
//
//   perfbench --workload census|paper|serve --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// Runs one workload in this process on a 2-lane thread pool (plus, while
// serving, one reader and one publisher thread), checks its outputs, and
// prints one JSON object as the last stdout line: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are every end-to-end
// figure; with --trace 1 every per-layer figure, from a run that
// alternates untraced and traced iterations (see perfbench/README.md).
// Exits 1 when an output check fails, 2 on bad arguments or an
// unoptimized build.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "anycast/concurrency/thread_pool.hpp"
#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload census|paper|serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  if (argc % 2 == 0) return usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      config.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') return usage("malformed number");
  }
  if (!have_workload || config.work_dir.empty()) {
    return usage("--workload and --work-dir are required");
  }
  if (config.seconds <= 0.0) return usage("--seconds must be positive");

#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("context: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"hardware_threads\": %zu, "
              "\"pool_lanes\": %zu, \"optimized\": %s}\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0,
              anycast::concurrency::default_thread_count(), perfbench::kLanes,
              optimized ? "true" : "false");
  if (!optimized) {
    std::fprintf(stderr, "perfbench: refusing to time an unoptimized build\n");
    return 2;
  }

  std::filesystem::create_directories(config.work_dir);
  perfbench::Ledger ledger;
  try {
    if (config.workload == "census") {
      perfbench::run_census(config, ledger);
    } else if (config.workload == "paper") {
      perfbench::run_paper(config, ledger);
    } else if (config.workload == "serve") {
      perfbench::run_serve(config, ledger);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fflush(stderr);
  std::printf("%s\n", ledger.json().c_str());
  return ledger.correct() && ledger.failed() == 0 ? 0 : 1;
}
