// pipebench: one workload of the lclpath pipeline benchmark per process.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Prints the build and machine it measured on, the metrics under their
// workload-specific names, any failed output check (stderr), and as the
// last stdout line one JSON object {correct, attempted, failed, metrics}.
// Exit status: 0 when every output check passed, 1 when one failed, 2 for
// usage errors and for builds it refuses to measure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "runner.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif
#else
constexpr bool kSanitizerMacro = false;
#endif

#ifdef LCLPATH_FAULT_INJECTION
constexpr bool kFaultInjection = true;
#else
constexpr bool kFaultInjection = false;
#endif

/// Empty when this binary is a plain Release build; otherwise why not.
std::string refused_build() {
  if (std::strcmp(PIPEBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("build type is '") + PIPEBENCH_BUILD_TYPE + "', not Release";
  }
  if (PIPEBENCH_SANITIZED != 0 || kSanitizerMacro) return "built with a sanitizer";
  if (kFaultInjection) return "built with LCLPATH_FAULT_INJECTION";
  return "";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {decide_mix|synth_simulate|store_serve} "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n",
               argv0);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pipebench;
  Config config;
  config.workdir = ".bench_build/work";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed" && parse_number(value, &number) && number >= 0) {
      config.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds" && parse_number(value, &number) && number > 0) {
      config.seconds = number;
    } else if (arg == "--trace" && (value == std::string("0") || value == std::string("1"))) {
      config.trace = value[0] == '1';
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else {
      return usage(argv[0]);
    }
  }
  const std::vector<std::string>& names = workload_names();
  if (!have_seed || std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return usage(argv[0]);
  }

  const std::string refused = refused_build();
  if (!refused.empty()) {
    std::fprintf(stderr, "pipebench: refusing to measure: %s\n", refused.c_str());
    return 2;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  config.clients = nproc == 0 ? 1 : nproc;
  std::filesystem::create_directories(config.workdir);

  std::printf("pipebench workload=%s seed=%llu seconds=%g trace=%d nproc=%u build=%s\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, nproc, PIPEBENCH_BUILD_TYPE);
  Report report;
  try {
    report = run_benchmark(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
  for (const Metric& metric : report.details) {
    std::printf("  %-32s %14.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const Metric& metric : report.metrics) {
    std::printf("  %-32s %14.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::fputs(report.table.c_str(), stdout);
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "pipebench: CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", result_json(report).c_str());
  return report.correct() ? 0 : 1;
}
