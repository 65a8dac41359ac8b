#include "runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "probe.hpp"
#include "stats.hpp"

namespace pipebench {

Sizes Sizes::smoke() {
  Sizes sizes;
  sizes.mix_pool = 60;
  sizes.sim_nodes = 3000;
  sizes.corpus = 200;
  sizes.novel_pool = 50;
  sizes.serve_lookups = 50;
  sizes.setup_reps = 2;
  return sizes;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"decide_mix", "synth_simulate",
                                                 "store_serve"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Config& config) {
  if (config.workload == "decide_mix") return make_decide_mix(config);
  if (config.workload == "synth_simulate") return make_synth_simulate(config);
  if (config.workload == "store_serve") return make_store_serve(config);
  return nullptr;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {"setup_s", "work_per_s", "op_p50_ms",
                                                 "op_tail_ms", "peak_rss_mb"};
  return names;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

constexpr double kMinSetupSeconds = 1.5;
constexpr std::size_t kMaxSetupReps = 1000;

Report run_untraced(const Config& config, Workload& workload) {
  // Set up at least setup_reps times, and a cheap set-up until the reps
  // add up to kMinSetupSeconds, so its median is not one noisy sample.
  workload.prepare(nullptr);
  std::vector<double> setups;
  double setup_total = 0;
  while (setups.size() < std::max<std::size_t>(1, config.sizes.setup_reps) ||
         (setup_total < kMinSetupSeconds && setups.size() < kMaxSetupReps)) {
    const Clock::time_point t0 = Clock::now();
    workload.setup(nullptr);
    setups.push_back(seconds_between(t0, Clock::now()));
    setup_total += setups.back();
  }
  LoopResult loop = workload.run(nullptr, nullptr);
  // Read before check(), whose fresh classifications and simulations are
  // the benchmark's own work, not the program's.
  const double rss_mb = peak_rss_mb();
  Checks checks;
  workload.check(checks);
  std::vector<Metric> details = workload.details(loop);

  // Little's law over the busy time: each client is always in an op, so
  // clients x work / (sum of op latencies) is the loop's throughput without
  // the idle tail of clients that stopped at the deadline while another
  // finished a long op.
  const double busy_s =
      std::accumulate(loop.latency_ms.begin(), loop.latency_ms.end(), 0.0) / 1e3;
  const double work_per_s =
      busy_s > 0 ? loop.work * static_cast<double>(loop.client_wall_s.size()) / busy_s : 0;
  std::sort(loop.latency_ms.begin(), loop.latency_ms.end());
  const double p50 = percentile_sorted(loop.latency_ms, 50);
  const Tail tail = tail_of_sorted(loop.latency_ms);

  Report report;
  report.attempted = loop.attempted;
  report.failed = loop.failed;
  report.failures = checks.failures;
  report.metrics = {{"setup_s", median(setups), "s"},
                    {"work_per_s", work_per_s, "1/s"},
                    {"op_p50_ms", p50, "ms"},
                    {"op_tail_ms", tail.value, "ms"},
                    {"peak_rss_mb", rss_mb, "MB"}};
  const std::string op = workload.op_name();
  report.details = {
      {std::string(workload.work_name()) + "_per_s", work_per_s, "1/s"},
      {op + "_p50_ms", p50, "ms"},
      {op + "_tail_ms", tail.value, "ms"},
      {op + "_tail_percentile", tail.percentile, "%"},
      {op + "_tail_beyond", static_cast<double>(tail.beyond), "count"},
      {"fail_frac",
       static_cast<double>(loop.failed) /
           static_cast<double>(std::max<std::uint64_t>(1, loop.attempted)),
       "ratio"},
      {"loop_wall_s", loop.wall_s, "s"},
  };
  for (Metric& metric : details) report.details.push_back(std::move(metric));
  workload.teardown();
  return report;
}

Report run_traced(const Config& config, Workload& workload) {
  ThreadTrace setup_trace;
  Checks checks;
  {
    Span root(&setup_trace, SpanKind::kSetup);
    const std::string failure = probe_every_layer(&setup_trace, config.workdir);
    checks.require(failure.empty(), failure);
  }
  workload.prepare(&setup_trace);
  workload.setup(&setup_trace);
  const LoopResult base = workload.run(nullptr, nullptr);
  workload.check(checks);
  workload.prepare_replay();
  std::vector<ThreadTrace> traces(std::max<std::size_t>(1, config.clients));
  const LoopResult traced = workload.run(&base.plan, &traces);
  workload.check(checks);
  workload.teardown();

  setup_trace.fold();
  TraceTotals totals = setup_trace.totals();
  for (ThreadTrace& trace : traces) {
    trace.fold();
    totals.merge(trace.totals());
  }
  const double client_wall =
      std::accumulate(traced.client_wall_s.begin(), traced.client_wall_s.end(), 0.0);
  const double coverage = client_wall > 0 ? totals.request_layer_self_s / client_wall : 0;
  const double overhead = base.wall_s > 0 ? traced.wall_s / base.wall_s : 0;

  Report report;
  report.attempted = base.attempted + traced.attempted;
  report.failed = base.failed + traced.failed;
  report.failures = checks.failures;
  for (std::size_t i = 0; i < kNumSpanKinds; ++i) {
    const auto kind = static_cast<SpanKind>(i);
    if (is_root(kind)) continue;
    report.metrics.push_back({std::string(span_name(kind)) + "_s", totals.self_s[i], "s"});
  }
  const auto parse_calls = totals.calls[static_cast<std::size_t>(SpanKind::kParse)];
  report.metrics.push_back({"lcl.parse_calls", static_cast<double>(parse_calls), "count"});
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    report.metrics.push_back(
        {counter_name(static_cast<Counter>(i)), totals.counters[i], "count"});
  }
  report.metrics.push_back({"trace.coverage", coverage, "ratio"});
  report.metrics.push_back({"trace.overhead", overhead, "ratio"});
  report.details = {{"untraced_wall_s", base.wall_s, "s"},
                    {"traced_wall_s", traced.wall_s, "s"},
                    {"traced_ops", static_cast<double>(traced.attempted), "count"}};
  report.table = format_self_time_table(totals);
  return report;
}

}  // namespace

Report run_benchmark(const Config& config) {
  const std::unique_ptr<Workload> workload = make_workload(config);
  if (workload == nullptr) throw std::invalid_argument("unknown workload " + config.workload);
  return config.trace ? run_traced(config, *workload) : run_untraced(config, *workload);
}

std::string result_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace pipebench
