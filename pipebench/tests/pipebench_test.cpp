// Unit tests of the benchmark itself: seeded inputs repeat, the tail rule
// and the span self-time arithmetic hold, and every workload passes a
// tiny-size run with all output checks on, traced and untraced.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "generate.hpp"
#include "lcl/serialize.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pipebench {
namespace {

TEST(Generators, SameSeedSameInputs) {
  const auto texts = [](const std::vector<GeneratedProblem>& problems) {
    std::vector<std::string> out;
    for (const GeneratedProblem& p : problems) out.push_back(p.text);
    return out;
  };
  EXPECT_EQ(texts(decide_mix_inputs(7, 50)), texts(decide_mix_inputs(7, 50)));
  EXPECT_NE(texts(decide_mix_inputs(7, 50)), texts(decide_mix_inputs(8, 50)));
  EXPECT_EQ(texts(synth_inputs()), texts(synth_inputs()));
  const StoreInputs a = store_inputs(7, 100, 20);
  const StoreInputs b = store_inputs(7, 100, 20);
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.novel, b.novel);
  EXPECT_NE(a.corpus, store_inputs(8, 100, 20).corpus);
  EXPECT_EQ(seeded_order(7, 2, 30), seeded_order(7, 2, 30));
}

TEST(Generators, NovelProblemsAreNotInTheCorpus) {
  const StoreInputs inputs = store_inputs(3, 300, 100);
  ASSERT_EQ(inputs.novel.size(), 100u);
  std::set<std::string> corpus;
  for (const std::string& text : inputs.corpus) {
    corpus.insert(lclpath::canonical_key(lclpath::parse_problem(text)));
  }
  std::set<std::string> novel;
  for (const std::string& text : inputs.novel) {
    const std::string key = lclpath::canonical_key(lclpath::parse_problem(text));
    EXPECT_EQ(corpus.count(key), 0u);
    EXPECT_TRUE(novel.insert(key).second);
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Stats, MedianAndNearestRank) {
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(percentile_sorted(ramp(100), 50), 50);
  EXPECT_EQ(percentile_sorted(ramp(100), 99), 99);
  EXPECT_EQ(percentile_sorted(ramp(10), 75), 8);
}

TEST(Stats, TailIsHighestLadderStepWithTenBeyond) {
  Tail t = tail_of_sorted(ramp(1000));  // p99: rank 990, 10 beyond
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  t = tail_of_sorted(ramp(999));  // p99 leaves 9 beyond: p90
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.value, 900);
  EXPECT_EQ(t.beyond, 99u);
  t = tail_of_sorted(ramp(77));  // p90 leaves 7, p85 leaves 11
  EXPECT_EQ(t.percentile, 85);
  EXPECT_EQ(t.value, 66);
  EXPECT_EQ(t.beyond, 11u);
  t = tail_of_sorted(ramp(40));  // p90 leaves 4, p85 6, p80 8, p75 10
  EXPECT_EQ(t.percentile, 75);
  EXPECT_EQ(t.beyond, 10u);
  t = tail_of_sorted(ramp(20));  // only p50 qualifies
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.value, 10);
}

TEST(Stats, TailWithTooFewSamplesIsTheMaximum) {
  Tail t = tail_of_sorted(ramp(19));
  EXPECT_EQ(t.percentile, 100);
  EXPECT_EQ(t.value, 19);
  EXPECT_EQ(t.beyond, 0u);
  t = tail_of_sorted({});
  EXPECT_EQ(t.percentile, 0);
  EXPECT_EQ(t.value, 0);
}

SpanRecord span(std::int64_t start, std::int64_t end, std::int32_t parent,
                SpanKind kind = SpanKind::kParse) {
  return {start, end, 0, parent, kind};
}

TEST(Trace, SelfTimeSubtractsChildren) {
  // root [0,100) with children [10,30) and [50,60); grandchild [12,20).
  const std::vector<SpanRecord> spans = {span(0, 100, -1, SpanKind::kRequest), span(10, 30, 0),
                                         span(12, 20, 1), span(50, 60, 0)};
  EXPECT_EQ(self_times_ns(spans), (std::vector<std::int64_t>{70, 12, 8, 10}));
}

TEST(Trace, OverlappingAndOverhangingChildrenCountOnce) {
  // Children [10,40) and [30,50) overlap; [90,120) sticks out of the
  // parent [0,100); [150,160) lies outside it entirely.
  const std::vector<SpanRecord> spans = {span(0, 100, -1, SpanKind::kRequest), span(30, 50, 0),
                                         span(10, 40, 0), span(90, 120, 0), span(150, 160, 0)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
}

TEST(Trace, FoldAccumulatesPerKindAndRequestCoverage) {
  ThreadTrace trace;
  {
    Span request(&trace, SpanKind::kRequest);
    Span parse(&trace, SpanKind::kParse);
  }
  {
    Span setup(&trace, SpanKind::kSetup);
    Span classify(&trace, SpanKind::kClassify);
  }
  trace.add(Counter::kNodes, 5);
  trace.add(Counter::kNodes, 7);
  trace.add(Counter::kThreadsUsed, 4);
  trace.add(Counter::kThreadsUsed, 2);
  trace.fold();
  const TraceTotals& t = trace.totals();
  EXPECT_EQ(t.calls[static_cast<std::size_t>(SpanKind::kParse)], 1u);
  EXPECT_EQ(t.calls[static_cast<std::size_t>(SpanKind::kClassify)], 1u);
  EXPECT_EQ(t.counter(Counter::kNodes), 12);
  EXPECT_EQ(t.counter(Counter::kThreadsUsed), 4);
  // Only the parse span sits under a request root.
  EXPECT_DOUBLE_EQ(t.request_layer_self_s, t.self(SpanKind::kParse));
}

class Smoke : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override { std::filesystem::remove_all(workdir_); }

  Config smoke_config(bool trace) {
    Config config;
    config.workload = GetParam();
    config.seed = 11;
    config.seconds = 0.3;
    config.trace = trace;
    config.clients = 2;
    config.workdir = workdir_.string();
    config.sizes = Sizes::smoke();
    std::filesystem::create_directories(config.workdir);
    return config;
  }

 private:
  const std::filesystem::path workdir_ =
      std::filesystem::temp_directory_path() /
      ("pipebench-test-" + std::to_string(::getpid()));
};

TEST_P(Smoke, UntracedRunPassesEveryCheck) {
  const Report report = run_benchmark(smoke_config(false));
  for (const std::string& failure : report.failures) ADD_FAILURE() << failure;
  EXPECT_GT(report.attempted, 0u);
  EXPECT_EQ(report.failed, 0u);
  ASSERT_EQ(report.metrics.size(), end_to_end_names().size());
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    EXPECT_EQ(report.metrics[i].name, end_to_end_names()[i]);
    EXPECT_GT(report.metrics[i].value, 0) << report.metrics[i].name;
  }
  if (GetParam() == "decide_mix") {
    // The catalog's Theta(log* n) verdicts always get their synthesized
    // algorithm run in its structured regime.
    const auto checked = std::find_if(report.details.begin(), report.details.end(),
                                      [](const Metric& m) { return m.name == "synth_checked"; });
    ASSERT_NE(checked, report.details.end());
    EXPECT_GT(checked->value, 0);
  }
}

TEST_P(Smoke, TracedRunReportsEveryLayerMetric) {
  const Report report = run_benchmark(smoke_config(true));
  for (const std::string& failure : report.failures) ADD_FAILURE() << failure;
  EXPECT_EQ(report.failed, 0u);
  std::set<std::string> names;
  for (const Metric& metric : report.metrics) names.insert(metric.name);
  EXPECT_EQ(names.size(), report.metrics.size());
  for (const char* name : {"lcl.parse_s", "lcl.parse_calls", "trace.coverage",
                           "trace.overhead", "store.commit_s", "local.nodes"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
  const auto value = [&](const std::string& name) {
    for (const Metric& metric : report.metrics) {
      if (metric.name == name) return metric.value;
    }
    return -1.0;
  };
  // The set-up probe times every layer, so no per-layer time reads 0.
  for (const Metric& metric : report.metrics) {
    if (metric.unit == "s") {
      EXPECT_GT(metric.value, 0) << metric.name;
    }
  }
  EXPECT_GT(value("trace.coverage"), 0);
  EXPECT_LE(value("trace.coverage"), 1.0001);
  EXPECT_GT(value("trace.overhead"), 0);
  EXPECT_GT(value("lcl.parse_calls"), 0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke, ::testing::ValuesIn(workload_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Result, JsonLineHasTheFourKeys) {
  Report report;
  report.attempted = 3;
  report.metrics = {{"setup_s", 0.25, "s"}};
  EXPECT_EQ(result_json(report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
  report.failures.push_back("x");
  EXPECT_EQ(result_json(report).rfind("{\"correct\": false", 0), 0u);
}

}  // namespace
}  // namespace pipebench
