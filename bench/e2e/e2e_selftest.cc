// Self-tests of the end-to-end benchmark: its percentile rule, the
// stability of its seeded inputs, and every workload end to end at a tiny
// scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "corpus/lexicon.h"
#include "corpus/text_generator.h"
#include "e2e_lib.h"
#include "workloads.h"

namespace wsie::e2e {
namespace {

TEST(PercentileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.75), 4.0);
}

TEST(PercentileTest, TailKeepsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(TailLevel(0), 0.5);
  EXPECT_DOUBLE_EQ(TailLevel(39), 0.5);
  EXPECT_DOUBLE_EQ(TailLevel(40), 0.75);
  EXPECT_DOUBLE_EQ(TailLevel(100), 0.9);
  EXPECT_DOUBLE_EQ(TailLevel(199), 0.9);
  EXPECT_DOUBLE_EQ(TailLevel(200), 0.95);
  EXPECT_DOUBLE_EQ(TailLevel(999), 0.95);
  EXPECT_DOUBLE_EQ(TailLevel(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailLevel(1000000), 0.99);
  for (size_t n = 20; n <= 3000; ++n) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
    const Timing timing = Summarize(values);
    const size_t beyond = static_cast<size_t>(
        std::count_if(values.begin(), values.end(),
                      [&](double v) { return v > timing.tail; }));
    ASSERT_GE(beyond, 10u) << "n=" << n;
  }
}

TEST(InputsTest, StreamsAndCorporaAreStablePerSeed) {
  const QueryMix mix({"alpha", "beta", "gamma delta", "epsilon", "zeta"}, 2);
  Fnv a, b, c;
  for (const auto& request : mix.Stream(1, 500)) a.Str(HttpTarget(request));
  for (const auto& request : mix.Stream(1, 500)) b.Str(HttpTarget(request));
  for (const auto& request : mix.Stream(2, 500)) c.Str(HttpTarget(request));
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());

  const corpus::EntityLexicons lexicons;
  auto corpus_digest = [&](uint64_t seed) {
    corpus::TextGenerator generator(
        &lexicons, corpus::ProfileFor(corpus::CorpusKind::kMedline), seed);
    Fnv fnv;
    for (const auto& doc : generator.GenerateCorpus(1000000, 50)) fnv.Str(doc.text);
    return fnv.value();
  };
  EXPECT_EQ(corpus_digest(1), corpus_digest(1));
  EXPECT_NE(corpus_digest(1), corpus_digest(2));
}

RunResult RunSmall(const std::string& workload, uint64_t seed, size_t dop) {
  RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 1.2;
  options.scale = 0.02;
  options.dop = dop;
  options.setup_reps = 1;
  options.work_dir = "e2e_selftest_work";
  return RunWorkload(options);
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, ChecksPassAndAnswersDoNotDependOnDop) {
  const RunResult serial = RunSmall(GetParam(), 3, 1);
  const RunResult parallel = RunSmall(GetParam(), 3, 4);
  for (const RunResult* result : {&serial, &parallel}) {
    EXPECT_TRUE(result->correct);
    for (const auto& check : result->failed_checks) ADD_FAILURE() << check;
    EXPECT_EQ(result->failed, 0u);
    EXPECT_GT(result->attempted, 0u);
    EXPECT_GT(result->metrics.at("ops_per_s").value, 0.0);
    EXPECT_GT(result->metrics.at("latency_mean_ms").value, 0.0);
  }
  EXPECT_EQ(serial.digest, parallel.digest);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::ValuesIn(WorkloadNames()));

TEST(SeedTest, AnswerDigestDependsOnTheSeed) {
  EXPECT_NE(RunSmall("abstract_ingest", 3, 4).digest,
            RunSmall("abstract_ingest", 4, 4).digest);
}

}  // namespace
}  // namespace wsie::e2e
