// Scheduler-equivalence suite (DESIGN.md §13): the schedule is a pure
// execution-order change. For every cell of the grid
//   seeds {7, 23} × threads {1, 4, hardware_concurrency} × driver
//   {Study::Run, RunStreamingStudy}
// the run must reproduce the golden digests in tests/golden/ of
//   (a) the JSON and CSV dataset exports,
//   (b) the decision-journal JSONL (full kDebug fidelity), and
//   (c) the run-report Markdown + JSON (built from verdicts + journal — the
//       wall-clock metrics section describes the run, not the results, so
//       it is excluded by construction),
// byte for byte. Queue depth is also proven immaterial to results, and the
// sched.* metrics are checked to be real (tasks counted, peak depth bounded
// by the configured capacity) without ever touching an exported byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/export.h"
#include "core/study.h"
#include "obs/obs.h"
#include "testing/fixtures.h"
#include "testing/golden.h"

namespace pinscope::core {
namespace {

using pinscope::testing::DigestLines;
using pinscope::testing::ReadStudyGolden;
using pinscope::testing::RunStudyArtifacts;

struct RunConfig {
  int threads = 1;
  std::size_t queue_depth = 0;
  bool streamed = false;
};

std::string RunDigests(const store::Ecosystem& eco, const RunConfig& config,
                       obs::Observer* observer = nullptr) {
  StudyOptions opts;
  opts.threads = config.threads;
  opts.queue_depth = config.queue_depth;
  opts.observer = observer;
  return DigestLines(RunStudyArtifacts(eco, opts, config.streamed));
}

class SchedEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedEquivalenceTest, EveryConfigurationMatchesTheGoldenDigests) {
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  const std::string golden = ReadStudyGolden(GetParam());

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    for (const bool streamed : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " streamed=" + std::to_string(streamed));
      EXPECT_EQ(golden,
                RunDigests(eco, {.threads = threads, .streamed = streamed}));
    }
  }
}

TEST_P(SchedEquivalenceTest, QueueDepthNeverChangesAByte) {
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  const std::string golden = ReadStudyGolden(GetParam());
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2},
                                  std::size_t{64}}) {
    SCOPED_TRACE("queue_depth=" + std::to_string(depth));
    EXPECT_EQ(golden, RunDigests(eco, {.threads = 4, .queue_depth = depth}));
  }
}

TEST_P(SchedEquivalenceTest, SchedMetricsAreRealAndPurelyObservational) {
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  obs::Observer observer;
  EXPECT_EQ(ReadStudyGolden(GetParam()),
            RunDigests(eco, {.threads = 4, .queue_depth = 2}, &observer));

  const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
  // Four stages per app (hydrate, static, dynamic, verdict): the task
  // counter must cover the whole corpus.
  ASSERT_TRUE(snap.counters.count("sched.tasks"));
  EXPECT_EQ(snap.counters.at("sched.tasks"),
            4 * snap.counters.at("study.apps_analyzed"));
  EXPECT_EQ(snap.counters.at("sched.failures"), 0u);  // clean run
  // The configured capacity is a hard bound on the observed peak.
  ASSERT_TRUE(snap.gauges.count("sched.queue_peak_depth"));
  EXPECT_LE(snap.gauges.at("sched.queue_peak_depth"), 2u);
}

TEST_P(SchedEquivalenceTest, StreamedResultsMatchExportedVerdictSet) {
  // on_result streams in completion order; collected and re-sorted it must
  // be exactly the exported verdict set.
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  std::mutex mu;
  std::vector<std::string> streamed;
  StudyOptions opts;
  opts.threads = 4;
  opts.on_result = [&](AppResult&& r) {
    std::lock_guard<std::mutex> lock(mu);
    streamed.push_back(r.app->meta.app_id);
  };
  Study study(eco, opts);
  study.Run();

  std::vector<std::string> exported;
  for (const report::AppVerdict& v : CollectAppVerdicts(study)) {
    exported.push_back(v.app_id);
  }
  std::sort(streamed.begin(), streamed.end());
  std::sort(exported.begin(), exported.end());
  EXPECT_EQ(streamed, exported);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedEquivalenceTest,
                         ::testing::Values(7u, 23u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
