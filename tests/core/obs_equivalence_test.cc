// Observability-equivalence suite: attaching an Observer (metrics registry +
// trace sink) to a study must be unobservable in results. For two generation
// seeds, the same ecosystem is analyzed without an observer (serial
// reference) and with one at threads ∈ {1, 4, hardware_concurrency}; the
// JSON/CSV dataset exports must be byte for byte identical in every
// configuration — the same contract the scan-cache and simulation-fixture
// suites prove for their layers. On top of that, the suite pins down what the
// observer must actually have collected: all three cache families published
// as gauges (with a warm validation cache showing real hits on the shared-SDK
// corpus), per-phase histograms, and a trace whose span count grows with the
// corpus.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/export.h"
#include "core/study.h"
#include "obs/obs.h"
#include "testing/fixtures.h"

namespace pinscope::core {
namespace {

Study RunStudy(const store::Ecosystem& eco, int threads,
               obs::Observer* observer) {
  StudyOptions opts;
  opts.threads = threads;
  opts.observer = observer;
  Study study(eco, opts);
  study.Run();
  return study;
}

class ObsEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObsEquivalenceTest, ObserverNeverChangesAnyExportByte) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());

  const Study reference = RunStudy(eco, 1, /*observer=*/nullptr);
  const std::string json = ExportStudyJson(reference);
  const std::string csv = ExportStudyCsv(reference);
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(csv.empty());

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::Observer observer;
    const Study observed = RunStudy(eco, threads, &observer);
    EXPECT_EQ(json, ExportStudyJson(observed));
    EXPECT_EQ(csv, ExportStudyCsv(observed));

    // The observer was not a bystander: every layer reported in.
    const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
    EXPECT_GT(snap.counters.at("study.apps_analyzed"), 0u);
    EXPECT_GT(snap.counters.at("x509.chain_validations"), 0u);
    EXPECT_GT(snap.counters.at("tls.handshakes"), 0u);
    EXPECT_GT(snap.counters.at("net.intercepts"), 0u);
    EXPECT_GT(snap.histograms.at("phase.static").count, 0u);
    EXPECT_GT(snap.histograms.at("phase.dynamic").count, 0u);
    EXPECT_EQ(snap.histograms.at("phase.study").count, 1u);
    EXPECT_GT(observer.trace().EventCount(), 0u);
  }
}

TEST_P(ObsEquivalenceTest, RunPublishesAllThreeCacheFamiliesAsGauges) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  obs::Observer observer;
  (void)RunStudy(eco, 4, &observer);
  const obs::MetricsSnapshot snap = observer.metrics().Snapshot();

  for (const char* family : {"scan", "forged_leaf", "validation"}) {
    SCOPED_TRACE(family);
    const std::string prefix = std::string("cache.") + family + ".";
    ASSERT_TRUE(snap.gauges.count(prefix + "lookups"));
    ASSERT_TRUE(snap.gauges.count(prefix + "hits"));
    ASSERT_TRUE(snap.gauges.count(prefix + "entries"));
    // Books balance: hits + misses == lookups.
    EXPECT_EQ(snap.gauges.at(prefix + "hits") + snap.gauges.at(prefix + "misses"),
              snap.gauges.at(prefix + "lookups"));
  }
  EXPECT_GT(snap.gauges.at("cache.forged_leaf.lookups"), 0u);
  EXPECT_GT(snap.gauges.at("cache.validation.lookups"), 0u);
  // Every file of the study corpus is below kScanCacheMinBytes, so the scan
  // cache publishes its family but is never consulted.
  EXPECT_EQ(snap.gauges.at("cache.scan.lookups"), 0u);
  EXPECT_EQ(snap.gauges.at("cache.scan.entries"), 0u);

  // The study corpus apps share SDK chains, so the validation memo must be warm —
  // the published hit-rate is real, not a zero numerator.
  EXPECT_GT(snap.gauges.at("cache.validation.hits"), 0u);

  // Every memo entry came from an insert.
  EXPECT_LE(snap.gauges.at("cache.validation.entries"),
            snap.gauges.at("cache.validation.inserts"));

  // The same JSON the CLI writes for --metrics-out carries all of it.
  const std::string metrics_json = obs::WriteMetricsJson(snap);
  EXPECT_NE(metrics_json.find("\"cache.scan.hits\""), std::string::npos);
  EXPECT_NE(metrics_json.find("\"cache.forged_leaf.hits\""), std::string::npos);
  EXPECT_NE(metrics_json.find("\"cache.validation.hits\""), std::string::npos);
  EXPECT_NE(metrics_json.find("\"phase.static\""), std::string::npos);
  EXPECT_NE(metrics_json.find("\"phase.dynamic\""), std::string::npos);
}

TEST_P(ObsEquivalenceTest, TraceCoversStudyWorkersAndApps) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  obs::Observer observer;
  (void)RunStudy(eco, 4, &observer);

  const std::string trace = observer.trace().ToJson();
  EXPECT_NE(trace.find("\"study.run\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\": \"app\""), std::string::npos);
  EXPECT_NE(trace.find(".worker\""), std::string::npos);
  EXPECT_NE(trace.find("\"dynamic.mitm\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);

  // Re-running on the same observer appends; the sink is cumulative.
  const std::size_t after_first = observer.trace().EventCount();
  (void)RunStudy(eco, 1, &observer);
  EXPECT_GT(observer.trace().EventCount(), after_first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsEquivalenceTest,
                         ::testing::Values(7u, 23u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
