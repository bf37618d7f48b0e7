// Equivalence suite for the connection-simulation fixtures: the study-wide
// proxy + root stores + forged-leaf cache + chain-validation memo must be
// unobservable in results. Every study shares them; the oracle is the
// fixture-less path, RunDynamicAnalysis without DynamicOptions::fixtures
// (what `pinscope audit` runs), which builds a private proxy and root
// stores per app. For several generation seeds, each app's exported rows
// from the study must equal the rows of that fixture-less, cache-free path,
// at threads ∈ {1, 4, hardware_concurrency} — the same contract the
// scan-cache suite proves for the static layer. A pin-dense synthetic
// stream, whose large payloads the scan cache does hold, checks the two
// layers together against the same oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/corpus_source.h"
#include "core/export.h"
#include "core/stream_export.h"
#include "core/stream_study.h"
#include "core/study.h"
#include "core/synthetic_corpus.h"
#include "obs/obs.h"
#include "report/csv_writer.h"
#include "testing/fixtures.h"

namespace pinscope::core {
namespace {

using appmodel::Platform;

Study RunStudy(const store::Ecosystem& eco, int threads,
               obs::Observer* observer = nullptr) {
  StudyOptions opts;
  opts.threads = threads;
  opts.observer = observer;
  Study study(eco, opts);
  study.Run();
  return study;
}

/// One app (already hydrated into `app`) through the fixture-less,
/// cache-free path: static analysis with no scan cache, dynamic analysis
/// with no shared fixtures.
AppResult AnalyzeWithoutFixtures(const CorpusSource& source,
                                 const appmodel::App& app, Platform p,
                                 std::size_t index) {
  const StudyOptions defaults;
  AppResult r;
  r.universe_index = index;
  r.app = &app;
  staticanalysis::StaticAnalysisOptions static_opts;
  static_opts.ct_log = &source.ct_log();
  r.static_report = staticanalysis::AnalyzeStatically(app, static_opts);
  dynamicanalysis::DynamicOptions dyn = defaults.dynamic;
  if (p == Platform::kIos && source.NeedsCommonIosSettle(index)) {
    dyn.settle_seconds = defaults.common_ios_settle_seconds;
  }
  r.dynamic_report =
      dynamicanalysis::RunDynamicAnalysis(app, source.world(), dyn);
  return r;
}

/// The JSON and CSV exports of the fixture-less path over every app of
/// `source`, each app analyzed on one of `threads` plain threads.
struct Rows {
  std::string json;
  std::string csv;
};

Rows FixturelessRows(const CorpusSource& source, int threads) {
  struct Item {
    Platform platform;
    std::size_t index;
  };
  std::vector<Item> items;
  for (const Platform p : {Platform::kAndroid, Platform::kIos}) {
    for (const std::size_t idx : source.Indices(p)) items.push_back({p, idx});
  }
  std::vector<appmodel::App> apps(items.size());
  std::vector<AppResult> results(items.size());
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < items.size();
           i += static_cast<std::size_t>(threads)) {
        apps[i] = source.Hydrate(items[i].platform, items[i].index);
        results[i] = AnalyzeWithoutFixtures(source, apps[i], items[i].platform,
                                            items[i].index);
      }
    });
  }
  for (std::thread& th : pool) th.join();

  Rows rows;
  report::CsvWriter csv;
  csv.SetHeader(StudyCsvHeader());
  for (std::size_t i = 0; i < items.size(); ++i) {
    rows.json += AppResultJsonLine(results[i], items[i].platform);
    for (auto& row : AppResultCsvRows(results[i], items[i].platform)) {
      csv.AddRow(std::move(row));
    }
  }
  rows.csv = csv.TakeString();
  return rows;
}

class SimCacheEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimCacheEquivalenceTest, FixturesNeverChangeAnyExportByte) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const Rows reference =
      FixturelessRows(EcosystemCorpusSource(eco), /*threads=*/1);
  ASSERT_FALSE(reference.json.empty());
  ASSERT_FALSE(reference.csv.empty());

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::Observer observer;
    const Study study = RunStudy(eco, threads, &observer);
    EXPECT_EQ(reference.json, ExportStudyJson(study));
    EXPECT_EQ(reference.csv, ExportStudyCsv(study));

    // Both shared caches must actually have been exercised, and their books
    // must balance; hit attribution may vary with scheduling, which is
    // exactly why counters are not part of any export.
    const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
    for (const char* family : {"forged_leaf", "validation"}) {
      SCOPED_TRACE(family);
      const std::string prefix = std::string("cache.") + family + ".";
      const auto gauge = [&](const char* field) {
        return snap.gauges.at(prefix + field);
      };
      EXPECT_GT(gauge("lookups"), 0u);
      EXPECT_EQ(gauge("hits") + gauge("misses"), gauge("lookups"));
      EXPECT_LE(gauge("entries"), gauge("misses"));
      // The study corpus apps share destinations and chains.
      EXPECT_GT(gauge("hits"), 0u);
    }
  }
}

TEST_P(SimCacheEquivalenceTest, FixturesOffIsAlsoThreadCountInvariant) {
  // The fixture-less path builds private proxies and root stores per app, so
  // running apps on concurrent threads must not change a byte either.
  const EcosystemCorpusSource source(
      pinscope::testing::MakeStudyCorpus(GetParam()));
  const Rows serial = FixturelessRows(source, 1);
  const Rows parallel = FixturelessRows(source, 4);
  EXPECT_EQ(serial.json, parallel.json);
  EXPECT_EQ(serial.csv, parallel.csv);
}

TEST_P(SimCacheEquivalenceTest, BothCacheLayersComposeCleanly) {
  // The generated corpus never reaches the scan cache: its files are all
  // below kScanCacheMinBytes. Here every app ships a ~21 KB pin-dense
  // payload, shared by the Android and iOS app of one index, so the scan
  // cache and the shared fixtures both work, and the streamed rows must
  // still equal the all-caches-off reference.
  SyntheticCorpusConfig config;
  config.seed = GetParam();
  config.apps_per_platform = 6;
  config.unique_payload = true;
  config.pin_strings_in_payload = 400;
  const SyntheticCorpusSource source(config);
  const Rows reference = FixturelessRows(source, /*threads=*/1);

  obs::Observer observer;
  StudyOptions opts;
  opts.threads = 4;
  opts.observer = &observer;
  StreamExporter exporter;
  (void)RunStreamingStudy(source, opts, exporter);
  EXPECT_EQ(reference.json, exporter.FinishJson());
  EXPECT_EQ(reference.csv, exporter.FinishCsv());

  // One lookup per app and one entry per distinct payload, whichever twin
  // took the miss.
  const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
  EXPECT_EQ(snap.gauges.at("cache.scan.lookups"), 2 * config.apps_per_platform);
  EXPECT_EQ(snap.gauges.at("cache.scan.entries"), config.apps_per_platform);
  EXPECT_GT(snap.gauges.at("cache.validation.lookups"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimCacheEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
