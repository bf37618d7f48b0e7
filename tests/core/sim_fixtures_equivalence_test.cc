// Equivalence suite for the connection-simulation fixtures: the study-wide
// proxy + root stores + forged-leaf cache + chain-validation memo must be
// unobservable in results. Every study shares them; the oracle is the
// fixture-less path, RunDynamicAnalysis without DynamicOptions::fixtures
// (what `pinscope audit` runs), which builds a private proxy and root
// stores per app. For several generation seeds, each app's exported rows
// from the study must equal the rows of that fixture-less, cache-free path,
// at threads ∈ {1, 4, hardware_concurrency} — the same contract the
// scan-cache suite proves for the static layer.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/corpus_source.h"
#include "core/export.h"
#include "core/study.h"
#include "obs/obs.h"
#include "report/csv_writer.h"
#include "testing/fixtures.h"

namespace pinscope::core {
namespace {

using appmodel::Platform;

Study RunStudy(const store::Ecosystem& eco, int threads, bool scan_cache,
               obs::Observer* observer = nullptr) {
  StudyOptions opts;
  opts.threads = threads;
  opts.scan_cache = scan_cache;
  opts.observer = observer;
  Study study(eco, opts);
  study.Run();
  return study;
}

/// One app through the fixture-less, cache-free path: static analysis with
/// no scan cache, dynamic analysis with no shared fixtures.
AppResult AnalyzeWithoutFixtures(const store::Ecosystem& eco,
                                 const EcosystemCorpusSource& source,
                                 Platform p, std::size_t index) {
  const StudyOptions defaults;
  AppResult r;
  r.universe_index = index;
  r.app = &eco.apps(p)[index];
  staticanalysis::StaticAnalysisOptions static_opts;
  static_opts.ct_log = &eco.ct_log();
  r.static_report = staticanalysis::AnalyzeStatically(*r.app, static_opts);
  dynamicanalysis::DynamicOptions dyn = defaults.dynamic;
  if (p == Platform::kIos && source.NeedsCommonIosSettle(index)) {
    dyn.settle_seconds = defaults.common_ios_settle_seconds;
  }
  r.dynamic_report = dynamicanalysis::RunDynamicAnalysis(*r.app, eco.world(), dyn);
  return r;
}

/// The JSON and CSV exports of the fixture-less path over every study app,
/// each app analyzed on one of `threads` plain threads.
struct Rows {
  std::string json;
  std::string csv;
};

Rows FixturelessRows(const store::Ecosystem& eco, int threads) {
  const EcosystemCorpusSource source(eco);
  struct Item {
    Platform platform;
    std::size_t index;
  };
  std::vector<Item> items;
  for (const Platform p : {Platform::kAndroid, Platform::kIos}) {
    for (const std::size_t idx : source.Indices(p)) items.push_back({p, idx});
  }
  std::vector<AppResult> results(items.size());
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < items.size();
           i += static_cast<std::size_t>(threads)) {
        results[i] = AnalyzeWithoutFixtures(eco, source, items[i].platform,
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
  const Rows reference = FixturelessRows(eco, /*threads=*/1);
  ASSERT_FALSE(reference.json.empty());
  ASSERT_FALSE(reference.csv.empty());

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::Observer observer;
    const Study study = RunStudy(eco, threads, /*scan_cache=*/true, &observer);
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
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const Rows serial = FixturelessRows(eco, 1);
  const Rows parallel = FixturelessRows(eco, 4);
  EXPECT_EQ(serial.json, parallel.json);
  EXPECT_EQ(serial.csv, parallel.csv);
}

TEST_P(SimCacheEquivalenceTest, BothCacheLayersComposeCleanly) {
  // The shared fixtures with the scan cache off and on both match the
  // all-caches-off reference: the two memo layers are orthogonal.
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const Rows reference = FixturelessRows(eco, /*threads=*/1);
  for (const bool scan : {false, true}) {
    SCOPED_TRACE("scan=" + std::to_string(scan));
    const Study study = RunStudy(eco, 4, scan);
    EXPECT_EQ(reference.json, ExportStudyJson(study));
    EXPECT_EQ(reference.csv, ExportStudyCsv(study));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimCacheEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
