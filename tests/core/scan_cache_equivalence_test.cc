// Cache-equivalence suite: the corpus-wide scan cache must be unobservable
// in results. The scanner consults it only for files of at least
// kScanCacheMinBytes, and every file of the generated study corpus is
// smaller, so there the study never touches the cache. For several
// generation seeds, each app's scan must equal the brute-force ReferenceScan
// (testing/pin_reference.h) of the tree it scanned, the JSON/CSV exports
// must be byte-identical at threads ∈ {1, 4, hardware_concurrency}, and the
// cache must report zero lookups and zero entries. The cached path is locked
// by the pin-dense study's golden digests (stream_equivalence_test.cc) and by
// ScanCacheTest; CacheOffIsAlsoThreadCountInvariant checks that the path the
// size rule leaves uncached is as schedule-free as the cached one.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/export.h"
#include "core/study.h"
#include "obs/obs.h"
#include "staticanalysis/ios_decrypt.h"
#include "testing/fixtures.h"
#include "testing/pin_reference.h"

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

/// The tree static analysis scans for `app`: the package on Android, the
/// decrypted tree on iOS (the package itself when decryption fails).
appmodel::PackageFiles ScannedTree(const appmodel::App& app) {
  if (app.meta.platform == appmodel::Platform::kAndroid) return app.package;
  const staticanalysis::StaticAnalysisOptions defaults;
  staticanalysis::DecryptResult dec = staticanalysis::DecryptIpa(
      app.package, app.meta.app_id, defaults.device, defaults.decrypt_tool);
  return dec.ok ? std::move(dec.files) : app.package;
}

class ScanCacheEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScanCacheEquivalenceTest, CacheNeverChangesAnyExportByte) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());

  std::string json;
  std::string csv;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::Observer observer;
    const Study study = RunStudy(eco, threads, &observer);
    if (json.empty()) {
      json = ExportStudyJson(study);
      csv = ExportStudyCsv(study);
      ASSERT_FALSE(json.empty());
      ASSERT_FALSE(csv.empty());
    }
    EXPECT_EQ(json, ExportStudyJson(study));
    EXPECT_EQ(csv, ExportStudyCsv(study));

    for (const appmodel::Platform p :
         {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
      for (const AppResult* r : study.AllResults(p)) {
        SCOPED_TRACE(r->app->meta.app_id);
        const staticanalysis::ScanResult& scan = r->static_report.scan;
        pinscope::testing::ExpectSameScan(
            scan, pinscope::testing::ReferenceScan(ScannedTree(*r->app)));
        EXPECT_EQ(scan.cache_hits, 0u);
      }
    }

    // The cache is attached and publishes its gauges, but no file of this
    // corpus reaches kScanCacheMinBytes.
    const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
    EXPECT_EQ(snap.gauges.at("cache.scan.lookups"), 0u);
    EXPECT_EQ(snap.gauges.at("cache.scan.entries"), 0u);
  }
}

TEST_P(ScanCacheEquivalenceTest, CacheOffIsAlsoThreadCountInvariant) {
  // Closes the square: the parallel suite proves threads don't matter with
  // a cached study; this proves the uncached study is equally
  // schedule-free. No file of the study corpus reaches kScanCacheMinBytes,
  // so the size rule keeps the cache off in both runs.
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  obs::Observer serial_observer;
  obs::Observer parallel_observer;
  const Study serial = RunStudy(eco, 1, &serial_observer);
  const Study parallel = RunStudy(eco, 4, &parallel_observer);
  for (const obs::Observer* observer : {&serial_observer, &parallel_observer}) {
    EXPECT_EQ(observer->metrics().Snapshot().gauges.at("cache.scan.lookups"),
              0u);
  }
  EXPECT_EQ(ExportStudyJson(serial), ExportStudyJson(parallel));
  EXPECT_EQ(ExportStudyCsv(serial), ExportStudyCsv(parallel));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanCacheEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
