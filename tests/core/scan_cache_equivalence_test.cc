// Cache-equivalence suite: the corpus-wide scan cache must be unobservable
// in results. For several generation seeds, the same ecosystem is analyzed
// with the cache off (serial reference) and with the cache on at threads ∈
// {1, 4, hardware_concurrency}; the JSON/CSV dataset exports must be byte
// for byte identical in every configuration — mirroring the PR 1
// determinism-equivalence suite, with the cache knob as the variable.
#include <gtest/gtest.h>

#include <thread>

#include "core/export.h"
#include "core/study.h"
#include "obs/obs.h"
#include "testing/fixtures.h"

namespace pinscope::core {
namespace {

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

class ScanCacheEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScanCacheEquivalenceTest, CacheNeverChangesAnyExportByte) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());

  obs::Observer uncached_observer;
  const Study reference =
      RunStudy(eco, 1, /*scan_cache=*/false, &uncached_observer);
  // No cache, no cache.scan.* gauges.
  EXPECT_FALSE(uncached_observer.metrics().Snapshot().gauges.count(
      "cache.scan.lookups"));
  const std::string json = ExportStudyJson(reference);
  const std::string csv = ExportStudyCsv(reference);
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(csv.empty());

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::Observer observer;
    const Study cached = RunStudy(eco, threads, /*scan_cache=*/true, &observer);
    EXPECT_EQ(json, ExportStudyJson(cached));
    EXPECT_EQ(csv, ExportStudyCsv(cached));

    // The cache must actually have been exercised, and its books must
    // balance; the per-configuration hit counts may differ (scheduling
    // decides who takes each miss), which is exactly why they are not part
    // of any export.
    const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
    const auto gauge = [&snap](const char* name) { return snap.gauges.at(name); };
    EXPECT_GT(gauge("cache.scan.lookups"), 0u);
    EXPECT_EQ(gauge("cache.scan.hits") + gauge("cache.scan.misses"),
              gauge("cache.scan.lookups"));
    EXPECT_LE(gauge("cache.scan.entries"), gauge("cache.scan.misses"));
    // The study corpus apps share SDK artifacts.
    EXPECT_GT(gauge("cache.scan.hits"), 0u);
  }
}

TEST_P(ScanCacheEquivalenceTest, CacheOffIsAlsoThreadCountInvariant) {
  // Closes the square: the parallel suite proves threads don't matter with
  // the default (cached) study; this proves the uncached study is equally
  // schedule-free, so the two knobs are independent.
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const Study serial = RunStudy(eco, 1, /*scan_cache=*/false);
  const Study parallel = RunStudy(eco, 4, /*scan_cache=*/false);
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
