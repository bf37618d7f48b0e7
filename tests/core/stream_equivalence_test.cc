// Streaming-study equivalence suite (DESIGN.md §15). Three contracts:
//
//  1. Streamed == materialized: a streaming run over an EcosystemCorpusSource
//     reproduces the golden digests in tests/golden/ — recorded from the
//     materialized study — of the JSON/CSV exports, the kDebug journal, and
//     the run report, for every cell of
//     seeds {7, 23} × threads {1, 4, hardware} × queue depths {1, 2, 64}.
//  2. Warm == cold: re-running with a persisted --cache-dir changes no
//     exported byte, and a damaged cache file silently degrades to a cold
//     start with — again — identical bytes.
//  3. Incremental == full: after one snapshot of store churn, re-analyzing
//     only the changed apps and merging over the previous run's rows equals
//     re-analyzing everything.
//  4. The scan cache's study: a small pin-dense synthetic stream, whose
//     payloads are large and repeat across apps, reproduces its own golden
//     digests at every thread count and holds one cache entry per distinct
//     payload, while a shared-payload stream of small files holds none —
//     the streaming memory bound needs no switch.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/cache_persist.h"
#include "core/corpus_source.h"
#include "core/stream_export.h"
#include "core/stream_study.h"
#include "core/study.h"
#include "core/synthetic_corpus.h"
#include "obs/obs.h"
#include "store/generator.h"
#include "testing/fixtures.h"
#include "testing/golden.h"

namespace pinscope::core {
namespace {

/// Everything a run externalizes, with verdicts rendered to text so the
/// comparison is a straight byte equality.
struct RunBytes {
  std::string json;
  std::string csv;
  std::string verdicts;
};

std::string RenderVerdicts(const std::vector<report::AppVerdict>& verdicts) {
  std::string out;
  for (const report::AppVerdict& v : verdicts) {
    out += v.platform + "|" + v.app_id + "|" +
           (v.pins_at_runtime ? "1" : "0") +
           (v.potential_pinning ? "1" : "0") + (v.config_pinning ? "1" : "0");
    for (const std::string& host : v.pinned_hosts) out += "|" + host;
    out += "\n";
  }
  return out;
}

struct StreamConfig {
  int threads = 1;
  std::size_t queue_depth = 0;
  std::string cache_dir;
  std::function<bool(appmodel::Platform, std::size_t)> app_filter;
};

RunBytes RunStreamed(const store::Ecosystem& eco, const StreamConfig& config,
                     StreamExporter* exporter_out = nullptr) {
  const EcosystemCorpusSource source(eco);
  StudyOptions opts;
  opts.threads = config.threads;
  opts.queue_depth = config.queue_depth;
  opts.cache_dir = config.cache_dir;
  opts.app_filter = config.app_filter;
  StreamExporter local;
  StreamExporter& exporter =
      exporter_out != nullptr ? *exporter_out : local;
  (void)RunStreamingStudy(source, opts, exporter);
  return {exporter.FinishJson(), exporter.FinishCsv(),
          RenderVerdicts(exporter.FinishVerdicts())};
}

void ExpectSameBytes(const RunBytes& a, const RunBytes& b) {
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.verdicts, b.verdicts);
}

class StreamEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StreamEquivalenceTest, StreamedMatchesMaterializedAcrossTheGrid) {
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  const std::string golden = pinscope::testing::ReadStudyGolden(GetParam());

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    for (const std::size_t depth : {std::size_t{1}, std::size_t{2},
                                    std::size_t{64}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " queue_depth=" + std::to_string(depth));
      StudyOptions opts;
      opts.threads = threads;
      opts.queue_depth = depth;
      EXPECT_EQ(golden, pinscope::testing::DigestLines(
                            pinscope::testing::RunStudyArtifacts(
                                eco, opts, /*streamed=*/true)));
    }
  }
}

TEST_P(StreamEquivalenceTest, WarmStartAndDamagedCachesNeverChangeAByte) {
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pinscope_stream_warm_test_" + std::to_string(GetParam()));
  std::filesystem::remove_all(dir);

  StreamConfig cached;
  cached.threads = 4;
  cached.cache_dir = dir.string();
  const RunBytes cold = RunStreamed(eco, cached);
  ASSERT_FALSE(cold.json.empty());
  ASSERT_TRUE(std::filesystem::exists(ScanCachePathFor(dir.string())));
  ASSERT_TRUE(std::filesystem::exists(ValidationCachePathFor(dir.string())));

  const RunBytes warm = RunStreamed(eco, cached);
  ExpectSameBytes(cold, warm);

  // Damage both files differently: a flipped byte in one, free-form junk in
  // the other. The next run must fall back to a cold start — same bytes.
  {
    const std::string scan_path = ScanCachePathFor(dir.string());
    std::fstream f(scan_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    char last = 0;
    f.seekg(-1, std::ios::end);
    f.read(&last, 1);
    f.seekp(-1, std::ios::end);
    last = static_cast<char>(last ^ 0x01);
    f.write(&last, 1);
  }
  {
    std::ofstream f(ValidationCachePathFor(dir.string()),
                    std::ios::binary | std::ios::trunc);
    f << "this is not a cache file";
  }
  const RunBytes recovered = RunStreamed(eco, cached);
  ExpectSameBytes(cold, recovered);

  std::filesystem::remove_all(dir);
}

TEST_P(StreamEquivalenceTest, IncrementalReanalysisMatchesFullReanalysis) {
  store::EcosystemConfig config;
  config.seed = GetParam();
  config.scale = 24.0 / 5333.0;
  // Aggressive churn so even the mini corpus has changed apps to re-analyze.
  store::ChurnConfig churn_config;
  churn_config.host_renewal_rate = 0.5;
  churn_config.app_update_rate = 0.5;

  StreamConfig full_config;
  full_config.threads = 4;

  // Reference: churn, then re-analyze everything.
  store::Ecosystem full_eco = store::Ecosystem::Generate(config);
  (void)full_eco.AdvanceSnapshot(churn_config);
  const RunBytes reference = RunStreamed(full_eco, full_config);

  // Incremental: analyze snapshot 0, churn, re-analyze only changed apps,
  // merge this run's rows over the baseline's.
  store::Ecosystem inc_eco = store::Ecosystem::Generate(config);
  StreamExporter baseline;
  (void)RunStreamed(inc_eco, full_config, &baseline);
  const store::SnapshotChurn churn = inc_eco.AdvanceSnapshot(churn_config);
  ASSERT_FALSE(churn.changed_apps.empty())
      << "vacuous churn — raise the rates";

  std::set<std::pair<appmodel::Platform, std::size_t>> changed(
      churn.changed_apps.begin(), churn.changed_apps.end());
  StreamConfig delta_config;
  delta_config.threads = 4;
  delta_config.app_filter = [&changed](appmodel::Platform p,
                                       std::size_t idx) {
    return changed.contains({p, idx});
  };
  StreamExporter merged;
  (void)RunStreamed(inc_eco, delta_config, &merged);
  // The filter must actually have excluded unchanged apps, or this test
  // proves nothing.
  ASSERT_LT(merged.results(), baseline.results());

  merged.MergeBase(baseline);
  ExpectSameBytes(reference,
                  {merged.FinishJson(), merged.FinishCsv(),
                   RenderVerdicts(merged.FinishVerdicts())});
}

/// A small pin-dense stream: each index's payload is 1,000 distinct pins
/// (about 52 KB) behind a first line of its own, and the Android and iOS
/// apps of one index ship the same payload, so whichever twin is scanned
/// second hits the scan cache.
SyntheticCorpusConfig PinDenseCorpus() {
  SyntheticCorpusConfig config;
  config.seed = 7;
  config.apps_per_platform = 10;
  config.unique_payload = true;
  config.pin_strings_in_payload = 1000;
  return config;
}

/// What the pin-dense study externalizes (testing/golden.h's DigestLines).
/// Unlike the ecosystem goldens, it runs cached scans: the journal's
/// static.pin_found events carry each cached pin's path and offset.
constexpr std::string_view kPinDenseGolden =
    "json fb51ad67006133f2ddabf9d722f693801a50ecae22600eff49a9e42ad4bb16a2\n"
    "csv ec3d4878aecd61dc1e8553d1421dd00c56fb87c96602279696b497b6875b3a37\n"
    "journal 2767f22377408fcd1c031caf6f5db9b7ca70e7aadd179a42e1114e50731352fd\n"
    "report_md 765628c482f872c9513f949df8bcb8982ed0703e0efdf5c7292a615899091e5d\n"
    "report_json b5fa140a3e5051f1e559896f4fcf7a8433e125dcbc906bb01411ec98b175fa47\n";

TEST(StreamScanCacheTest, PinDenseStudyMatchesTheGoldenDigests) {
  const SyntheticCorpusSource source(PinDenseCorpus());
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StudyOptions opts;
    opts.threads = threads;
    EXPECT_EQ(kPinDenseGolden,
              pinscope::testing::DigestLines(
                  pinscope::testing::RunStreamedArtifacts(source, opts)));
  }
}

TEST(StreamScanCacheTest, PinDenseStudyCachesEachDistinctPayloadOnce) {
  const SyntheticCorpusConfig config = PinDenseCorpus();
  const SyntheticCorpusSource source(config);
  obs::Observer observer;
  StudyOptions opts;
  opts.threads = 1;  // Android 0..9, then iOS 0..9: each iOS payload hits
  opts.observer = &observer;
  StreamExporter exporter;
  (void)RunStreamingStudy(source, opts, exporter);

  // Only the payloads reach kScanCacheMinBytes.
  const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
  EXPECT_EQ(snap.gauges.at("cache.scan.lookups"), 2 * config.apps_per_platform);
  EXPECT_EQ(snap.gauges.at("cache.scan.entries"), config.apps_per_platform);
  EXPECT_EQ(snap.gauges.at("cache.scan.hits"), config.apps_per_platform);
}

TEST(StreamScanCacheTest, SharedPayloadStreamKeepsNoScanCacheEntries) {
  // bench_stream's shape: every file, the shared 4 KiB payload included, is
  // below kScanCacheMinBytes, so the cache stays empty however long the
  // stream runs.
  SyntheticCorpusConfig config;
  config.apps_per_platform = 1000;
  const SyntheticCorpusSource source(config);
  obs::Observer observer;
  StudyOptions opts;
  opts.threads = 2;
  opts.observer = &observer;
  StreamExporter::Options eopts;
  eopts.retain_rows = false;
  StreamExporter exporter(eopts);
  const StreamStudyResult run = RunStreamingStudy(source, opts, exporter);
  ASSERT_EQ(run.apps, 2 * config.apps_per_platform);

  const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
  EXPECT_EQ(snap.gauges.at("cache.scan.lookups"), 0u);
  EXPECT_EQ(snap.gauges.at("cache.scan.entries"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamEquivalenceTest,
                         ::testing::Values(7u, 23u),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
