// Determinism-equivalence suite: the parallel study must be bit-identical
// to the serial one. For several generation seeds, the same ecosystem is
// analyzed at threads ∈ {1, 4, hardware_concurrency} and every observable
// output is compared: the JSON/CSV dataset exports byte for byte, plus the Table 3
// prevalence rows and Figure 2-4 consistency structs field by field.
#include <gtest/gtest.h>

#include <thread>

#include "core/analyses.h"
#include "core/export.h"
#include "core/study.h"
#include "testing/fixtures.h"

namespace pinscope::core {
namespace {

using appmodel::Platform;
using store::DatasetId;

Study RunStudy(const store::Ecosystem& eco, int threads) {
  StudyOptions opts;
  opts.threads = threads;
  Study study(eco, opts);
  study.Run();
  return study;
}

void ExpectSamePrevalence(const Study& serial, const Study& parallel) {
  for (const DatasetId id : store::AllDatasets()) {
    for (const Platform p : {Platform::kAndroid, Platform::kIos}) {
      const PrevalenceRow a = ComputePrevalence(serial, id, p);
      const PrevalenceRow b = ComputePrevalence(parallel, id, p);
      EXPECT_EQ(a.total, b.total) << DatasetName(id) << " " << PlatformName(p);
      EXPECT_EQ(a.dynamic_pinning, b.dynamic_pinning)
          << DatasetName(id) << " " << PlatformName(p);
      EXPECT_EQ(a.embedded_static, b.embedded_static)
          << DatasetName(id) << " " << PlatformName(p);
      EXPECT_EQ(a.config_pinning, b.config_pinning)
          << DatasetName(id) << " " << PlatformName(p);
    }
  }
}

void ExpectSameConsistency(const Study& serial, const Study& parallel) {
  const auto a = AnalyzeCommonPairs(serial);
  const auto b = AnalyzeCommonPairs(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].android_index, b[i].android_index) << i;
    EXPECT_EQ(a[i].ios_index, b[i].ios_index) << i;
    EXPECT_EQ(a[i].name, b[i].name) << i;
    EXPECT_EQ(a[i].pinned_android, b[i].pinned_android) << i;
    EXPECT_EQ(a[i].pinned_ios, b[i].pinned_ios) << i;
    EXPECT_EQ(a[i].unpinned_android, b[i].unpinned_android) << i;
    EXPECT_EQ(a[i].unpinned_ios, b[i].unpinned_ios) << i;
    EXPECT_EQ(a[i].mode, b[i].mode) << i;
    EXPECT_EQ(a[i].verdict, b[i].verdict) << i;
    EXPECT_EQ(a[i].identical_sets, b[i].identical_sets) << i;
    // Identical inputs must reproduce the doubles exactly, not approximately.
    EXPECT_EQ(a[i].jaccard, b[i].jaccard) << i;
    EXPECT_EQ(a[i].android_pinned_unpinned_on_ios,
              b[i].android_pinned_unpinned_on_ios)
        << i;
    EXPECT_EQ(a[i].ios_pinned_unpinned_on_android,
              b[i].ios_pinned_unpinned_on_android)
        << i;
  }
}

class DeterminismEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismEquivalenceTest, ThreadCountNeverChangesAnyExportByte) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());

  const Study serial = RunStudy(eco, 1);
  const std::string json = ExportStudyJson(serial);
  const std::string csv = ExportStudyCsv(serial);
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(csv.empty());

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {4, hw > 0 ? hw : 2, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Study parallel = RunStudy(eco, threads);
    // Byte-identical exports are the headline guarantee…
    EXPECT_EQ(json, ExportStudyJson(parallel));
    EXPECT_EQ(csv, ExportStudyCsv(parallel));
    // …and the aggregate result structs must agree too (the exports do not
    // serialize every field the analyses read).
    ExpectSamePrevalence(serial, parallel);
    ExpectSameConsistency(serial, parallel);
  }
}

TEST_P(DeterminismEquivalenceTest, RerunWithSameThreadsIsAlsoIdentical) {
  // Guards against nondeterminism *within* one configuration (e.g. a stray
  // draw from shared RNG state), which two-configuration comparison alone
  // would miss if both runs drifted identically.
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const Study first = RunStudy(eco, 4);
  const Study second = RunStudy(eco, 4);
  EXPECT_EQ(ExportStudyJson(first), ExportStudyJson(second));
  EXPECT_EQ(ExportStudyCsv(first), ExportStudyCsv(second));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
