// Property tests for the result-merge step: whatever order per-app chains
// complete in, the exporter's ordered replay and the study's result maps
// come out the same. This is the invariant that lets Study::Run() ignore
// scheduling entirely.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/export.h"
#include "core/stream_export.h"
#include "core/study.h"
#include "testing/fixtures.h"
#include "util/rng.h"

namespace pinscope::core {
namespace {

using appmodel::Platform;

TEST(MergeOrderTest, AnyCompletionPermutationYieldsIdenticalResults) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(11);
  Study study(eco);
  study.Run();

  struct Delivery {
    Platform platform;
    const AppResult* result;
  };
  std::vector<Delivery> deliveries;
  for (const Platform p : {Platform::kAndroid, Platform::kIos}) {
    for (const AppResult* r : study.AllResults(p)) deliveries.push_back({p, r});
  }
  ASSERT_GT(deliveries.size(), 1u);

  util::Rng rng(0xfeedface);
  for (int round = 0; round < 10; ++round) {
    rng.Shuffle(deliveries);
    StreamExporter exporter;
    for (const Delivery& d : deliveries) exporter.OnResult(d.platform, *d.result);
    EXPECT_EQ(exporter.FinishJson(), ExportStudyJson(study))
        << "permutation round " << round;
    EXPECT_EQ(exporter.FinishCsv(), ExportStudyCsv(study))
        << "permutation round " << round;
  }
}

TEST(MergeOrderTest, MergedKeysAreSortedUniverseIndices) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(11);
  StudyOptions opts;
  opts.threads = 4;
  Study study(eco, opts);
  study.Run();
  for (const Platform p : {Platform::kAndroid, Platform::kIos}) {
    const std::vector<const AppResult*> results = study.AllResults(p);
    ASSERT_FALSE(results.empty());
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i > 0) {
        EXPECT_GT(results[i]->universe_index, results[i - 1]->universe_index);
      }
      // Each kept result points at the ecosystem's app, not at the
      // hydrated copy the driver freed after the verdict.
      EXPECT_EQ(results[i]->app, &eco.apps(p)[results[i]->universe_index]);
    }
  }
}

}  // namespace
}  // namespace pinscope::core
