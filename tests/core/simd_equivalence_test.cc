// SIMD-equivalence suite: the multi-literal prefilter's vector kernels are a
// pure throughput change. For every cell of the grid
//   seeds {7, 23} × threads {1, 4, hardware_concurrency}
// a full study must reproduce the golden digests in tests/golden/ of
//   (a) the JSON and CSV dataset exports,
//   (b) the decision-journal JSONL (full kDebug fidelity), and
//   (c) the run-report Markdown + JSON,
// byte for byte. tests/CMakeLists.txt registers this binary three times: at
// the host's best tier, under PINSCOPE_NO_SIMD=1 (portable kernels, tests
// prefixed `NoSimd.`) and under PINSCOPE_NO_AVX2=1 (SSE2 at most, prefixed
// `NoAvx2.`). The knobs are read when a prefilter is built, and
// AnalyzeStatically builds its one Scanner on first use, so a tier can only
// be forced for a whole process. A level assertion guards against a vacuous
// run (the scanner at another tier than the environment asks for).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include "core/study.h"
#include "crypto/cpu.h"
#include "staticanalysis/scanner.h"
#include "testing/fixtures.h"
#include "testing/golden.h"

namespace pinscope::core {
namespace {

/// The golden-digest text of one study at `threads`.
std::string RunDigests(const store::Ecosystem& eco, int threads) {
  StudyOptions opts;
  opts.threads = threads;
  return pinscope::testing::DigestLines(
      pinscope::testing::RunStudyArtifacts(eco, opts, /*streamed=*/false));
}

class SimdEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimdEquivalenceTest, SimdAndPortableScansExportIdenticalBytes) {
  const crypto::cpu::SimdLevel level = crypto::cpu::DetectSimdLevel();
  SCOPED_TRACE(std::string("tier=") + crypto::cpu::SimdLevelName(level));
  ASSERT_EQ(staticanalysis::Scanner().prefilter().level(), level);

  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const std::string golden = pinscope::testing::ReadStudyGolden(GetParam());
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(golden, RunDigests(eco, threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdEquivalenceTest,
                         ::testing::Values(std::uint64_t{7},
                                           std::uint64_t{23}));

}  // namespace
}  // namespace pinscope::core
