// SIMD-equivalence suite: the multi-literal prefilter's vector kernels are a
// pure throughput change. For every cell of the grid
//   seeds {7, 23} × threads {1, 4, hardware_concurrency} × {best SIMD level,
//   forced portable}
// a full study must reproduce the golden digests in tests/golden/ of
//   (a) the JSON and CSV dataset exports,
//   (b) the decision-journal JSONL (full kDebug fidelity), and
//   (c) the run-report Markdown + JSON,
// byte for byte. The PINSCOPE_NO_SIMD knob is read at prefilter
// construction, so each study builds fresh scanners under the scoped
// environment; a level assertion guards against a vacuous comparison (the
// "forced" side silently running the same kernel).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/study.h"
#include "crypto/cpu.h"
#include "staticanalysis/prefilter.h"
#include "testing/fixtures.h"
#include "testing/golden.h"

namespace pinscope::core {
namespace {

/// Scoped setenv/unsetenv so a failing assertion cannot leak a knob into
/// later tests in this binary.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    ::setenv(name, "1", /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

/// The golden-digest text of one study at `threads`, scanned under
/// whatever SIMD knobs are set right now.
std::string RunDigests(const store::Ecosystem& eco, int threads) {
  StudyOptions opts;
  opts.threads = threads;
  return pinscope::testing::DigestLines(
      pinscope::testing::RunStudyArtifacts(eco, opts, /*streamed=*/false));
}

class SimdEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimdEquivalenceTest, SimdAndPortableScansExportIdenticalBytes) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const std::string golden = pinscope::testing::ReadStudyGolden(GetParam());

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, hw > 0 ? hw : 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(golden, RunDigests(eco, threads));

    const ScopedEnv no_simd("PINSCOPE_NO_SIMD");
    // Not vacuous: forcing the knob really changes the kernel in play.
    const staticanalysis::MultiLiteralPrefilter probe({"sha"});
    ASSERT_EQ(probe.level(), crypto::cpu::SimdLevel::kPortable);
    EXPECT_EQ(golden, RunDigests(eco, threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdEquivalenceTest,
                         ::testing::Values(std::uint64_t{7},
                                           std::uint64_t{23}));

}  // namespace
}  // namespace pinscope::core
