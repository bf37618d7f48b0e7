// Allocation guard for pin evidence: a found pin is a flat record, so
// scanning, replaying, resolving, loading and freeing one pin-dense file must
// cost a number of heap allocations that does not grow with its pin count.
// A counting global operator new measures each step over files of 1,000 and
// 8,000 pins. Carries the `static` ctest label, so both sanitizer presets
// run it too (their malloc interceptors still see every block).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "appmodel/app.h"
#include "staticanalysis/scan_cache.h"
#include "staticanalysis/scanner.h"
#include "staticanalysis/static_report.h"
#include "tls/pinning.h"
#include "util/rng.h"
#include "x509/ct_log.h"
#include "x509/issuer.h"

namespace {

std::atomic<std::size_t> g_news{0};
std::atomic<std::size_t> g_deletes{0};

void CountedFree(void* p) noexcept {
  if (p != nullptr) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { CountedFree(p); }

void operator delete(void* p, std::size_t /*size*/) noexcept { CountedFree(p); }

namespace pinscope::staticanalysis {
namespace {

// Allocations and frees one step may make, whatever its pin count.
constexpr std::size_t kBudget = 64;

struct HeapCount {
  std::size_t news = 0;
  std::size_t deletes = 0;
};

template <typename F>
HeapCount CountHeap(F&& step) {
  const std::size_t news = g_news.load(std::memory_order_relaxed);
  const std::size_t deletes = g_deletes.load(std::memory_order_relaxed);
  step();
  return {g_news.load(std::memory_order_relaxed) - news,
          g_deletes.load(std::memory_order_relaxed) - deletes};
}

x509::Certificate TestCert(const std::string& cn) {
  x509::IssueSpec spec;
  spec.subject.set_common_name(cn);
  return x509::CertificateIssuer::SelfSignedLeaf("alloc-guard:" + cn, spec);
}

// The CT log's certificates; their pins open the pin-dense file, so CT
// resolution finds a few of its pins and misses the rest.
const std::vector<x509::Certificate>& LoggedCerts() {
  static const std::vector<x509::Certificate> certs = {
      TestCert("logged-a.example"), TestCert("logged-b.example")};
  return certs;
}

// One text file of `pins` pin strings: the logged certificates' sha256/ and
// sha1/ pins, then distinct random sha256/ pins, one per line.
appmodel::PackageFiles PinDensePackage(std::size_t pins) {
  std::vector<std::string> lines;
  for (const x509::Certificate& cert : LoggedCerts()) {
    for (const tls::PinForm form :
         {tls::PinForm::kSpkiSha256, tls::PinForm::kSpkiSha1}) {
      lines.push_back(tls::Pin::ForCertificate(cert, form).ToPinString());
    }
  }
  util::Rng rng(pins);
  tls::Pin random;
  random.material.resize(32);
  while (lines.size() < pins) {
    for (std::uint8_t& b : random.material) {
      b = static_cast<std::uint8_t>(rng.UniformU64(0, 255));
    }
    lines.push_back(random.ToPinString());
  }
  std::string text;
  for (const std::string& line : lines) text += "pin = \"" + line + "\"\n";
  appmodel::PackageFiles files;
  files.AddText("smali/com/vendor/pinning/DensePinSet.smali", text);
  return files;
}

class PinAllocationGuardTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    files_ = PinDensePackage(GetParam());
    // The file holds exactly the requested pins.
    ASSERT_EQ(Scanner().Scan(files_).pins.size(), GetParam());
  }

  appmodel::PackageFiles files_;
  const Scanner scanner_;
};

TEST_P(PinAllocationGuardTest, ColdScanAllocatesPerFileNotPerPin) {
  ScanCache cache;
  std::optional<ScanResult> result;
  const HeapCount scan = CountHeap([&] { result = scanner_.Scan(files_, &cache); });
  EXPECT_LT(scan.news, kBudget);
  ASSERT_EQ(result->pins.size(), GetParam());
  const HeapCount release = CountHeap([&] { result.reset(); });
  EXPECT_LT(release.deletes, kBudget);
}

TEST_P(PinAllocationGuardTest, WarmHitAllocatesPerFileNotPerPin) {
  ScanCache cache;
  (void)scanner_.Scan(files_, &cache);
  std::optional<ScanResult> result;
  const HeapCount hit = CountHeap([&] { result = scanner_.Scan(files_, &cache); });
  ASSERT_EQ(result->cache_hits, 1u);
  ASSERT_EQ(result->pins.size(), GetParam());
  EXPECT_LT(hit.news, kBudget);
  const HeapCount release = CountHeap([&] { result.reset(); });
  EXPECT_LT(release.deletes, kBudget);
}

TEST_P(PinAllocationGuardTest, AnalyzeStaticallyWithCtLogAllocatesPerAppNotPerPin) {
  x509::CtLog ct_log;
  for (const x509::Certificate& cert : LoggedCerts()) ct_log.Add(cert);
  appmodel::App app;
  app.meta.app_id = "com.alloc.guard";
  app.meta.platform = appmodel::Platform::kAndroid;
  app.package = files_;
  StaticAnalysisOptions options;
  options.ct_log = &ct_log;
  {
    // The analyzer's scanner is built on first use; that is not per app.
    appmodel::App empty;
    empty.meta.platform = appmodel::Platform::kAndroid;
    (void)AnalyzeStatically(empty, options);
  }

  std::optional<StaticReport> report;
  const HeapCount analyze =
      CountHeap([&] { report = AnalyzeStatically(app, options); });
  EXPECT_LT(analyze.news, kBudget);
  ASSERT_EQ(report->scan.pins.size(), GetParam());
  EXPECT_EQ(report->pins_total, GetParam());
  EXPECT_EQ(report->pins_resolved, 2 * LoggedCerts().size());
  EXPECT_EQ(report->ct_resolved.size(), LoggedCerts().size());
  const HeapCount release = CountHeap([&] { report.reset(); });
  EXPECT_LT(release.deletes, kBudget);
}

TEST_P(PinAllocationGuardTest, LoadFromFileAllocatesPerEntryNotPerPin) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("pinscope_alloc_guard_" + std::to_string(::getpid()) + "_" +
       std::to_string(GetParam()) + ".pscf");
  {
    ScanCache saved;
    (void)scanner_.Scan(files_, &saved);
    ASSERT_TRUE(saved.SaveToFile(path.string()));
  }
  std::optional<ScanCache> loaded(std::in_place);
  const HeapCount load =
      CountHeap([&] { ASSERT_TRUE(loaded->LoadFromFile(path.string())); });
  std::filesystem::remove(path);
  EXPECT_LT(load.news, kBudget);
  ASSERT_EQ(loaded->EntryCount(), 1u);
  {
    const auto entry = loaded->Find(ScanCache::MakeKey(
        files_.files().begin()->second, /*cert_file=*/false));
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ((*entry)->pins.size(), GetParam());
  }
  const HeapCount release = CountHeap([&] { loaded.reset(); });
  EXPECT_LT(release.deletes, kBudget);
}

INSTANTIATE_TEST_SUITE_P(Pins, PinAllocationGuardTest,
                         ::testing::Values(std::size_t{1000}, std::size_t{8000}));

}  // namespace
}  // namespace pinscope::staticanalysis
