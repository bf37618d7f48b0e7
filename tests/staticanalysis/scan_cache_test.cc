// Unit tests for the corpus-wide scan cache: the size threshold, hit/miss
// accounting, path rebinding on hit, cert-file-flag keying,
// first-insert-wins semantics, and a concurrent smoke test (TSan-covered via
// the `static` ctest label). Every file a test caches is padded to at least
// kScanCacheMinBytes with evidence-free bytes after its content, so each
// match and offset stays where it was.
#include "staticanalysis/scan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "appmodel/android_package.h"
#include "staticanalysis/scanner.h"
#include "testing/fixtures.h"
#include "testing/pin_reference.h"
#include "util/rng.h"
#include "x509/issuer.h"
#include "x509/pem.h"

namespace pinscope::staticanalysis {
namespace {

using pinscope::testing::Cacheable;

x509::Certificate TestCert(const std::string& cn) {
  x509::IssueSpec spec;
  spec.subject.set_common_name(cn);
  return x509::CertificateIssuer::SelfSignedLeaf("cache:" + cn, spec);
}

// A certificate whose DER reaches kScanCacheMinBytes through a long SAN list:
// a DER file cannot be padded after its last byte and still parse.
x509::Certificate LargeCert(const std::string& cn) {
  x509::IssueSpec spec;
  spec.subject.set_common_name(cn);
  for (std::size_t i = 0; i * 16 < kScanCacheMinBytes; ++i) {
    spec.san_dns.push_back("host" + std::to_string(i) + "." + cn);
  }
  return x509::CertificateIssuer::SelfSignedLeaf("cache:" + cn, spec);
}

std::string TestPinString(const x509::Certificate& cert) {
  return tls::Pin::ForCertificate(cert, tls::PinForm::kSpkiSha256).ToPinString();
}

// Field-by-field equality of two scan results (paths, pins, certificates,
// counters — everything except the cache diagnostics).
void ExpectSameScan(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.files_scanned, b.files_scanned);
  EXPECT_EQ(a.bytes_scanned, b.bytes_scanned);
  ASSERT_EQ(a.certificates.size(), b.certificates.size());
  for (std::size_t i = 0; i < a.certificates.size(); ++i) {
    EXPECT_EQ(a.certificates[i].path, b.certificates[i].path) << i;
    EXPECT_EQ(a.certificates[i].cert, b.certificates[i].cert) << i;
    EXPECT_EQ(a.certificates[i].from_pem, b.certificates[i].from_pem) << i;
  }
  ASSERT_EQ(a.pins.size(), b.pins.size());
  for (std::size_t i = 0; i < a.pins.size(); ++i) {
    EXPECT_EQ(a.PathOf(a.pins[i]), b.PathOf(b.pins[i])) << i;
    EXPECT_EQ(a.pins[i].pin_string(), b.pins[i].pin_string()) << i;
    EXPECT_EQ(a.pins[i].well_formed(), b.pins[i].well_formed()) << i;
  }
}

// A package exercising every scan branch: PEM asset, DER cert file, pin in
// smali text, pin in a binary lib, unparseable cert file, clean files.
appmodel::PackageFiles MixedPackage(const std::string& salt) {
  const x509::Certificate pem_cert = TestCert("pem." + salt + ".com");
  const x509::Certificate der_cert = LargeCert("der." + salt + ".com");
  const std::string pin = TestPinString(TestCert("pin." + salt + ".com"));
  util::Rng rng(7);
  appmodel::PackageFiles files;
  files.AddText("assets/certs/server.pem",
                Cacheable(x509::PemEncode(pem_cert)));
  files.Add("res/raw/ca.der", der_cert.DerBytes());
  files.AddText("smali/com/vendor/Pins.smali",
                Cacheable("const-string v0, \"" + pin + "\""));
  files.Add("lib/arm64-v8a/libnet.so",
            Cacheable(appmodel::RenderBinaryWithStrings(
                {pin, "https://" + salt + ".com"}, rng)));
  files.AddText("broken.pem",
                Cacheable("-----BEGIN CERTIFICATE-----\nnot base64\n"
                          "-----END CERTIFICATE-----"));
  files.AddText("assets/config.json",
                Cacheable("{\"api\": \"https://api." + salt + ".com\"}"));
  return files;
}

TEST(ScanCacheTest, FilesBelowTheThresholdNeverTouchTheCache) {
  const std::string pin = TestPinString(TestCert("threshold.com"));
  const Scanner scanner;
  for (const std::size_t size : {kScanCacheMinBytes - 1, kScanCacheMinBytes}) {
    SCOPED_TRACE("size=" + std::to_string(size));
    std::string text = "const-string v0, \"" + pin + "\"\n";
    text.resize(size, ' ');
    appmodel::PackageFiles files;
    files.AddText("smali/Sized.smali", text);

    ScanCache cache;
    const ScanResult result = scanner.Scan(files, &cache);
    pinscope::testing::ExpectSameScan(result,
                                      pinscope::testing::ReferenceScan(files));
    ASSERT_EQ(result.pins.size(), 1u);
    const std::size_t cached = size < kScanCacheMinBytes ? 0 : 1;
    EXPECT_EQ(cache.Stats().lookups, cached);
    EXPECT_EQ(cache.Stats().entries, cached);
  }
}

TEST(ScanCacheTest, CachedScanIsIdenticalToUncached) {
  const appmodel::PackageFiles files = MixedPackage("equiv");
  const Scanner scanner;
  const ScanResult uncached = scanner.Scan(files);
  ScanCache cache;
  const ScanResult cold = scanner.Scan(files, &cache);
  const ScanResult warm = scanner.Scan(files, &cache);
  ExpectSameScan(uncached, cold);
  ExpectSameScan(uncached, warm);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(warm.cache_hits, files.size());
  EXPECT_EQ(warm.cache_bytes_deduped, files.TotalBytes());
}

TEST(ScanCacheTest, HitMissAccounting) {
  const Scanner scanner;
  const std::string pin = TestPinString(TestCert("acct.com"));
  const std::string sdk = Cacheable("const-string v0, \"" + pin + "\"");
  appmodel::PackageFiles app1;
  app1.AddText("smali/shared/Sdk.smali", sdk);
  app1.AddText("assets/unique1.txt", Cacheable("only in app one"));
  appmodel::PackageFiles app2;
  app2.AddText("smali/other/path/Sdk.smali", sdk);
  app2.AddText("assets/unique2.txt", Cacheable("only in app two"));

  ScanCache cache;
  const ScanResult r1 = scanner.Scan(app1, &cache);
  EXPECT_EQ(r1.cache_hits, 0u);
  const ScanResult r2 = scanner.Scan(app2, &cache);
  EXPECT_EQ(r2.cache_hits, 1u);  // the shared SDK smali

  const util::MemoStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups, 4u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(r1.cache_bytes_deduped, 0u);
  EXPECT_EQ(r2.cache_bytes_deduped,
            app2.Find("smali/other/path/Sdk.smali")->size());
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

TEST(ScanCacheTest, HitRebindsPathsToTheObservingFile) {
  const Scanner scanner;
  const std::string pin = TestPinString(TestCert("rebind.com"));
  const std::string content = Cacheable("const-string v0, \"" + pin + "\"");
  appmodel::PackageFiles app1;
  app1.AddText("a/App1Sdk.smali", content);
  appmodel::PackageFiles app2;
  app2.AddText("b/App2Sdk.smali", content);

  ScanCache cache;
  const ScanResult r1 = scanner.Scan(app1, &cache);
  const ScanResult r2 = scanner.Scan(app2, &cache);
  ASSERT_EQ(r1.pins.size(), 1u);
  ASSERT_EQ(r2.pins.size(), 1u);
  EXPECT_EQ(r1.PathOf(r1.pins[0]), "a/App1Sdk.smali");
  EXPECT_EQ(r2.PathOf(r2.pins[0]), "b/App2Sdk.smali");  // hit, path rebound
  EXPECT_EQ(r2.cache_hits, 1u);
}

TEST(ScanCacheTest, CertFileFlagIsPartOfTheKey) {
  // The same DER bytes scan differently depending on the path suffix: as
  // "ca.der" the cert-file branch parses a certificate; as "ca.bin" the
  // content is binary noise with no printable pin. One content hash must
  // not alias the two outcomes.
  const x509::Certificate cert = LargeCert("flag.com");
  appmodel::PackageFiles files;
  files.Add("res/raw/ca.der", cert.DerBytes());
  files.Add("res/raw/ca.bin", cert.DerBytes());

  const Scanner scanner;
  const ScanResult uncached = scanner.Scan(files);
  ScanCache cache;
  const ScanResult cached = scanner.Scan(files, &cache);
  ExpectSameScan(uncached, cached);
  ASSERT_EQ(cached.certificates.size(), 1u);
  EXPECT_EQ(cached.certificates[0].path, "res/raw/ca.der");
  EXPECT_EQ(cached.cache_hits, 0u);  // distinct keys, no aliasing
  EXPECT_EQ(cache.Stats().entries, 2u);
}

TEST(ScanCacheTest, SuffixMatchIsCaseInsensitive) {
  const x509::Certificate cert = TestCert("case.com");
  appmodel::PackageFiles files;
  files.Add("res/raw/CA.DER", cert.DerBytes());
  const ScanResult result = Scanner().Scan(files);
  ASSERT_EQ(result.certificates.size(), 1u);
  EXPECT_FALSE(result.certificates[0].from_pem);
  EXPECT_TRUE(HasCertFileSuffix("UPPER.PEM"));
  EXPECT_TRUE(HasCertFileSuffix("mixed.CrT"));
  EXPECT_FALSE(HasCertFileSuffix("not-a-cert.txt"));
}

TEST(ScanCacheTest, InsertIsFirstWins) {
  ScanCache cache;
  const util::Bytes content = util::ToBytes("some scanned content");
  const ScanCache::Key key = ScanCache::MakeKey(content, false);
  EXPECT_FALSE(cache.Find(key).has_value());

  CachedFileScan scan;
  scan.pins.push_back(FoundPin::FromMatch("sha256/first", 0));
  const auto first =
      cache.Insert(key, std::make_shared<const CachedFileScan>(std::move(scan)));
  CachedFileScan again;
  again.pins.push_back(FoundPin::FromMatch("sha256/first", 0));
  const auto second =
      cache.Insert(key, std::make_shared<const CachedFileScan>(std::move(again)));
  EXPECT_EQ(first.get(), second.get());  // resident entry returned both times
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(cache.Stats().inserts, 2u);

  const auto found = cache.Find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->get(), first.get());
}

TEST(ScanCacheTest, ConcurrentSharedCacheScansAreIdentical) {
  // Many workers scanning overlapping packages through one cache: every
  // result must equal the uncached reference. Runs under TSan via the
  // `static`-labeled suite to prove the sharded map race-free.
  const Scanner scanner;
  std::vector<appmodel::PackageFiles> apps;
  for (int i = 0; i < 8; ++i) {
    // Pairs of apps share content ("dup0", "dup1", ...) to force cross-app
    // hits while unique files force misses.
    apps.push_back(MixedPackage("dup" + std::to_string(i / 2)));
  }
  std::vector<ScanResult> reference;
  reference.reserve(apps.size());
  for (const auto& app : apps) reference.push_back(scanner.Scan(app));

  ScanCache cache;
  std::vector<ScanResult> concurrent(apps.size());
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < apps.size(); i += kThreads) {
        concurrent[i] = scanner.Scan(apps[i], &cache);
      }
    });
  }
  for (std::thread& th : pool) th.join();

  for (std::size_t i = 0; i < apps.size(); ++i) {
    SCOPED_TRACE("app " + std::to_string(i));
    ExpectSameScan(reference[i], concurrent[i]);
  }
  const util::MemoStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_LE(stats.entries, stats.lookups);
}

}  // namespace
}  // namespace pinscope::staticanalysis
