#include "staticanalysis/scanner.h"

#include <gtest/gtest.h>

#include "appmodel/android_package.h"
#include "util/rng.h"
#include "x509/issuer.h"
#include "x509/pem.h"

namespace pinscope::staticanalysis {
namespace {

x509::Certificate TestCert(const std::string& cn) {
  x509::IssueSpec spec;
  spec.subject.set_common_name(cn);
  return x509::CertificateIssuer::SelfSignedLeaf("scan:" + cn, spec);
}

std::string TestPinString(const x509::Certificate& cert) {
  return tls::Pin::ForCertificate(cert, tls::PinForm::kSpkiSha256).ToPinString();
}

TEST(ScannerTest, FindsPemCertificateInTextAsset) {
  const x509::Certificate cert = TestCert("pem.scan.com");
  appmodel::PackageFiles files;
  files.AddText("assets/certs/server.pem", x509::PemEncode(cert));
  const ScanResult result = Scanner().Scan(files);
  ASSERT_EQ(result.certificates.size(), 1u);
  EXPECT_EQ(result.certificates[0].cert, cert);
  EXPECT_EQ(result.certificates[0].path, "assets/certs/server.pem");
  EXPECT_TRUE(result.HasPinningEvidence());
}

TEST(ScannerTest, FindsDerCertificateByExtension) {
  const x509::Certificate cert = TestCert("der.scan.com");
  appmodel::PackageFiles files;
  files.Add("res/raw/ca.der", cert.DerBytes());
  const ScanResult result = Scanner().Scan(files);
  ASSERT_EQ(result.certificates.size(), 1u);
  EXPECT_FALSE(result.certificates[0].from_pem);
}

TEST(ScannerTest, FindsEveryPaperExtension) {
  const x509::Certificate cert = TestCert("ext.scan.com");
  appmodel::PackageFiles files;
  for (const std::string& suffix : CertFileSuffixes()) {
    files.Add("certs/c" + suffix, cert.DerBytes());
  }
  EXPECT_EQ(Scanner().Scan(files).certificates.size(), CertFileSuffixes().size());
}

TEST(ScannerTest, FindsPinHashInSmaliText) {
  const std::string pin = TestPinString(TestCert("pin.scan.com"));
  appmodel::PackageFiles files;
  files.AddText("smali/com/vendor/Pins.smali", "const-string v0, \"" + pin + "\"");
  const ScanResult result = Scanner().Scan(files);
  ASSERT_EQ(result.pins.size(), 1u);
  EXPECT_EQ(result.pins[0].pin_string(), pin);
  ASSERT_TRUE(result.pins[0].well_formed());
}

TEST(ScannerTest, FindsPinInsideBinaryViaStringExtraction) {
  const std::string pin = TestPinString(TestCert("bin.scan.com"));
  util::Rng rng(5);
  appmodel::PackageFiles files;
  files.Add("lib/arm64-v8a/libnet.so",
            appmodel::RenderBinaryWithStrings({pin, "https://x.com"}, rng));
  const ScanResult result = Scanner().Scan(files);
  ASSERT_EQ(result.pins.size(), 1u);
  EXPECT_EQ(result.pins[0].pin_string(), pin);
}

TEST(ScannerTest, MalformedPinIsReportedUnparsed) {
  appmodel::PackageFiles files;
  // Right shape for the regex, wrong digest length for a real pin.
  files.AddText("notes.txt", "sha256/" + std::string(30, 'A'));
  const ScanResult result = Scanner().Scan(files);
  ASSERT_EQ(result.pins.size(), 1u);
  EXPECT_FALSE(result.pins[0].well_formed());
  EXPECT_FALSE(result.HasPinningEvidence());
}

TEST(ScannerTest, CleanPackageHasNoEvidence) {
  appmodel::PackageFiles files;
  files.AddText("assets/config.json", "{\"api\": \"https://api.x.com\"}");
  files.AddText("smali/com/app/Main.smali", "const-string v0, \"hello\"");
  const ScanResult result = Scanner().Scan(files);
  EXPECT_TRUE(result.certificates.empty());
  EXPECT_TRUE(result.pins.empty());
  EXPECT_FALSE(result.HasPinningEvidence());
  EXPECT_EQ(result.files_scanned, 2u);
}

TEST(ScannerTest, CorruptCertFileFallsThroughGracefully) {
  appmodel::PackageFiles files;
  files.AddText("broken.pem", "-----BEGIN CERTIFICATE-----\nnot base64\n"
                              "-----END CERTIFICATE-----");
  const ScanResult result = Scanner().Scan(files);
  EXPECT_TRUE(result.certificates.empty());
}

TEST(ScannerTest, CountsBytesScanned) {
  appmodel::PackageFiles files;
  files.AddText("a.txt", "12345");
  const ScanResult result = Scanner().Scan(files);
  EXPECT_EQ(result.bytes_scanned, 5u);
}

}  // namespace
}  // namespace pinscope::staticanalysis
