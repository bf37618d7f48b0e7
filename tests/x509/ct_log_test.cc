#include "x509/ct_log.h"

#include <gtest/gtest.h>

#include <span>

#include "util/base64.h"
#include "util/hex.h"
#include "x509/issuer.h"

namespace pinscope::x509 {
namespace {

Certificate MakeCert(const std::string& cn) {
  IssueSpec spec;
  spec.subject.set_common_name(cn);
  return CertificateIssuer::SelfSignedLeaf("ct:" + cn, spec);
}

TEST(CtLogTest, FindsBySha256HexDigest) {
  CtLog log;
  const Certificate cert = MakeCert("ct.example.com");
  log.Add(cert);
  const auto digest = cert.SpkiSha256();
  const auto found =
      log.FindBySpkiDigest(util::HexEncode(util::Bytes(digest.begin(), digest.end())));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], cert);
}

TEST(CtLogTest, FindsBySha256Base64Digest) {
  CtLog log;
  const Certificate cert = MakeCert("b64.example.com");
  log.Add(cert);
  const auto digest = cert.SpkiSha256();
  const auto found = log.FindBySpkiDigest(
      util::Base64Encode(util::Bytes(digest.begin(), digest.end())));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], cert);
}

TEST(CtLogTest, FindsBySha1Digest) {
  CtLog log;
  const Certificate cert = MakeCert("sha1.example.com");
  log.Add(cert);
  const auto digest = cert.SpkiSha1();
  EXPECT_EQ(log.FindBySpkiDigest(
                   util::HexEncode(util::Bytes(digest.begin(), digest.end())))
                .size(),
            1u);
}

TEST(CtLogTest, UnknownDigestYieldsEmpty) {
  CtLog log;
  log.Add(MakeCert("known.example.com"));
  EXPECT_TRUE(log.FindBySpkiDigest(std::string(64, 'a')).empty());
  EXPECT_TRUE(log.FindBySpkiDigest("not a digest at all").empty());
}

TEST(CtLogTest, AddIsIdempotentPerFingerprint) {
  CtLog log;
  const Certificate cert = MakeCert("dup.example.com");
  log.Add(cert);
  log.Add(cert);
  EXPECT_EQ(log.size(), 1u);
}

TEST(CtLogTest, SharedKeyReturnsAllCertificates) {
  // Renewal with key reuse: two certs, one SPKI — a digest query must return
  // both (exactly what crt.sh does).
  CtLog log;
  const crypto::KeyPair key = crypto::KeyPair::FromLabel("reused");
  const CertificateIssuer ca = CertificateIssuer::SelfSignedRoot(
      "ct-ca", DistinguishedName{"CT CA", "", "US"}, -util::kMillisPerYear,
      util::kMillisPerYear * 10);
  IssueSpec s1;
  s1.subject.set_common_name("renewed.example.com");
  IssueSpec s2 = s1;
  s2.not_after = 2 * util::kMillisPerYear;
  log.Add(ca.IssueForKey(s1, key));
  log.Add(ca.IssueForKey(s2, key));
  const auto digest = key.SpkiSha256();
  EXPECT_EQ(log.FindBySpkiDigest(
                   util::HexEncode(util::Bytes(digest.begin(), digest.end())))
                .size(),
            2u);
}

TEST(CtLogTest, RawDigestLookupYieldsIndicesInLoggingOrder) {
  CtLog log;
  const Certificate a = MakeCert("a.example.com");
  const Certificate b = MakeCert("b.example.com");
  log.Add(a);
  log.Add(b);
  const auto by_sha256 = log.SpkiDigestIndices(b.SpkiSha256());
  ASSERT_EQ(by_sha256.size(), 1u);
  EXPECT_EQ(log.certificate(by_sha256[0]), b);
  const auto by_sha1 = log.SpkiDigestIndices(a.SpkiSha1());
  ASSERT_EQ(by_sha1.size(), 1u);
  EXPECT_EQ(log.certificate(by_sha1[0]), a);

  // The string form decodes into the same index.
  const auto digest = b.SpkiSha256();
  const auto found = log.FindBySpkiDigest(
      util::Base64Encode(util::Bytes(digest.begin(), digest.end())));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], log.certificate(by_sha256[0]));
}

TEST(CtLogTest, UnknownRawDigestYieldsNoIndices) {
  CtLog log;
  log.Add(MakeCert("known.example.com"));
  const util::Bytes unknown(32, 0xab);
  EXPECT_TRUE(log.SpkiDigestIndices(unknown).empty());
  EXPECT_TRUE(log.SpkiDigestIndices(util::Bytes{}).empty());
  // A truncated digest never matches the full one.
  const auto digest = MakeCert("known.example.com").SpkiSha256();
  EXPECT_TRUE(log.SpkiDigestIndices(std::span(digest).first(20)).empty());
}

TEST(CtLogTest, FindBySubjectCn) {
  CtLog log;
  const Certificate cert = MakeCert("by-cn.example.com");
  log.Add(cert);
  EXPECT_EQ(log.FindBySubjectCn("by-cn.example.com").size(), 1u);
  EXPECT_TRUE(log.FindBySubjectCn("missing.example.com").empty());
}

}  // namespace
}  // namespace pinscope::x509
