// The pin rule's oracle: PinMatchLength and Scanner::Scan against the
// brute-force reference in testing/pin_reference.h, over generated subjects.
// For every subject the longest match at each start position, and the
// scanner's full pin list (strings and offsets), must agree with the
// reference. The in-place pin decoder is checked against its definition:
// base64-decode the body, then require the head's digest length.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "staticanalysis/scanner.h"
#include "testing/pin_reference.h"
#include "tls/pinning.h"
#include "util/base64.h"
#include "util/rng.h"

namespace pinscope::staticanalysis {
namespace {

using pinscope::testing::ExpectSameScan;
using pinscope::testing::ReferencePinLongest;
using pinscope::testing::ReferenceScan;

// PinMatchLength at every start position, then the scanner's pin list for
// `subject` as a text file and, between non-printable bytes, as a binary.
void ExpectAgrees(const std::string& subject) {
  const std::string where = "subject='" + subject + "'";
  for (std::size_t start = 0; start <= subject.size(); ++start) {
    EXPECT_EQ(PinMatchLength(subject, start),
              ReferencePinLongest(subject, start).value_or(0))
        << where << " start=" << start;
  }
  appmodel::PackageFiles files;
  files.AddText("smali/Pins.smali", subject);
  files.Add("lib/libpins.so",
            util::ToBytes(std::string("\0\x7f", 2) + subject + '\0'));
  SCOPED_TRACE(where);
  ExpectSameScan(Scanner().Scan(files), ReferenceScan(files));
}

std::string PinBody(util::Rng& rng, std::size_t len) {
  static const std::string b64 =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string body;
  for (std::size_t i = 0; i < len; ++i) {
    body.push_back(b64[static_cast<std::size_t>(rng.UniformInt(0, 63))]);
  }
  if (rng.Bernoulli(0.3) && len > 0) body.back() = '=';  // padding
  if (len > 2 && rng.Bernoulli(0.2)) {
    body[static_cast<std::size_t>(rng.UniformInt(1, static_cast<int>(len) - 2))] =
        '=';  // '=' inside the run
  }
  return body;
}

// Short pieces that build and break pin shapes: both heads and their
// prefixes, class bytes, bytes that end a body, and a non-printable byte
// that also ends a printable run.
std::string RandomSubject(util::Rng& rng) {
  static const std::string kPieces[] = {"sha1/", "sha256/", "sha", "sha2", "1",
                                        "256",   "/",       "=",   "A",    "z9",
                                        " ",     "\"",      "-",   "\n",   "\x01"};
  std::string s;
  const int parts = rng.UniformInt(0, 12);
  for (int i = 0; i < parts; ++i) {
    if (rng.Bernoulli(0.2)) {
      s += PinBody(rng, static_cast<std::size_t>(rng.UniformInt(0, 70)));
    } else {
      s += kPieces[static_cast<std::size_t>(rng.UniformInt(0, 14))];
    }
  }
  return s;
}

class RegexReference : public ::testing::TestWithParam<int> {};

TEST_P(RegexReference, AgreesWithBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int round = 0; round < 200; ++round) {
    ExpectAgrees(RandomSubject(rng));
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexReference, ::testing::Values(1, 2, 3, 4, 5));

// Filler, pins with bodies on both sides of the 28..64 window and of the
// base64 lengths of SHA-1 (27/28) and SHA-256 (43/44) digests, back-to-back
// pins, near-miss prefixes, subjects that end inside a run, and heads inside
// a body (every head byte is a body byte, so such a head belongs to the pin
// around it).
std::string PinSubject(util::Rng& rng) {
  static const std::size_t kBodyLengths[] = {27, 28, 43, 44, 64, 65};
  static const std::string kFiller[] = {" ", "\"", "\n", ", ", "x", "sha", "sha2",
                                        "sha256", "sha1/", "/"};
  std::string s;
  const int parts = rng.UniformInt(1, 5);
  for (int i = 0; i < parts; ++i) {
    if (rng.Bernoulli(0.4)) {
      s += kFiller[static_cast<std::size_t>(rng.UniformInt(0, 9))];
    }
    s += rng.Bernoulli(0.5) ? "sha1/" : "sha256/";
    std::string body =
        PinBody(rng, kBodyLengths[static_cast<std::size_t>(rng.UniformInt(0, 5))]);
    if (rng.Bernoulli(0.25)) {
      body.insert(static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(body.size()))),
                  rng.Bernoulli(0.5) ? "sha1/" : "sha256/");
    }
    s += body;
  }
  if (rng.Bernoulli(0.5)) s += kFiller[static_cast<std::size_t>(rng.UniformInt(0, 9))];
  return s;
}

TEST(RegexReferencePin, PinPatternAgreesOnGeneratedSubjects) {
  // The oracle's items spell exactly the rule the scanner reports.
  ASSERT_EQ(pinscope::testing::RenderPinRule(pinscope::testing::PinRule()), kPinRule);
  util::Rng rng(2022);
  for (int round = 0; round < 200; ++round) {
    ExpectAgrees(PinSubject(rng));
    if (HasFailure()) return;
  }
}

TEST(RegexReferencePin, BodyLengthsAroundTheWindow) {
  util::Rng rng(28);
  for (const char* prefix : {"sha1/", "sha256/"}) {
    for (std::size_t len : {27u, 28u, 43u, 44u, 64u, 65u}) {
      const std::string pin = prefix + PinBody(rng, len);
      ExpectAgrees(pin);                // run ends the subject
      ExpectAgrees("k=" + pin + "\"");  // run ends at a quote
      ExpectAgrees(pin + pin);          // back to back
    }
  }
}

TEST(RegexReferencePin, DecodeMatchesBase64DecodeAndDigestLength) {
  // Bodies of every length the rule admits and beyond, random or the real
  // encoding of a digest of about the head's length, under both heads and
  // two that are not.
  static const std::string kHeads[] = {"sha256/", "sha1/", "sha512/", "sha1"};
  util::Rng rng(17);
  int well_formed = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string& head = kHeads[static_cast<std::size_t>(rng.UniformInt(0, 3))];
    std::string body;
    if (rng.Bernoulli(0.5)) {
      body = PinBody(rng, static_cast<std::size_t>(rng.UniformInt(0, 70)));
    } else {
      const int off = rng.Bernoulli(0.6) ? 0 : rng.UniformInt(-1, 1);
      util::Bytes digest(
          static_cast<std::size_t>((head == "sha1/" ? 20 : 32) + off));
      for (std::uint8_t& b : digest) {
        b = static_cast<std::uint8_t>(rng.UniformU64(0, 255));
      }
      body = util::Base64Encode(digest);
      if (rng.Bernoulli(0.3)) body.erase(body.find_last_not_of('=') + 1);
      if (rng.Bernoulli(0.1)) body += "==";
    }
    const std::string text = head + body;
    SCOPED_TRACE(text);

    // The definition, read off the text (a "sha1" head and a body that
    // starts with '/' spell a sha1/ pin too).
    const bool sha256 = text.starts_with("sha256/");
    const bool sha1 = text.starts_with("sha1/");
    const std::size_t want = sha256 ? 32 : sha1 ? 20 : 0;
    std::optional<util::Bytes> decoded;
    if (want != 0) decoded = util::Base64Decode(text.substr(sha256 ? 7 : 5));
    const bool expect_ok = want != 0 && decoded && decoded->size() == want;
    const tls::PinDigest got = tls::DecodePinString(text);
    ASSERT_EQ(got.ok(), expect_ok);
    EXPECT_EQ(tls::Pin::FromPinString(text).has_value(), expect_ok);
    if (!expect_ok) continue;
    ++well_formed;
    EXPECT_EQ(got.form,
              sha256 ? tls::PinForm::kSpkiSha256 : tls::PinForm::kSpkiSha1);
    EXPECT_TRUE(std::ranges::equal(got.material(), *decoded));
    EXPECT_EQ(tls::Pin::FromPinString(text)->material, *decoded);
  }
  EXPECT_GT(well_formed, 400);
}

TEST(RegexReferencePin, PrintableRunBoundaryCutsAPin) {
  // In a binary file a non-printable byte ends the run, and with it any
  // pin body: the part before the cut matches only if it has 28 body bytes
  // of its own, and the part after is a new run without a head.
  util::Rng rng(6);
  for (std::size_t cut : {0u, 3u, 6u, 27u, 28u, 33u, 40u}) {
    const std::string pin = "sha256/" + PinBody(rng, 44);
    appmodel::PackageFiles files;
    files.Add("lib/libcut.so",
              util::ToBytes('\0' + ("lib-strings " + pin.substr(0, 7 + cut)) + '\x01' +
                            pin.substr(7 + cut) + " tail " + pin + '\0'));
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const ScanResult got = Scanner().Scan(files);
    ExpectSameScan(got, ReferenceScan(files));
    // The whole pin after the cut is always found; the cut one only when
    // its head and 28 body bytes precede the cut.
    ASSERT_FALSE(got.pins.empty());
    EXPECT_EQ(got.pins.back().pin_string(), pin);
    EXPECT_EQ(got.pins.size(), cut >= 28 ? 2u : 1u);
  }
}

}  // namespace
}  // namespace pinscope::staticanalysis
