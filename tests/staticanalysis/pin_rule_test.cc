// The pin rule's matcher, one test per construct of the rule's regex
// sha(1|256)/[a-zA-Z0-9+/=]{28,64}: the literal head, the alternation, the
// body class and its {28,64} bound. Then the scanner's sweep over it: the
// prefilter's `sha` anchor, leftmost-longest non-overlapping matches with
// their offsets, and one Scanner shared by four threads.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "staticanalysis/scanner.h"
#include "testing/pin_reference.h"
#include "x509/pem.h"

namespace pinscope::staticanalysis {
namespace {

const std::string kBody43 = std::string(43, 'A');

// The scanner's pins for `text` as one text file.
std::vector<FoundPin> ScanText(const std::string& text) {
  appmodel::PackageFiles files;
  files.AddText("notes.txt", text);
  return Scanner().Scan(files).pins;
}

TEST(RegexTest, LiteralMatching) {
  EXPECT_EQ(PinMatchLength("sha1/" + std::string(28, 'B'), 0), 33u);
  EXPECT_EQ(PinMatchLength("sha/" + std::string(28, 'B'), 0), 0u);
  EXPECT_EQ(PinMatchLength("shb1/" + std::string(28, 'B'), 0), 0u);
  EXPECT_EQ(PinMatchLength("SHA1/" + std::string(28, 'B'), 0), 0u);
  EXPECT_EQ(PinMatchLength("sha1" + std::string(28, 'B'), 0), 0u);
  EXPECT_EQ(PinMatchLength("", 0), 0u);
  EXPECT_EQ(PinMatchLength("sha1/", 0), 0u);
}

TEST(RegexTest, Alternation) {
  const std::string body(30, 'C');
  EXPECT_EQ(PinMatchLength("sha1/" + body, 0), 35u);
  EXPECT_EQ(PinMatchLength("sha256/" + body, 0), 37u);
  for (const char* head : {"sha2/", "sha25/", "sha12/", "sha512/", "sha2561/"}) {
    EXPECT_EQ(PinMatchLength(head + body, 0), 0u) << head;
  }
}

TEST(RegexTest, CharacterClasses) {
  // A body byte extends the run; any other byte ends it.
  const std::string in_class =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/=";
  for (int c = 0; c < 256; ++c) {
    const char byte = static_cast<char>(c);
    const std::string subject = "sha256/" + std::string(28, 'D') + byte + "-";
    const bool body = in_class.find(byte) != std::string::npos;
    EXPECT_EQ(PinMatchLength(subject, 0), body ? 36u : 35u) << c;
  }
}

TEST(RegexTest, BoundedQuantifiers) {
  for (const std::string head : {"sha1/", "sha256/"}) {
    EXPECT_EQ(PinMatchLength(head + std::string(27, 'E'), 0), 0u);
    EXPECT_EQ(PinMatchLength(head + std::string(27, 'E') + "-", 0), 0u);
    EXPECT_EQ(PinMatchLength(head + std::string(28, 'E'), 0), head.size() + 28);
    EXPECT_EQ(PinMatchLength(head + std::string(64, 'E'), 0), head.size() + 64);
    // Greedy, capped at 64.
    EXPECT_EQ(PinMatchLength(head + std::string(65, 'E'), 0), head.size() + 64);
    EXPECT_EQ(PinMatchLength(head + std::string(200, 'E'), 0), head.size() + 64);
  }
}

TEST(RegexTest, MatchAtHonorsPosition) {
  const std::string text = "xsha1/" + std::string(30, 'F');
  EXPECT_EQ(PinMatchLength(text, 0), 0u);
  EXPECT_EQ(PinMatchLength(text, 1), 35u);
  EXPECT_EQ(PinMatchLength(text, 2), 0u);
  EXPECT_EQ(PinMatchLength(text, text.size()), 0u);
  EXPECT_EQ(PinMatchLength(text, text.size() + 1), 0u);
}

TEST(RegexTest, ThePaperPinPattern) {
  const std::string sha256_pin = "sha256/" + kBody43 + "=";
  const std::string sha1_pin = "sha1/BBBBBBBBBBBBBBBBBBBBBBBBBBB=";
  EXPECT_EQ(ScanText("pin: " + sha256_pin).size(), 1u);
  EXPECT_EQ(ScanText(sha1_pin).size(), 1u);
  EXPECT_TRUE(ScanText("sha256/short").empty());
  EXPECT_TRUE(ScanText("md5/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA").empty());

  const std::vector<FoundPin> pins = ScanText("a " + sha256_pin + " b " + sha1_pin);
  ASSERT_EQ(pins.size(), 2u);
  EXPECT_EQ(pins[0].pin_string, sha256_pin);
  EXPECT_EQ(pins[1].pin_string, sha1_pin);
}

TEST(RegexTest, PinPatternAlsoMatchesHexDigests) {
  // The paper's 28-64 length window covers hex-encoded SHA-1 (40) and
  // SHA-256 (64) digests too.
  EXPECT_EQ(PinMatchLength("sha256/" + std::string(64, 'a'), 0), 71u);
  EXPECT_EQ(PinMatchLength("sha1/" + std::string(40, '0'), 0), 45u);
}

TEST(RegexTest, FindAllIsNonOverlapping) {
  // Head bytes are body bytes: a second pin written straight after a short
  // first one is swallowed by the first body (capped at 64), and the next
  // match starts only after it.
  const std::string first = "sha1/" + std::string(28, 'G');
  const std::string second = "sha256/" + kBody43 + "=";
  const std::vector<FoundPin> pins = ScanText(first + second + " " + second);
  ASSERT_EQ(pins.size(), 2u);
  EXPECT_EQ(pins[0].offset, 0u);
  EXPECT_EQ(pins[0].pin_string, (first + second).substr(0, 5 + 64));
  EXPECT_EQ(pins[1].offset, first.size() + second.size() + 1);
  EXPECT_EQ(pins[1].pin_string, second);
}

TEST(RegexTest, FindAllReportsPositions) {
  const std::string pin = "sha256/" + kBody43 + "=";
  const std::string text = "abba " + pin + "\n\"" + pin + "\" sha1/x";
  const std::vector<FoundPin> pins = ScanText(text);
  ASSERT_EQ(pins.size(), 2u);
  EXPECT_EQ(pins[0].offset, 5u);
  EXPECT_EQ(pins[1].offset, 5u + pin.size() + 2);
  for (const FoundPin& p : pins) EXPECT_EQ(text.substr(p.offset, pin.size()), pin);
}

TEST(RegexAnchorTest, PinPatternAnchorsOnItsPrefix) {
  // The prefilter sweeps for the PEM marker and for `sha`, the head every
  // pin-rule match starts with.
  const Scanner scanner;
  EXPECT_EQ(scanner.prefilter().literals(),
            (std::vector<std::string>{std::string(x509::kPemBegin), "sha"}));
  EXPECT_TRUE(kPinRule.starts_with(scanner.prefilter().literals()[1]));
}

TEST(RegexPrefilterTest, FindAllMatchesReferenceOnPinLikeSubjects) {
  // The scanner tries the matcher only at prefilter `sha` hits; trying it at
  // every position, with the same non-overlapping cursor, finds the same
  // pins.
  const std::string pin44 = "sha256/" + kBody43 + "=";
  const std::vector<std::string> subjects = {
      "",
      "no pins here at all",
      pin44,
      "prefix " + pin44 + " suffix",
      pin44 + pin44,                       // adjacent matches
      "sha sha2 sha25 sha256/short",       // many near-miss literals
      "sha256/" + std::string(27, 'B'),    // one char below the minimum
      "sha1/" + std::string(28, 'C'),
      std::string(500, 'x') + pin44,       // literal deep in the subject
      pin44.substr(0, pin44.size() - 1),   // truncated at end of subject
      "shasha1/" + std::string(30, 'H'),   // a head right after a near miss
  };
  for (const std::string& s : subjects) {
    SCOPED_TRACE(s.substr(0, 40));
    std::vector<std::pair<std::size_t, std::string>> every_position;
    for (std::size_t pos = 0; pos < s.size();) {
      if (const std::size_t len = PinMatchLength(s, pos)) {
        every_position.emplace_back(pos, s.substr(pos, len));
        pos += len;
      } else {
        ++pos;
      }
    }
    const std::vector<FoundPin> pins = ScanText(s);
    ASSERT_EQ(pins.size(), every_position.size());
    for (std::size_t i = 0; i < pins.size(); ++i) {
      EXPECT_EQ(pins[i].offset, every_position[i].first) << i;
      EXPECT_EQ(pins[i].pin_string, every_position[i].second) << i;
    }
  }
}

// Pin-dense content with many matches, near misses and filler.
std::string PinDenseSubject() {
  std::string s;
  for (int i = 0; i < 400; ++i) {
    s += "key" + std::to_string(i) + " = \"sha256/";
    s += std::string(static_cast<std::size_t>(27 + i % 40),
                     static_cast<char>('A' + i % 26));
    s += i % 3 == 0 ? "=\"\n" : "\" sha1/short\n";
  }
  return s;
}

TEST(RegexTest, SharedScannerAcrossThreads) {
  // One const Scanner, four threads: the prefilter and run scratch are
  // per-thread, so every thread sees exactly the serial result.
  const std::string subject = PinDenseSubject();
  appmodel::PackageFiles files;
  files.AddText("smali/Dense.smali", subject);
  files.Add("lib/libdense.so", util::ToBytes(std::string(1, '\0') + subject));

  const Scanner scanner;
  const ScanResult serial = scanner.Scan(files);
  ASSERT_GT(serial.pins.size(), 400u);

  std::vector<ScanResult> results(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) results[t] = scanner.Scan(files);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const ScanResult& got : results) pinscope::testing::ExpectSameScan(got, serial);
}

}  // namespace
}  // namespace pinscope::staticanalysis
