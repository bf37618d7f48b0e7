#include "staticanalysis/regex.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"

namespace pinscope::staticanalysis {
namespace {

TEST(RegexTest, LiteralMatching) {
  Regex re("abc");
  EXPECT_TRUE(re.Search("xxabcxx"));
  EXPECT_FALSE(re.Search("ab"));
  EXPECT_FALSE(re.Search(""));
}

TEST(RegexTest, DotMatchesAnyChar) {
  Regex re("a.c");
  EXPECT_TRUE(re.Search("abc"));
  EXPECT_TRUE(re.Search("a.c"));
  EXPECT_FALSE(re.Search("ac"));
}

TEST(RegexTest, CharacterClasses) {
  Regex re("[a-c][0-9]");
  EXPECT_TRUE(re.Search("b7"));
  EXPECT_FALSE(re.Search("d7"));
  EXPECT_FALSE(re.Search("bx"));
}

TEST(RegexTest, NegatedClass) {
  Regex re("[^0-9]+");
  EXPECT_TRUE(re.Search("abc"));
  EXPECT_FALSE(re.Search("123"));
}

TEST(RegexTest, Alternation) {
  Regex re("sha(1|256)");
  EXPECT_TRUE(re.Search("sha1"));
  EXPECT_TRUE(re.Search("sha256"));
  EXPECT_FALSE(re.Search("sha512x"));  // matches "sha" prefix? no: needs 1|256
}

TEST(RegexTest, Quantifiers) {
  EXPECT_TRUE(Regex("ab*c").Search("ac"));
  EXPECT_TRUE(Regex("ab*c").Search("abbbc"));
  EXPECT_FALSE(Regex("ab+c").Search("ac"));
  EXPECT_TRUE(Regex("ab+c").Search("abc"));
  EXPECT_TRUE(Regex("ab?c").Search("ac"));
  EXPECT_TRUE(Regex("ab?c").Search("abc"));
  EXPECT_FALSE(Regex("ab?c").Search("abbc"));
}

TEST(RegexTest, BoundedQuantifiers) {
  Regex re("a{2,4}");
  EXPECT_FALSE(re.Search("a"));
  EXPECT_TRUE(re.Search("aa"));
  std::size_t len = 0;
  EXPECT_TRUE(re.MatchAt("aaaaa", 0, &len));
  EXPECT_EQ(len, 4u);  // greedy, capped at 4
}

TEST(RegexTest, ExactCountQuantifier) {
  Regex re("x{3}");
  EXPECT_FALSE(re.Search("xx"));
  EXPECT_TRUE(re.Search("xxx"));
}

TEST(RegexTest, EscapedMetacharacters) {
  Regex re("a\\.b\\+");
  EXPECT_TRUE(re.Search("a.b+"));
  EXPECT_FALSE(re.Search("axb+"));
}

TEST(RegexTest, ThePaperPinPattern) {
  Regex re("sha(1|256)/[a-zA-Z0-9+/=]{28,64}");
  const std::string sha256_pin =
      "sha256/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=";
  const std::string sha1_pin = "sha1/BBBBBBBBBBBBBBBBBBBBBBBBBBB=";
  EXPECT_TRUE(re.Search("pin: " + sha256_pin));
  EXPECT_TRUE(re.Search(sha1_pin));
  EXPECT_FALSE(re.Search("sha256/short"));
  EXPECT_FALSE(re.Search("md5/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"));

  const auto matches = re.FindAll("a " + sha256_pin + " b " + sha1_pin);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].text, sha256_pin);
  EXPECT_EQ(matches[1].text, sha1_pin);
}

TEST(RegexTest, PinPatternAlsoMatchesHexDigests) {
  // The paper's 28-64 length window covers hex-encoded SHA-1 (40) and
  // SHA-256 (64) digests too.
  Regex re("sha(1|256)/[a-zA-Z0-9+/=]{28,64}");
  EXPECT_TRUE(re.Search("sha256/" + std::string(64, 'a')));
  EXPECT_TRUE(re.Search("sha1/" + std::string(40, '0')));
}

TEST(RegexTest, FindAllIsNonOverlapping) {
  Regex re("aa");
  const auto matches = re.FindAll("aaaa");
  EXPECT_EQ(matches.size(), 2u);
}

TEST(RegexTest, FindAllReportsPositions) {
  Regex re("b+");
  const auto matches = re.FindAll("abba b");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].position, 1u);
  EXPECT_EQ(matches[0].text, "bb");
  EXPECT_EQ(matches[1].position, 5u);
}

TEST(RegexTest, LiteralPrefixExtraction) {
  EXPECT_EQ(Regex("sha(1|256)/x").literal_prefix(), "sha");
  EXPECT_EQ(Regex("abc").literal_prefix(), "abc");
  EXPECT_EQ(Regex("[ab]c").literal_prefix(), "");
  EXPECT_EQ(Regex("a|b").literal_prefix(), "");
  EXPECT_EQ(Regex("ab*").literal_prefix(), "a");
}

TEST(RegexTest, GroupsNestAndQuantify) {
  Regex re("(ab)+c");
  EXPECT_TRUE(re.Search("ababc"));
  EXPECT_FALSE(re.Search("c"));
  Regex nested("a((b|c)d)*e");
  EXPECT_TRUE(nested.Search("abdcde"));
  EXPECT_TRUE(nested.Search("ae"));
}

TEST(RegexTest, InvalidPatternsThrow) {
  EXPECT_THROW(Regex("(unclosed"), util::ParseError);
  EXPECT_THROW(Regex("[unclosed"), util::ParseError);
  EXPECT_THROW(Regex("a{5,2}"), util::ParseError);
  EXPECT_THROW(Regex("*nothing"), util::ParseError);
  EXPECT_THROW(Regex("a{x}"), util::ParseError);
  EXPECT_THROW(Regex("closed)"), util::ParseError);
}

TEST(RegexTest, EmptyPatternMatchesEverywhere) {
  Regex re("");
  EXPECT_TRUE(re.Search(""));
  EXPECT_TRUE(re.Search("anything"));
}

TEST(RegexTest, MatchAtHonorsPosition) {
  Regex re("bc");
  EXPECT_FALSE(re.MatchAt("abc", 0));
  EXPECT_TRUE(re.MatchAt("abc", 1));
}

TEST(RegexTest, EmptyLoopsTerminate) {
  // A quantified group that can match empty loops back to itself without
  // consuming; the NFA's visited set ends the closure.
  std::size_t len = 0;
  EXPECT_TRUE(Regex("(a*)*b").MatchAt("aab", 0, &len));
  EXPECT_EQ(len, 3u);
  EXPECT_TRUE(Regex("(|a)+").MatchAt("aaa", 0, &len));
  EXPECT_EQ(len, 3u);
  EXPECT_TRUE(Regex("()*").MatchAt("x", 0, &len));
  EXPECT_EQ(len, 0u);
}

TEST(RegexTest, ExpansionBeyondTheStateLimitThrows) {
  EXPECT_NO_THROW(Regex("a{100000}"));
  EXPECT_THROW(Regex("(a{1000}){2000}"), util::ParseError);
}

// Pin-like subject with many matches, near misses and filler.
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

TEST(RegexTest, SharedRegexFindAllAcrossThreads) {
  // One const Regex, four threads: each thread has its own VM scratch, so
  // every thread sees exactly the serial result.
  const Regex re("sha(1|256)/[a-zA-Z0-9+/=]{28,64}");
  const std::string subject = PinDenseSubject();
  const std::vector<RegexMatch> serial = re.FindAll(subject);
  ASSERT_GT(serial.size(), 100u);

  std::vector<std::vector<RegexMatch>> results(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) results[t] = re.FindAll(subject);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<RegexMatch>& got : results) {
    ASSERT_EQ(got.size(), serial.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].position, serial[i].position);
      EXPECT_EQ(got[i].text, serial[i].text);
    }
  }
}

TEST(RegexTest, GenerationWrapResetsVisitedStamps) {
  // Stamps left by an earlier match must never read as "visited" once the
  // generation counter wraps. An "a{60}" match leaves stamps one
  // generation apart along its state ids; an "a{70}" match run across the
  // wrap reaches the same ids one generation apart too, so for some wrap
  // point its post-wrap generations equal those stale stamps unless the
  // wrap clears them. Each wrap point runs on a fresh thread, so its VM
  // scratch starts empty.
  const Regex shorter("a{60}");
  const Regex longer("a{70}");
  const std::string subject(70, 'a');
  for (std::uint32_t before_wrap = 0; before_wrap < 24; ++before_wrap) {
    std::thread([&] {
      ASSERT_TRUE(shorter.MatchAt(subject, 0));
      internal::SetMatchGenerationForTesting(UINT32_MAX - before_wrap);
      std::size_t len = 0;
      EXPECT_TRUE(longer.MatchAt(subject, 0, &len)) << before_wrap;
      EXPECT_EQ(len, subject.size()) << before_wrap;
    }).join();
  }
}

}  // namespace
}  // namespace pinscope::staticanalysis
