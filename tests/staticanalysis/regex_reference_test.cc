// Cross-validation: the regex engine against a brute-force reference
// implementation, over randomly generated patterns and subjects and over
// the paper's pin pattern on generated pin-like subjects. For every subject
// the longest match at each start position (MatchAt) and the full FindAll
// list must agree with the reference.
#include <gtest/gtest.h>

#include <bitset>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "staticanalysis/regex.h"
#include "util/rng.h"

namespace pinscope::staticanalysis {
namespace {

constexpr std::size_t kMany = std::string::npos;  // unbounded repetition

// The reference grammar: a sequence of items, each a single-byte atom (a
// literal, '.', or a class) or a group of alternatives, repeated
// {min, max} times. Patterns are generated as items and rendered to text,
// so the reference never parses.
struct Item {
  std::string spelling;   // atom text, e.g. "a", ".", "[^a]"
  std::bitset<256> accepts;  // bytes the atom matches
  bool group = false;
  std::vector<std::vector<Item>> alternatives;  // when `group`
  std::size_t min = 1;
  std::size_t max = 1;
};
using Seq = std::vector<Item>;

std::set<std::size_t> SeqEnds(const Seq& seq, std::size_t i,
                              const std::string& text, std::size_t at);

// End positions of exactly one occurrence of `item` starting at `at`.
std::set<std::size_t> OnceEnds(const Item& item, const std::string& text,
                               std::size_t at) {
  if (!item.group) {
    if (at < text.size() && item.accepts[static_cast<unsigned char>(text[at])]) {
      return {at + 1};
    }
    return {};
  }
  std::set<std::size_t> out;
  for (const Seq& alt : item.alternatives) out.merge(SeqEnds(alt, 0, text, at));
  return out;
}

std::set<std::size_t> Step(const Item& item, const std::string& text,
                           const std::set<std::size_t>& from) {
  std::set<std::size_t> out;
  for (std::size_t p : from) out.merge(OnceEnds(item, text, p));
  return out;
}

// End positions of `item` repeated min..max times from `at`. Past `min`,
// a position already reached is not expanded again: the repetitions left
// from its first arrival are a superset of those left from a later one.
std::set<std::size_t> RepeatEnds(const Item& item, const std::string& text,
                                 std::size_t at) {
  std::set<std::size_t> frontier{at};
  for (std::size_t k = 0; k < item.min; ++k) frontier = Step(item, text, frontier);
  std::set<std::size_t> out = frontier;
  for (std::size_t k = item.min; k < item.max && !frontier.empty(); ++k) {
    std::set<std::size_t> fresh;
    for (std::size_t p : Step(item, text, frontier)) {
      if (out.insert(p).second) fresh.insert(p);
    }
    frontier = std::move(fresh);
  }
  return out;
}

std::set<std::size_t> SeqEnds(const Seq& seq, std::size_t i,
                              const std::string& text, std::size_t at) {
  if (i == seq.size()) return {at};
  std::set<std::size_t> out;
  for (std::size_t p : RepeatEnds(seq[i], text, at)) {
    out.merge(SeqEnds(seq, i + 1, text, p));
  }
  return out;
}

std::optional<std::size_t> RefLongest(const Seq& pattern, const std::string& text,
                                      std::size_t start) {
  const std::set<std::size_t> ends = SeqEnds(pattern, 0, text, start);
  if (ends.empty()) return std::nullopt;
  return *ends.rbegin() - start;
}

// Leftmost-longest, non-overlapping; an empty match advances one byte.
std::vector<RegexMatch> RefFindAll(const Seq& pattern, const std::string& text) {
  std::vector<RegexMatch> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    if (const auto len = RefLongest(pattern, text, pos)) {
      out.push_back({pos, text.substr(pos, *len)});
      pos += *len == 0 ? 1 : *len;
    } else {
      ++pos;
    }
  }
  return out;
}

std::string Render(const Seq& seq);

std::string Render(const Item& item) {
  std::string out;
  if (item.group) {
    out += '(';
    for (std::size_t i = 0; i < item.alternatives.size(); ++i) {
      if (i > 0) out += '|';
      out += Render(item.alternatives[i]);
    }
    out += ')';
  } else {
    out += item.spelling;
  }
  const std::string min = std::to_string(item.min);
  if (item.min == 1 && item.max == 1) return out;
  if (item.min == 0 && item.max == 1) return out + "?";
  if (item.min == 0 && item.max == kMany) return out + "*";
  if (item.min == 1 && item.max == kMany) return out + "+";
  if (item.max == kMany) return out + "{" + min + ",}";
  if (item.min == item.max) return out + "{" + min + "}";
  return out + "{" + min + "," + std::to_string(item.max) + "}";
}

std::string Render(const Seq& seq) {
  std::string out;
  for (const Item& item : seq) out += Render(item);
  return out;
}

Item Atom(std::string spelling, std::string_view bytes, bool negate = false) {
  Item item;
  item.spelling = std::move(spelling);
  for (char c : bytes) item.accepts.set(static_cast<unsigned char>(c));
  if (negate) item.accepts.flip();
  return item;
}

Item RandomAtom(util::Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return Atom("a", "a");
    case 1:
      return Atom("b", "b");
    case 2:
      return Atom("c", "c");
    case 3:
      return Atom(".", "", /*negate=*/true);
    case 4:
      return Atom("[ab]", "ab");
    default:
      return Atom("[^a]", "a", /*negate=*/true);
  }
}

// One of ?, *, +, {m}, {m,}, {m,n} with m, n <= 3, or none.
void RandomQuantifier(util::Rng& rng, Item& item) {
  const auto small = [&] { return static_cast<std::size_t>(rng.UniformInt(0, 3)); };
  switch (rng.UniformInt(0, 9)) {
    case 0:
      item.min = 0;
      item.max = 1;
      break;
    case 1:
      item.min = 0;
      item.max = kMany;
      break;
    case 2:
      item.min = 1;
      item.max = kMany;
      break;
    case 3:
      item.min = item.max = small();
      break;
    case 4:
      item.min = small();
      item.max = kMany;
      break;
    case 5:
      item.min = small();
      item.max = item.min + small();
      break;
    default:
      break;  // exactly once
  }
}

// A group of one to three alternatives of zero to three quantified atoms;
// groups do not nest.
Item RandomGroup(util::Rng& rng) {
  Item group;
  group.group = true;
  const int alts = rng.UniformInt(1, 3);
  for (int a = 0; a < alts; ++a) {
    Seq alt;
    const int len = rng.UniformInt(0, 3);
    for (int i = 0; i < len; ++i) {
      alt.push_back(RandomAtom(rng));
      if (rng.Bernoulli(0.3)) RandomQuantifier(rng, alt.back());
    }
    group.alternatives.push_back(std::move(alt));
  }
  return group;
}

Seq RandomPattern(util::Rng& rng) {
  Seq p;
  const int len = rng.UniformInt(1, 4);
  for (int i = 0; i < len; ++i) {
    p.push_back(rng.Bernoulli(0.25) ? RandomGroup(rng) : RandomAtom(rng));
    if (rng.Bernoulli(0.5)) RandomQuantifier(rng, p.back());
  }
  return p;
}

std::string RandomText(util::Rng& rng) {
  static const std::string chars = "abcx";
  std::string t;
  const int len = rng.UniformInt(0, 10);
  for (int i = 0; i < len; ++i) {
    t.push_back(chars[static_cast<std::size_t>(rng.UniformInt(0, 3))]);
  }
  return t;
}

// MatchAt at every start position, then FindAll and Search, against the
// reference.
void ExpectAgrees(const Regex& re, const Seq& pattern, const std::string& text) {
  const std::string where = "pattern='" + re.pattern() + "' text='" + text + "'";
  for (std::size_t start = 0; start <= text.size(); ++start) {
    const std::optional<std::size_t> want = RefLongest(pattern, text, start);
    std::size_t len = kMany;
    ASSERT_EQ(re.MatchAt(text, start, &len), want.has_value())
        << where << " start=" << start;
    if (want) {
      EXPECT_EQ(len, *want) << where << " start=" << start;
    }
  }
  const std::vector<RegexMatch> want = RefFindAll(pattern, text);
  const std::vector<RegexMatch> got = re.FindAll(text);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].position, want[i].position) << where << " match " << i;
    EXPECT_EQ(got[i].text, want[i].text) << where << " match " << i;
  }
  EXPECT_EQ(re.Search(text), !want.empty()) << where;
}

class RegexReference : public ::testing::TestWithParam<int> {};

TEST_P(RegexReference, AgreesWithBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int round = 0; round < 400; ++round) {
    const Seq pattern = RandomPattern(rng);
    const Regex re(Render(pattern));
    for (int subject = 0; subject < 3; ++subject) {
      ExpectAgrees(re, pattern, RandomText(rng));
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexReference, ::testing::Values(1, 2, 3, 4, 5));

// sha(1|256)/[a-zA-Z0-9+/=]{28,64}, as the scanner compiles it.
Seq PinPattern() {
  Item digits;
  digits.group = true;
  digits.alternatives = {{Atom("1", "1")},
                         {Atom("2", "2"), Atom("5", "5"), Atom("6", "6")}};
  Item body = Atom("[a-zA-Z0-9+/=]",
                   "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                   "0123456789+/=");
  body.min = 28;
  body.max = 64;
  return {Atom("s", "s"), Atom("h", "h"), Atom("a", "a"), digits, Atom("/", "/"),
          body};
}

std::string PinBody(util::Rng& rng, std::size_t len) {
  static const std::string b64 =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string body;
  for (std::size_t i = 0; i < len; ++i) {
    body.push_back(b64[static_cast<std::size_t>(rng.UniformInt(0, 63))]);
  }
  if (rng.Bernoulli(0.3)) body.back() = '=';  // padding
  if (len > 2 && rng.Bernoulli(0.2)) {
    body[static_cast<std::size_t>(rng.UniformInt(1, static_cast<int>(len) - 2))] =
        '=';  // '=' inside the run
  }
  return body;
}

// Filler, pins with bodies on both sides of the 28..64 window and of the
// base64 lengths of SHA-1 (27/28) and SHA-256 (43/44) digests, back-to-back
// pins, near-miss prefixes, and subjects that end inside a run.
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
    s += PinBody(rng, kBodyLengths[static_cast<std::size_t>(rng.UniformInt(0, 5))]);
  }
  if (rng.Bernoulli(0.5)) s += kFiller[static_cast<std::size_t>(rng.UniformInt(0, 9))];
  return s;
}

TEST(RegexReferencePin, PinPatternAgreesOnGeneratedSubjects) {
  const Seq pattern = PinPattern();
  const Regex re(Render(pattern));
  ASSERT_EQ(re.pattern(), "sha(1|256)/[a-zA-Z0-9+/=]{28,64}");
  util::Rng rng(2022);
  for (int round = 0; round < 200; ++round) {
    ExpectAgrees(re, pattern, PinSubject(rng));
    if (HasFatalFailure()) return;
  }
}

TEST(RegexReferencePin, BodyLengthsAroundTheWindow) {
  const Seq pattern = PinPattern();
  const Regex re(Render(pattern));
  util::Rng rng(28);
  for (const char* prefix : {"sha1/", "sha256/"}) {
    for (std::size_t len : {27u, 28u, 43u, 44u, 64u, 65u}) {
      const std::string pin = prefix + PinBody(rng, len);
      ExpectAgrees(re, pattern, pin);                // run ends the subject
      ExpectAgrees(re, pattern, "k=" + pin + "\"");  // run ends at a quote
      ExpectAgrees(re, pattern, pin + pin);          // back to back
    }
  }
}

}  // namespace
}  // namespace pinscope::staticanalysis
