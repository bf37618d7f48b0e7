// A small from-scratch regular-expression engine.
//
// Supports exactly the constructs the paper's search patterns need:
// literals, '.', character classes with ranges and negation, groups with
// alternation, and the greedy quantifiers * + ? {m} {m,} {m,n}. No anchors,
// no captures, no std::regex dependency — the engine is part of the
// reproduced tooling (the ripgrep substitute).
//
// The constructor compiles the pattern once into a Thompson NFA: {m,n}
// repetitions are expanded into m copies plus n-m nested optional copies,
// and groups, alternation and quantifiers become split states. MatchAt runs
// that NFA as a Pike VM: one deduplicated set of live states advanced a
// character at a time, which yields the longest match at the start position
// in one left-to-right pass, without backtracking. The VM's state lists and
// visited stamps are per-thread scratch reused across calls, so a match
// allocates nothing once the thread has run a program of that size. A const
// Regex may be shared across threads.
// tests/staticanalysis/regex_reference_test.cc checks the longest match at
// every start position, and the full FindAll list, against a brute-force
// set-of-end-positions reference.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pinscope::staticanalysis {

/// One match found in a subject string.
struct RegexMatch {
  std::size_t position = 0;  ///< Byte offset of the match start.
  std::string text;          ///< Matched text.
};

/// Sentinel for "the anchor's offset within a match is unbounded" (a
/// preceding unbounded quantifier makes it unknowable).
inline constexpr std::size_t kUnboundedOffset =
    std::numeric_limits<std::size_t>::max();

/// A literal substring every match of a pattern must contain, plus the
/// window — relative to the match start — where it must begin. Search() and
/// FindAll() use it as a prefilter: the subject is swept for the literal
/// with std::string_view::find (memchr-backed) and the matcher only runs at
/// positions the window says could start a match. Generalizes the
/// literal-prefix case: the prefix is the anchor with window [0, 0].
struct LiteralAnchor {
  std::string literal;  ///< Empty when no mandatory literal is extractable.
  std::size_t min_offset = 0;  ///< Earliest offset of `literal` in a match.
  std::size_t max_offset = 0;  ///< Latest offset, or kUnboundedOffset.

  /// True when the window is finite, i.e. finding the literal at subject
  /// position q bounds candidate match starts to [q - max_offset, q].
  [[nodiscard]] bool bounded() const { return max_offset != kUnboundedOffset; }
};

/// A compiled pattern. Compile once, match many times.
class Regex {
 public:
  /// Compiles `pattern`. Throws util::ParseError on invalid syntax, or when
  /// the expanded NFA would exceed kMaxStates states.
  explicit Regex(std::string_view pattern);

  Regex(Regex&&) noexcept;
  Regex& operator=(Regex&&) noexcept;
  ~Regex();

  /// Upper bound on compiled NFA states (repetitions expand multiplicatively,
  /// e.g. "(a{1000}){1000}").
  static constexpr std::size_t kMaxStates = std::size_t{1} << 20;

  /// The source pattern.
  [[nodiscard]] const std::string& pattern() const { return pattern_; }

  /// True if the pattern matches starting exactly at `text[pos]`.
  /// `match_len` (optional) receives the longest match length.
  [[nodiscard]] bool MatchAt(std::string_view text, std::size_t pos,
                             std::size_t* match_len = nullptr) const;

  /// True if the pattern matches anywhere in `text`.
  [[nodiscard]] bool Search(std::string_view text) const;

  /// All non-overlapping matches, leftmost-longest.
  [[nodiscard]] std::vector<RegexMatch> FindAll(std::string_view text) const;

  /// The compiled NFA (public so the out-of-line compiler and VM can reach
  /// it; not part of the supported API surface).
  struct Program;

  /// The literal prefix every match must start with ("" when the pattern has
  /// no mandatory literal head). Subsumed by required_literal() — kept for
  /// callers that specifically want a match *head*.
  [[nodiscard]] const std::string& literal_prefix() const { return prefix_; }

  /// The best mandatory-literal anchor of this pattern, memoized at compile
  /// time (longest literal; ties prefer a bounded, then tighter, window).
  /// `required_literal().literal` is empty for patterns with no extractable
  /// literal, e.g. pure character classes or disjoint alternations.
  [[nodiscard]] const LiteralAnchor& required_literal() const { return anchor_; }

 private:
  std::string pattern_;
  std::unique_ptr<const Program> program_;
  std::string prefix_;
  LiteralAnchor anchor_;
};

namespace internal {

/// Sets the calling thread's VM generation counter, so tests can drive the
/// visited-stamp reset that happens when the counter wraps past 2^32 - 1.
void SetMatchGenerationForTesting(std::uint32_t generation);

}  // namespace internal

}  // namespace pinscope::staticanalysis
