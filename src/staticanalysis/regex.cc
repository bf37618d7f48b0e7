#include "staticanalysis/regex.h"

#include <algorithm>
#include <bitset>
#include <limits>
#include <utility>

#include "util/error.h"

namespace pinscope::staticanalysis {

// --- AST ---------------------------------------------------------------

namespace {

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

enum class AtomKind { kLiteral, kAny, kClass, kGroup };

// A Node is a group: a list of alternatives, each a sequence of atoms. The
// AST lives only during construction; matching runs on the compiled NFA.
struct Node {
  struct Atom {
    AtomKind kind = AtomKind::kLiteral;
    char literal = 0;
    std::bitset<256> cls;  // for kClass
    std::unique_ptr<Node> group;
    std::size_t min = 1;
    std::size_t max = 1;
  };
  using Sequence = std::vector<Atom>;
  std::vector<Sequence> alternatives;
};

// --- Parser ------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view p) : p_(p) {}

  std::unique_ptr<Node> Parse() {
    auto node = ParseGroupBody();
    if (pos_ != p_.size()) Fail("unexpected ')'");
    return node;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    throw util::ParseError("regex '" + std::string(p_) + "': " + why);
  }

  bool AtEnd() const { return pos_ >= p_.size(); }
  char Peek() const { return p_[pos_]; }
  char Next() {
    if (AtEnd()) Fail("unexpected end of pattern");
    return p_[pos_++];
  }

  std::unique_ptr<Node> ParseGroupBody() {
    auto node = std::make_unique<Node>();
    node->alternatives.emplace_back();
    while (!AtEnd() && Peek() != ')') {
      if (Peek() == '|') {
        ++pos_;
        node->alternatives.emplace_back();
        continue;
      }
      node->alternatives.back().push_back(ParseAtom());
    }
    return node;
  }

  Node::Atom ParseAtom() {
    Node::Atom atom;
    const char c = Next();
    switch (c) {
      case '(': {
        atom.kind = AtomKind::kGroup;
        atom.group = ParseGroupBody();
        if (AtEnd() || Next() != ')') Fail("missing ')'");
        break;
      }
      case '[':
        atom.kind = AtomKind::kClass;
        atom.cls = ParseClass();
        break;
      case '.':
        atom.kind = AtomKind::kAny;
        break;
      case '\\':
        atom.kind = AtomKind::kLiteral;
        atom.literal = Next();
        break;
      case '*':
      case '+':
      case '?':
      case '{':
        Fail("quantifier with nothing to repeat");
      default:
        atom.kind = AtomKind::kLiteral;
        atom.literal = c;
    }
    ParseQuantifier(atom);
    return atom;
  }

  std::bitset<256> ParseClass() {
    std::bitset<256> cls;
    bool negated = false;
    if (!AtEnd() && Peek() == '^') {
      negated = true;
      ++pos_;
    }
    bool first = true;
    while (true) {
      if (AtEnd()) Fail("missing ']'");
      char c = Next();
      if (c == ']' && !first) break;
      first = false;
      if (c == '\\') c = Next();
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < p_.size() && p_[pos_ + 1] != ']') {
        ++pos_;  // consume '-'
        char hi = Next();
        if (hi == '\\') hi = Next();
        if (static_cast<unsigned char>(hi) < static_cast<unsigned char>(c)) {
          Fail("inverted class range");
        }
        for (int v = static_cast<unsigned char>(c); v <= static_cast<unsigned char>(hi);
             ++v) {
          cls.set(static_cast<std::size_t>(v));
        }
      } else {
        cls.set(static_cast<unsigned char>(c));
      }
    }
    if (negated) cls.flip();
    return cls;
  }

  void ParseQuantifier(Node::Atom& atom) {
    if (AtEnd()) return;
    switch (Peek()) {
      case '*':
        ++pos_;
        atom.min = 0;
        atom.max = kUnbounded;
        return;
      case '+':
        ++pos_;
        atom.min = 1;
        atom.max = kUnbounded;
        return;
      case '?':
        ++pos_;
        atom.min = 0;
        atom.max = 1;
        return;
      case '{': {
        ++pos_;
        atom.min = ParseNumber();
        if (Peek() == ',') {
          ++pos_;
          atom.max = Peek() == '}' ? kUnbounded : ParseNumber();
        } else {
          atom.max = atom.min;
        }
        if (Next() != '}') Fail("missing '}'");
        if (atom.max < atom.min) Fail("quantifier max < min");
        return;
      }
      default:
        return;
    }
  }

  std::size_t ParseNumber() {
    if (AtEnd() || Peek() < '0' || Peek() > '9') Fail("expected number");
    std::size_t n = 0;
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
      n = n * 10 + static_cast<std::size_t>(Next() - '0');
      if (n > 100'000) Fail("quantifier too large");
    }
    return n;
  }

  std::string_view p_;
  std::size_t pos_ = 0;
};

}  // namespace

// --- Thompson NFA ------------------------------------------------------

// The compiled pattern. Every consuming state tests one byte against a
// class (a literal is a one-byte class, '.' the full one) and continues at
// `out`; a split continues at both `out` and `out1`; the match state ends a
// path. The program is built back to front from the match state, so every
// edge except a loop's back edge points at an already emitted state.
struct Regex::Program {
  enum class Op : std::uint8_t { kConsume, kSplit, kMatch };
  struct State {
    Op op = Op::kMatch;
    std::uint32_t cls = 0;   // kConsume: index into `classes`
    std::uint32_t out = 0;   // kConsume: next state; kSplit: first branch
    std::uint32_t out1 = 0;  // kSplit: second branch
  };
  std::vector<State> states;
  std::vector<std::bitset<256>> classes;
  std::uint32_t start = 0;
};

namespace {

using Program = Regex::Program;

class Compiler {
 public:
  explicit Compiler(std::string_view pattern) : pattern_(pattern) {}

  std::unique_ptr<const Program> Compile(const Node& root) {
    prog_->start = Alternation(root, Emit({Program::Op::kMatch, 0, 0, 0}));
    return std::move(prog_);
  }

 private:
  std::uint32_t Emit(const Program::State& state) {
    if (prog_->states.size() >= Regex::kMaxStates) {
      throw util::ParseError("regex '" + std::string(pattern_) +
                             "': pattern too large");
    }
    prog_->states.push_back(state);
    return static_cast<std::uint32_t>(prog_->states.size() - 1);
  }

  std::uint32_t Consume(const std::bitset<256>& cls, std::uint32_t next) {
    auto& classes = prog_->classes;
    const auto it = std::find(classes.begin(), classes.end(), cls);
    const auto index = static_cast<std::uint32_t>(it - classes.begin());
    if (it == classes.end()) classes.push_back(cls);
    return Emit({Program::Op::kConsume, index, next, 0});
  }

  // split(a0, split(a1, ... an)), each alternative continuing at `next`.
  std::uint32_t Alternation(const Node& node, std::uint32_t next) {
    auto alt = node.alternatives.rbegin();
    std::uint32_t start = Sequence(*alt, next);
    for (++alt; alt != node.alternatives.rend(); ++alt) {
      start = Emit({Program::Op::kSplit, 0, Sequence(*alt, next), start});
    }
    return start;
  }

  std::uint32_t Sequence(const Node::Sequence& seq, std::uint32_t next) {
    for (auto atom = seq.rbegin(); atom != seq.rend(); ++atom) {
      next = Repeat(*atom, next);
    }
    return next;
  }

  // atom{min,max}: `min` copies, then either a loop (max unbounded) or
  // max-min nested optional copies (x(x(x)?)?)? whose skips all jump
  // straight to `next`, so at most one copy's states are live at a time.
  std::uint32_t Repeat(const Node::Atom& atom, std::uint32_t next) {
    std::uint32_t tail = next;
    if (atom.max == kUnbounded) {
      tail = Emit({Program::Op::kSplit, 0, 0, next});
      const std::uint32_t body = Once(atom, tail);
      prog_->states[tail].out = body;
    } else {
      for (std::size_t i = atom.min; i < atom.max; ++i) {
        tail = Emit({Program::Op::kSplit, 0, Once(atom, tail), next});
      }
    }
    for (std::size_t i = 0; i < atom.min; ++i) tail = Once(atom, tail);
    return tail;
  }

  std::uint32_t Once(const Node::Atom& atom, std::uint32_t next) {
    switch (atom.kind) {
      case AtomKind::kLiteral: {
        std::bitset<256> cls;
        cls.set(static_cast<unsigned char>(atom.literal));
        return Consume(cls, next);
      }
      case AtomKind::kAny:
        return Consume(std::bitset<256>().set(), next);
      case AtomKind::kClass:
        return Consume(atom.cls, next);
      case AtomKind::kGroup:
        return Alternation(*atom.group, next);
    }
    return next;
  }

  std::string_view pattern_;
  std::unique_ptr<Program> prog_ = std::make_unique<Program>();
};

// --- Pike VM -----------------------------------------------------------

// Per-thread VM scratch, grown to the largest program the thread has run
// and then reused, so a warm MatchAt allocates nothing. `seen[s] == gen`
// marks state s as already added in the current step; bumping `gen` clears
// every mark at once, and the marks are zeroed when the counter wraps.
struct PikeScratch {
  std::vector<std::uint32_t> seen;
  std::vector<std::uint32_t> curr;   // consuming states live before a byte
  std::vector<std::uint32_t> next;   // ... and after it
  std::vector<std::uint32_t> stack;  // epsilon-closure work list
  std::uint32_t gen = 0;

  void Reserve(std::size_t states) {
    if (seen.size() >= states) return;
    seen.resize(states, 0);
    curr.resize(states);
    next.resize(states);
    stack.resize(states);
  }

  std::uint32_t NextGeneration() {
    if (++gen == 0) {
      std::fill(seen.begin(), seen.end(), 0);
      gen = 1;
    }
    return gen;
  }
};

thread_local PikeScratch t_scratch;

// Adds the consuming states reachable from `s` over split edges to
// `list[n...]`, each once per generation; true if the match state is
// reachable. States are marked when pushed, so the stack never holds more
// entries than the program has states.
bool AddClosure(const Program& prog, PikeScratch& sc, std::uint32_t s,
                std::uint32_t gen, std::uint32_t* list, std::size_t& n) {
  std::uint32_t* const seen = sc.seen.data();
  std::uint32_t* const stack = sc.stack.data();
  if (seen[s] == gen) return false;
  seen[s] = gen;
  std::size_t top = 0;
  stack[top++] = s;
  bool matched = false;
  while (top > 0) {
    const std::uint32_t id = stack[--top];
    const Program::State& state = prog.states[id];
    switch (state.op) {
      case Program::Op::kConsume:
        list[n++] = id;
        break;
      case Program::Op::kMatch:
        matched = true;
        break;
      case Program::Op::kSplit:
        if (seen[state.out1] != gen) {
          seen[state.out1] = gen;
          stack[top++] = state.out1;
        }
        if (seen[state.out] != gen) {
          seen[state.out] = gen;
          stack[top++] = state.out;
        }
        break;
    }
  }
  return matched;
}

// End of the longest match starting at `pos`, or npos. Every live state is
// advanced in lockstep, so the subject is read once, left to right, and the
// run stops when no state is live.
std::size_t LongestMatchEnd(const Program& prog, std::string_view text,
                            std::size_t pos) {
  PikeScratch& sc = t_scratch;
  sc.Reserve(prog.states.size());
  std::uint32_t* curr = sc.curr.data();
  std::uint32_t* next = sc.next.data();
  std::size_t live = 0;
  std::size_t best = std::string_view::npos;
  if (AddClosure(prog, sc, prog.start, sc.NextGeneration(), curr, live)) {
    best = pos;
  }
  for (std::size_t p = pos; live > 0 && p < text.size(); ++p) {
    const auto byte = static_cast<unsigned char>(text[p]);
    const std::uint32_t gen = sc.NextGeneration();
    std::size_t next_live = 0;
    bool matched = false;
    for (std::size_t i = 0; i < live; ++i) {
      const Program::State& state = prog.states[curr[i]];
      if (prog.classes[state.cls][byte]) {
        matched |= AddClosure(prog, sc, state.out, gen, next, next_live);
      }
    }
    if (matched) best = p + 1;
    std::swap(curr, next);
    live = next_live;
  }
  return best;
}

// Mandatory literal prefix of a pattern: the leading run of single-shot
// literal atoms in a single-alternative root.
std::string ComputePrefix(const Node& root) {
  std::string prefix;
  if (root.alternatives.size() != 1) return prefix;
  for (const auto& atom : root.alternatives.front()) {
    if (atom.kind != AtomKind::kLiteral || atom.min != 1 || atom.max != 1) break;
    prefix.push_back(atom.literal);
  }
  return prefix;
}

// --- Required-literal anchor extraction --------------------------------
//
// Walks the AST collecting every literal substring a match is guaranteed to
// contain, with the (possibly unbounded) window of offsets it can occupy
// relative to the match start. The best candidate is memoized per pattern
// and drives the Search()/FindAll() prefilter. The analysis is
// conservative: returning no anchor is always sound, and every reported
// (literal, window) pair must hold for every possible match.

std::size_t SatAdd(std::size_t a, std::size_t b) {
  if (a == kUnbounded || b == kUnbounded) return kUnbounded;
  return a > kUnbounded - b ? kUnbounded : a + b;
}

std::size_t SatMul(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kUnbounded || b == kUnbounded) return kUnbounded;
  return a > kUnbounded / b ? kUnbounded : a * b;
}

struct LenRange {
  std::size_t min = 0;
  std::size_t max = 0;  // kUnbounded when a quantifier is open-ended
};

LenRange NodeLen(const Node& node);

LenRange AtomLen(const Node::Atom& atom) {
  LenRange base{1, 1};
  if (atom.kind == AtomKind::kGroup) base = NodeLen(*atom.group);
  return {SatMul(atom.min, base.min), SatMul(atom.max, base.max)};
}

LenRange NodeLen(const Node& node) {
  LenRange out{kUnbounded, 0};
  for (const auto& alt : node.alternatives) {
    LenRange seq{0, 0};
    for (const auto& atom : alt) {
      const LenRange len = AtomLen(atom);
      seq.min = SatAdd(seq.min, len.min);
      seq.max = SatAdd(seq.max, len.max);
    }
    out.min = std::min(out.min, seq.min);
    out.max = std::max(out.max, seq.max);
  }
  return out;
}

struct Candidate {
  std::string literal;
  std::size_t min_offset = 0;
  std::size_t max_offset = 0;
};

std::vector<Candidate> CollectNode(const Node& node);

// Mandatory literals of one alternative. Runs accumulate over consecutive
// mandatory literal atoms; an exact quantifier {n} contributes n adjacent
// copies (capped), a variable one contributes its guaranteed minimum and
// then breaks the run (the following atom is no longer at a fixed distance).
void CollectSeq(const Node::Sequence& seq, std::vector<Candidate>& out) {
  constexpr std::size_t kMaxLiteralRepeat = 64;
  std::size_t min_off = 0;
  std::size_t max_off = 0;
  Candidate run;
  bool in_run = false;
  const auto flush = [&] {
    if (in_run) out.push_back(run);
    in_run = false;
  };
  for (const auto& atom : seq) {
    if (atom.kind == AtomKind::kLiteral && atom.min >= 1) {
      if (!in_run) {
        run = {"", min_off, max_off};
        in_run = true;
      }
      const std::size_t copies = std::min(atom.min, kMaxLiteralRepeat);
      run.literal.append(copies, atom.literal);
      if (atom.max != atom.min || atom.min > kMaxLiteralRepeat) flush();
    } else {
      flush();
      if (atom.kind == AtomKind::kGroup && atom.min >= 1) {
        // A mandatory group's first repetition must contain each of the
        // group's own anchors, shifted by what precedes the group.
        for (Candidate& c : CollectNode(*atom.group)) {
          out.push_back({std::move(c.literal), SatAdd(min_off, c.min_offset),
                         SatAdd(max_off, c.max_offset)});
        }
      }
    }
    const LenRange len = AtomLen(atom);
    min_off = SatAdd(min_off, len.min);
    max_off = SatAdd(max_off, len.max);
  }
  flush();
}

// Mandatory literals of a node. For alternations, a literal qualifies only
// if *every* alternative guarantees it (as a substring of one of its own
// mandatory literals); the window is the union over alternatives. Exact
// equality is not required — "foo|food" anchors on "foo" — but maximal
// common substrings are not synthesized ("food|foot" yields no anchor).
std::vector<Candidate> CollectNode(const Node& node) {
  std::vector<std::vector<Candidate>> lists;
  lists.reserve(node.alternatives.size());
  for (const auto& alt : node.alternatives) {
    std::vector<Candidate> list;
    CollectSeq(alt, list);
    if (list.empty()) return {};  // this alternative guarantees no literal
    lists.push_back(std::move(list));
  }
  if (lists.size() == 1) return std::move(lists.front());

  std::vector<Candidate> out;
  for (const auto& list : lists) {
    for (const Candidate& seed : list) {
      bool already = false;
      for (const Candidate& o : out) already = already || o.literal == seed.literal;
      if (already) continue;
      Candidate merged{seed.literal, kUnbounded, 0};
      bool common = true;
      for (const auto& other : lists) {
        bool found = false;
        for (const Candidate& c : other) {
          const std::size_t pos = c.literal.find(seed.literal);
          if (pos == std::string::npos) continue;
          merged.min_offset = std::min(merged.min_offset, SatAdd(c.min_offset, pos));
          merged.max_offset = std::max(merged.max_offset, SatAdd(c.max_offset, pos));
          found = true;
          break;
        }
        if (!found) {
          common = false;
          break;
        }
      }
      if (common) out.push_back(std::move(merged));
    }
  }
  return out;
}

// Best anchor: longest literal; ties prefer a bounded window, then a
// tighter one, then lexicographic order (a deterministic compile).
LiteralAnchor ComputeAnchor(const Node& root) {
  LiteralAnchor best;
  for (const Candidate& c : CollectNode(root)) {
    const LiteralAnchor cand{c.literal, c.min_offset, c.max_offset};
    if (best.literal.empty()) {
      best = cand;
      continue;
    }
    if (cand.literal.size() != best.literal.size()) {
      if (cand.literal.size() > best.literal.size()) best = cand;
      continue;
    }
    if (cand.bounded() != best.bounded()) {
      if (cand.bounded()) best = cand;
      continue;
    }
    if (cand.max_offset != best.max_offset) {
      if (cand.max_offset < best.max_offset) best = cand;
      continue;
    }
    if (cand.literal < best.literal) best = cand;
  }
  return best;
}

}  // namespace

// --- Public API ---------------------------------------------------------

Regex::Regex(std::string_view pattern) : pattern_(pattern) {
  const std::unique_ptr<Node> root = Parser(pattern).Parse();
  program_ = Compiler(pattern).Compile(*root);
  prefix_ = ComputePrefix(*root);
  anchor_ = ComputeAnchor(*root);
}

Regex::Regex(Regex&&) noexcept = default;
Regex& Regex::operator=(Regex&&) noexcept = default;
Regex::~Regex() = default;

bool Regex::MatchAt(std::string_view text, std::size_t pos,
                    std::size_t* match_len) const {
  const std::size_t end = LongestMatchEnd(*program_, text, pos);
  if (end == std::string_view::npos) return false;
  if (match_len != nullptr) *match_len = end - pos;
  return true;
}

namespace {

// Prefilter state shared by Search()/FindAll(): tracks the next occurrence
// of the anchor literal so each subject byte is searched at most once.
// Advance(pos) either confirms `pos` could start a match, fast-forwards
// `pos` past positions the anchor rules out, or reports that no further
// match is possible anywhere in the subject.
class AnchorSweep {
 public:
  AnchorSweep(const LiteralAnchor& anchor, std::string_view text)
      : anchor_(anchor), text_(text) {}

  // Returns false when the anchor proves no match can start at or after
  // `pos`; otherwise leaves `pos` at the earliest still-possible start.
  bool Advance(std::size_t& pos) {
    if (anchor_.literal.empty()) return true;
    // A match at `pos` needs the literal at some q >= pos + min_offset.
    const std::size_t need = SatAdd(pos, anchor_.min_offset);
    if (!valid_ || lit_at_ < need) {
      lit_at_ = text_.find(anchor_.literal, need);
      valid_ = true;
      if (lit_at_ == std::string_view::npos) return false;
    }
    // ...and at most max_offset past the start: starts before
    // lit_at_ - max_offset cannot reach the earliest occurrence.
    if (anchor_.bounded()) {
      const std::size_t earliest =
          lit_at_ > anchor_.max_offset ? lit_at_ - anchor_.max_offset : 0;
      if (pos < earliest) pos = earliest;
    }
    return true;
  }

 private:
  const LiteralAnchor& anchor_;
  std::string_view text_;
  std::size_t lit_at_ = 0;
  bool valid_ = false;
};

}  // namespace

bool Regex::Search(std::string_view text) const {
  AnchorSweep sweep(anchor_, text);
  std::size_t pos = 0;
  while (pos <= text.size()) {
    if (!sweep.Advance(pos)) return false;
    if (MatchAt(text, pos)) return true;
    ++pos;
  }
  return false;
}

std::vector<RegexMatch> Regex::FindAll(std::string_view text) const {
  std::vector<RegexMatch> out;
  AnchorSweep sweep(anchor_, text);
  std::size_t pos = 0;
  while (pos <= text.size()) {
    if (!sweep.Advance(pos)) return out;
    std::size_t len = 0;
    if (MatchAt(text, pos, &len)) {
      out.push_back({pos, std::string(text.substr(pos, len))});
      pos += len == 0 ? 1 : len;
    } else {
      ++pos;
    }
  }
  return out;
}

namespace internal {

void SetMatchGenerationForTesting(std::uint32_t generation) {
  t_scratch.gen = generation;
}

}  // namespace internal

}  // namespace pinscope::staticanalysis
