// Test-local reference for the static scanner, built the slow, obvious way.
//
// The pin rule sha(1|256)/[a-zA-Z0-9+/=]{28,64} is written out as a
// sequence of items and evaluated by brute force: the set of every end
// position a match from a given start can reach, whose maximum is the
// longest match. ReferenceScan applies it, with x509::PemDecodeAll for
// certificates, to a whole package: each printable run of a binary file is
// scanned on its own, and matches are taken leftmost-longest and
// non-overlapping by trying every position. The production scanner
// (staticanalysis/scanner.h) must agree with it byte for byte.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "appmodel/package.h"
#include "staticanalysis/scanner.h"
#include "tls/pinning.h"
#include "x509/pem.h"

namespace pinscope::testing {

// One item of the rule: a single-byte atom (a literal or a class) or a group
// of alternatives, repeated {min, max} times.
struct PinRuleItem {
  std::string spelling;      // atom text, e.g. "s" or "[a-zA-Z0-9+/=]"
  std::bitset<256> accepts;  // bytes the atom matches
  std::vector<std::vector<PinRuleItem>> alternatives;  // non-empty: a group
  std::size_t min = 1;
  std::size_t max = 1;
};
using PinRuleSeq = std::vector<PinRuleItem>;

inline PinRuleItem PinRuleAtom(std::string spelling, std::string_view bytes) {
  PinRuleItem item;
  item.spelling = std::move(spelling);
  for (char c : bytes) item.accepts.set(static_cast<unsigned char>(c));
  return item;
}

// sha(1|256)/[a-zA-Z0-9+/=]{28,64}, item by item.
inline const PinRuleSeq& PinRule() {
  static const PinRuleSeq rule = [] {
    PinRuleItem digits;
    digits.alternatives = {
        {PinRuleAtom("1", "1")},
        {PinRuleAtom("2", "2"), PinRuleAtom("5", "5"), PinRuleAtom("6", "6")}};
    PinRuleItem body = PinRuleAtom(
        "[a-zA-Z0-9+/=]",
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/=");
    body.min = 28;
    body.max = 64;
    return PinRuleSeq{PinRuleAtom("s", "s"), PinRuleAtom("h", "h"),
                      PinRuleAtom("a", "a"),  digits,
                      PinRuleAtom("/", "/"),  body};
  }();
  return rule;
}

// The rule's regex text, rendered from its items.
inline std::string RenderPinRule(const PinRuleSeq& seq) {
  std::string out;
  for (const PinRuleItem& item : seq) {
    if (item.alternatives.empty()) {
      out += item.spelling;
    } else {
      out += '(';
      for (std::size_t i = 0; i < item.alternatives.size(); ++i) {
        if (i > 0) out += '|';
        out += RenderPinRule(item.alternatives[i]);
      }
      out += ')';
    }
    if (item.min != 1 || item.max != 1) {
      out += "{" + std::to_string(item.min) + "," + std::to_string(item.max) + "}";
    }
  }
  return out;
}

inline std::set<std::size_t> PinRuleSeqEnds(const PinRuleSeq& seq, std::size_t i,
                                            std::string_view text, std::size_t at);

// End positions of exactly one occurrence of `item` starting at `at`.
inline std::set<std::size_t> PinRuleOnceEnds(const PinRuleItem& item,
                                             std::string_view text, std::size_t at) {
  if (item.alternatives.empty()) {
    if (at < text.size() && item.accepts[static_cast<unsigned char>(text[at])]) {
      return {at + 1};
    }
    return {};
  }
  std::set<std::size_t> out;
  for (const PinRuleSeq& alt : item.alternatives) {
    out.merge(PinRuleSeqEnds(alt, 0, text, at));
  }
  return out;
}

// End positions of `item` repeated min..max times from `at`.
inline std::set<std::size_t> PinRuleRepeatEnds(const PinRuleItem& item,
                                               std::string_view text, std::size_t at) {
  const auto step = [&](const std::set<std::size_t>& from) {
    std::set<std::size_t> next;
    for (std::size_t p : from) next.merge(PinRuleOnceEnds(item, text, p));
    return next;
  };
  std::set<std::size_t> frontier{at};
  for (std::size_t k = 0; k < item.min; ++k) frontier = step(frontier);
  std::set<std::size_t> out = frontier;
  for (std::size_t k = item.min; k < item.max && !frontier.empty(); ++k) {
    frontier = step(frontier);
    out.insert(frontier.begin(), frontier.end());
  }
  return out;
}

inline std::set<std::size_t> PinRuleSeqEnds(const PinRuleSeq& seq, std::size_t i,
                                            std::string_view text, std::size_t at) {
  if (i == seq.size()) return {at};
  std::set<std::size_t> out;
  for (std::size_t p : PinRuleRepeatEnds(seq[i], text, at)) {
    out.merge(PinRuleSeqEnds(seq, i + 1, text, p));
  }
  return out;
}

/// Length of the longest pin-rule match starting at `start`, if any.
inline std::optional<std::size_t> ReferencePinLongest(std::string_view text,
                                                      std::size_t start) {
  const std::set<std::size_t> ends = PinRuleSeqEnds(PinRule(), 0, text, start);
  if (ends.empty()) return std::nullopt;
  return *ends.rbegin() - start;
}

/// Every printable (0x20..0x7e) run of at least `min_len` bytes, in order,
/// found one byte at a time.
inline std::vector<staticanalysis::PrintableRun> ScalarPrintableRuns(
    std::string_view data, std::size_t min_len) {
  std::vector<staticanalysis::PrintableRun> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= data.size(); ++i) {
    const bool printable =
        i < data.size() && data[i] >= 0x20 && data[i] <= 0x7e;
    if (printable) continue;
    if (i - start >= min_len) out.push_back({start, i - start});
    start = i + 1;
  }
  return out;
}

/// PEM blocks and pins in one stretch of text that starts at `base` in its
/// file; matches are leftmost-longest and non-overlapping.
inline void ReferenceScanText(std::string_view text, std::size_t base,
                              staticanalysis::CachedFileScan& out) {
  for (x509::Certificate& cert : x509::PemDecodeAll(text)) {
    out.certificates.push_back({std::string(), std::move(cert), true});
  }
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::optional<std::size_t> len = ReferencePinLongest(text, pos);
    if (!len) {
      ++pos;
      continue;
    }
    staticanalysis::FoundPin pin;
    pin.pin_string = std::string(text.substr(pos, *len));
    pin.parsed = tls::Pin::FromPinString(pin.pin_string);
    pin.offset = base + pos;
    out.pins.push_back(std::move(pin));
    pos += *len;
  }
}

/// The scanner's binary-content heuristic: a NUL, or more than 10%
/// non-printable bytes, in the first 512.
inline bool ReferenceLooksBinary(const util::Bytes& data) {
  const std::size_t probe = std::min<std::size_t>(data.size(), 512);
  std::size_t nonprint = 0;
  for (std::size_t i = 0; i < probe; ++i) {
    if (data[i] == 0) return true;
    if (data[i] < 0x09 || (data[i] > 0x0d && data[i] < 0x20) || data[i] > 0x7e) {
      ++nonprint;
    }
  }
  return probe > 0 && nonprint * 10 > probe;
}

/// What Scanner::Scan (no cache) must return for `files`.
inline staticanalysis::ScanResult ReferenceScan(const appmodel::PackageFiles& files) {
  staticanalysis::ScanResult result;
  for (const auto& [path, content] : files.files()) {
    ++result.files_scanned;
    result.bytes_scanned += content.size();
    const std::string_view text(reinterpret_cast<const char*>(content.data()),
                                content.size());
    staticanalysis::CachedFileScan scan;
    if (staticanalysis::HasCertFileSuffix(path)) {
      if (auto pem = x509::PemDecode(text)) {
        scan.certificates.push_back({std::string(), std::move(*pem), true});
      } else if (auto der = x509::Certificate::ParseDer(content)) {
        scan.certificates.push_back({std::string(), std::move(*der), false});
      }
    }
    if (scan.certificates.empty()) {
      if (ReferenceLooksBinary(content)) {
        for (const staticanalysis::PrintableRun& run : ScalarPrintableRuns(text, 6)) {
          ReferenceScanText(text.substr(run.offset, run.length), run.offset, scan);
        }
      } else {
        ReferenceScanText(text, 0, scan);
      }
    }
    for (staticanalysis::FoundCertificate& c : scan.certificates) {
      c.path = path;
      result.certificates.push_back(std::move(c));
    }
    for (staticanalysis::FoundPin& p : scan.pins) {
      p.path = path;
      result.pins.push_back(std::move(p));
    }
  }
  return result;
}

/// Field-by-field equality of two scan results' certificates and pins.
inline void ExpectSameScan(const staticanalysis::ScanResult& got,
                           const staticanalysis::ScanResult& want) {
  ASSERT_EQ(got.certificates.size(), want.certificates.size());
  for (std::size_t i = 0; i < want.certificates.size(); ++i) {
    EXPECT_EQ(got.certificates[i].path, want.certificates[i].path) << i;
    EXPECT_EQ(got.certificates[i].cert, want.certificates[i].cert) << i;
    EXPECT_EQ(got.certificates[i].from_pem, want.certificates[i].from_pem) << i;
  }
  ASSERT_EQ(got.pins.size(), want.pins.size());
  for (std::size_t i = 0; i < want.pins.size(); ++i) {
    EXPECT_EQ(got.pins[i].path, want.pins[i].path) << i;
    EXPECT_EQ(got.pins[i].pin_string, want.pins[i].pin_string) << i;
    EXPECT_EQ(got.pins[i].offset, want.pins[i].offset) << i;
    EXPECT_EQ(got.pins[i].parsed.has_value(), want.pins[i].parsed.has_value())
        << i;
  }
}

}  // namespace pinscope::testing
