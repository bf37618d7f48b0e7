// Package scanner (§4.1.2): the ripgrep + radare2 substitute.
//
// Walks an app's file tree looking for (a) certificate files by extension,
// (b) PEM blobs by their BEGIN delimiter, and (c) SPKI pin hashes via the
// paper's one pin rule, kPinRule. Binary files (native libs, executables)
// are first reduced to their printable string runs, like radare2's string
// extraction.
//
// The scan inner loop is zero-copy and single-pass: file contents are viewed
// as std::string_view over the package's own bytes (no per-file string
// copies), one prefilter sweep finds every PEM marker and every `sha`, and
// PinMatchLength confirms a pin at each `sha` without backtracking. With a
// ScanCache (see scan_cache.h) attached, files whose content was already
// scanned anywhere in the corpus replay their cached outcome instead of being
// rescanned — shared SDK artifacts are scanned once per study, not once per
// app.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "appmodel/package.h"
#include "obs/metrics.h"
#include "staticanalysis/prefilter.h"
#include "tls/pinning.h"
#include "x509/certificate.h"

namespace pinscope::staticanalysis {

class ScanCache;  // scan_cache.h

/// A certificate discovered in a package.
struct FoundCertificate {
  std::string path;          ///< File where it was found.
  x509::Certificate cert;
  bool from_pem = false;     ///< Found via PEM armor (vs raw DER file).
};

/// A pin string discovered in a package.
struct FoundPin {
  std::string path;          ///< File where it was found.
  std::string pin_string;    ///< Raw "sha256/..." text as matched.
  std::optional<tls::Pin> parsed;  ///< Decoded pin (nullopt if malformed).
  /// Byte offset of the match within the file — in binary files, the
  /// absolute offset of the match inside the printable run it was found in.
  /// Content-derived, so cached and uncached scans agree.
  std::size_t offset = 0;
};

/// Path-independent scan outcome of one file's *content* — the unit the
/// corpus-wide ScanCache stores. The `path` fields inside are empty; they
/// are rebound to the observing file's path when the entry is appended to a
/// ScanResult, so cached and uncached scans are byte-identical.
struct CachedFileScan {
  std::vector<FoundCertificate> certificates;
  std::vector<FoundPin> pins;
};

/// Everything the scanner extracted from one package.
struct ScanResult {
  std::vector<FoundCertificate> certificates;
  std::vector<FoundPin> pins;
  std::size_t files_scanned = 0;
  std::size_t bytes_scanned = 0;

  /// Diagnostic scan-cache counters for this package (zero when scanning
  /// without a cache). Deliberately excluded from exports: which app takes
  /// the miss for a shared SDK file depends on scheduling, so these are
  /// observability counters, not results.
  std::size_t cache_hits = 0;
  std::size_t cache_bytes_deduped = 0;

  /// True if any certificate or well-formed pin was found — the paper's
  /// "embedded certificates" static-detection signal.
  [[nodiscard]] bool HasPinningEvidence() const;
};

/// The paper's pin rule (§4.1.2), verbatim. It is quoted in every
/// static.pin_found journal event; PinMatchLength is its matcher.
inline constexpr std::string_view kPinRule = "sha(1|256)/[a-zA-Z0-9+/=]{28,64}";

/// Length of the longest kPinRule match that starts exactly at `text[pos]`,
/// or 0 when none does (a match is at least 33 bytes). The heads `sha1/` and
/// `sha256/` differ at their fourth byte, so at most one applies, and the
/// body is the run of [a-zA-Z0-9+/=] bytes after it, capped at 64: the
/// match is min(run, 64) body bytes when the run reaches 28.
[[nodiscard]] std::size_t PinMatchLength(std::string_view text, std::size_t pos);

/// The certificate-file extensions §4.1.2 searches for.
[[nodiscard]] const std::vector<std::string>& CertFileSuffixes();

/// True if `path` ends with one of CertFileSuffixes(), compared
/// case-insensitively without copying or lowercasing the path.
[[nodiscard]] bool HasCertFileSuffix(std::string_view path);

/// Package scanner. Construct once; the prefilter is built at construction.
class Scanner {
 public:
  Scanner();

  /// Scans a (decoded, decrypted) package tree. With `cache` non-null,
  /// per-content outcomes are looked up / deposited there, keyed by
  /// SHA-256(content) + cert-file flag; results are byte-identical with the
  /// cache on or off. The cache may be shared across threads. With `metrics`
  /// non-null the per-package tallies are also added to the study-wide
  /// `static.*` counters (observational only — the returned ScanResult is
  /// identical either way).
  [[nodiscard]] ScanResult Scan(const appmodel::PackageFiles& files,
                                ScanCache* cache = nullptr,
                                obs::MetricsRegistry* metrics = nullptr) const;

  /// The one literal sweep behind both rules: literal 0 is the PEM BEGIN
  /// marker, literal 1 the pin rule's `sha` (tests and benchmarks).
  [[nodiscard]] const MultiLiteralPrefilter& prefilter() const {
    return prefilter_;
  }

 private:
  void ConsumeHits(const PrefilterHit* begin, const PrefilterHit* end,
                   std::string_view text, std::size_t base,
                   CachedFileScan& out) const;
  void ScanBinaryPrefiltered(std::string_view text,
                             const std::vector<PrefilterHit>& hits,
                             CachedFileScan& out) const;
  void ScanFile(const util::Bytes& content, bool is_cert_file,
                CachedFileScan& out) const;

  MultiLiteralPrefilter prefilter_;
};

}  // namespace pinscope::staticanalysis
