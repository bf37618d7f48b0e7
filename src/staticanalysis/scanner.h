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
// PinMatchLength confirms a pin at each `sha` without backtracking. Each pin
// becomes one flat FoundPin record (its text and decoded digest inline), so
// a file's pins are copied, cached, persisted and freed as one block. With a
// ScanCache (see scan_cache.h) attached, files of at least kScanCacheMinBytes
// whose content was already scanned anywhere in the corpus replay their
// cached outcome instead of being rescanned — large shared SDK artifacts are
// scanned once per study, not once per app.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
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

/// The paper's pin rule (§4.1.2), verbatim. It is quoted in every
/// static.pin_found journal event; PinMatchLength is its matcher.
inline constexpr std::string_view kPinRule = "sha(1|256)/[a-zA-Z0-9+/=]{28,64}";

/// A pin string discovered in a package: one flat record with its text and
/// decoded digest inline, so a file's pins copy, cache, persist and free as
/// one block, with no heap allocation per pin.
struct FoundPin {
  /// kPinRule's longest match: "sha256/" plus a 64-byte body.
  static constexpr std::size_t kMaxTextSize = 7 + 64;

  /// Byte offset of the match within the file — in binary files, the
  /// absolute offset of the match inside the printable run it was found in.
  /// Content-derived, so cached and uncached scans agree.
  std::size_t offset = 0;
  /// The file it was found in, as an index into ScanResult::pin_paths. Zero
  /// inside a CachedFileScan, whose entries hold no paths.
  std::uint32_t path_index = 0;
  /// tls::DecodePinString of the text; not ok() when it is malformed.
  tls::PinDigest digest;
  std::uint8_t text_size = 0;
  std::array<char, kMaxTextSize> text{};

  /// The record for a kPinRule match (`match` is at most kMaxTextSize
  /// bytes), decoded once here.
  [[nodiscard]] static FoundPin FromMatch(std::string_view match,
                                          std::size_t offset);

  /// Raw "sha256/..." text as matched.
  [[nodiscard]] std::string_view pin_string() const {
    return {text.data(), text_size};
  }
  /// True when the text decodes to a pin digest.
  [[nodiscard]] bool well_formed() const { return digest.ok(); }
};
static_assert(std::is_trivially_copyable_v<FoundPin>);

/// Path-independent scan outcome of one file's *content* — the unit the
/// corpus-wide ScanCache stores. Its certificates' `path` fields are empty
/// and its pins' `path_index` is 0; both are rebound to the observing file
/// when the entry is appended to a ScanResult, so cached and uncached scans
/// are byte-identical.
struct CachedFileScan {
  std::vector<FoundCertificate> certificates;
  std::vector<FoundPin> pins;
};

/// Everything the scanner extracted from one package.
struct ScanResult {
  std::vector<FoundCertificate> certificates;
  std::vector<FoundPin> pins;
  /// The path of each file that produced pins, once, in scan order; a
  /// FoundPin's path_index points here.
  std::vector<std::string> pin_paths;
  std::size_t files_scanned = 0;
  std::size_t bytes_scanned = 0;

  /// Diagnostic scan-cache counters for this package (zero when scanning
  /// without a cache). Deliberately excluded from exports: which app takes
  /// the miss for a shared SDK file depends on scheduling, so these are
  /// observability counters, not results.
  std::size_t cache_hits = 0;
  std::size_t cache_bytes_deduped = 0;

  /// The file `pin` (one of `pins`) was found in.
  [[nodiscard]] const std::string& PathOf(const FoundPin& pin) const {
    return pin_paths[pin.path_index];
  }

  /// True if any certificate or well-formed pin was found — the paper's
  /// "embedded certificates" static-detection signal.
  [[nodiscard]] bool HasPinningEvidence() const;
};

/// Length of the longest kPinRule match that starts exactly at `text[pos]`,
/// or 0 when none does (a match is at least 33 bytes). The heads `sha1/` and
/// `sha256/` differ at their fourth byte, so at most one applies, and the
/// body is the run of [a-zA-Z0-9+/=] bytes after it, capped at 64: the
/// match is min(run, 64) body bytes when the run reaches 28.
[[nodiscard]] std::size_t PinMatchLength(std::string_view text, std::size_t pos);

/// The smallest file Scanner::Scan keys into a ScanCache. The key is a
/// SHA-256 of the content, which costs more than rescanning evidence-free
/// bytes at any size; below 16 KiB a hit saves at most ~25 µs even at the
/// densest pin packing. Size is known before the hash (DESIGN.md §9, "What
/// the cache admits", has the measured sweep).
inline constexpr std::size_t kScanCacheMinBytes = 16 * 1024;

/// The certificate-file extensions §4.1.2 searches for.
[[nodiscard]] const std::vector<std::string>& CertFileSuffixes();

/// True if `path` ends with one of CertFileSuffixes(), compared
/// case-insensitively without copying or lowercasing the path.
[[nodiscard]] bool HasCertFileSuffix(std::string_view path);

/// Package scanner. Construct once; the prefilter is built at construction.
class Scanner {
 public:
  Scanner();

  /// Scans a (decoded, decrypted) package tree. With `cache` non-null, each
  /// file of at least kScanCacheMinBytes is looked up / deposited there,
  /// keyed by SHA-256(content) + cert-file flag; smaller files are scanned
  /// as if no cache were attached. Results are byte-identical either way,
  /// and the cache may be shared across threads. With `metrics` non-null the
  /// per-package tallies are also added to the study-wide `static.*`
  /// counters (observational only — the returned ScanResult is identical
  /// either way).
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
