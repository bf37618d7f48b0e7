// Corpus-wide static-scan cache (the "scan once per study" layer).
//
// The paper attributes most pinning to a small set of third-party SDKs
// shipped identically across thousands of apps (IMC '22 §5, Table 7), which
// makes per-file scan work massively redundant at corpus scale: the same
// OkHttp smali, the same bundled PEM roots, the same native lib appear in
// app after app. This cache memoizes the scanner's per-content outcome,
// keyed by SHA-256 of the file bytes (src/crypto/sha256) plus the cert-file
// flag, so any given content is scanned once per study no matter how many
// apps ship it. The scanner keys only files of at least kScanCacheMinBytes
// (scanner.h): below that the hash costs more than the scan it could save,
// so the entries are large payloads, and a corpus of small files leaves the
// cache empty.
//
// The scan is a pure function of that key, so the shared memo's policy
// (util/sharded_memo.h) makes residency unobservable. Cached entries store
// no paths — the scanner rebinds paths on every hit — which is why cached
// and uncached studies export byte-identical results (see DESIGN.md §9 and
// the `ctest -L static` equivalence suite).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "staticanalysis/scanner.h"
#include "util/bytes.h"
#include "util/sharded_memo.h"

namespace pinscope::staticanalysis {

/// Scan-cache key: content digest + the suffix-dependent scan branch.
struct ScanCacheKey {
  crypto::Sha256Digest digest{};
  bool cert_file = false;

  bool operator==(const ScanCacheKey& o) const {
    return cert_file == o.cert_file && digest == o.digest;
  }
};

struct ScanCacheKeyHash {
  std::size_t operator()(const ScanCacheKey& k) const {
    // The digest is already uniform; fold in the flag.
    std::size_t h = 0;
    std::memcpy(&h, k.digest.data(), sizeof(h));
    return k.cert_file ? h ^ 0x9e3779b97f4a7c15ULL : h;
  }
};

/// Content-hash → scan-outcome memo. One instance lives for the duration of
/// a study and is shared by every worker.
class ScanCache
    : public util::ShardedMemo<ScanCacheKey,
                               std::shared_ptr<const CachedFileScan>,
                               ScanCacheKeyHash> {
 public:
  using Key = ScanCacheKey;

  /// Builds the key for one file.
  [[nodiscard]] static Key MakeKey(const util::Bytes& content, bool cert_file);

  /// Persists every entry to `path` through util::WriteCacheFile (versioned
  /// header, checksum, atomic rename; DESIGN.md §15). Entries serialize in
  /// sorted key order, so two caches holding the same outcomes write
  /// byte-identical files — which is what makes concurrent last-writer-wins
  /// saves into one cache dir unobservable. Returns false on I/O failure.
  bool SaveToFile(const std::string& path) const;

  /// Merges entries from a file written by SaveToFile (first-wins against
  /// anything already resident). A missing, foreign, version-mismatched, or
  /// corrupt file, or one holding a pin record no scan can produce, returns
  /// false and loads nothing — the cold-start path. Pins decode straight
  /// into their flat records, with no allocation per pin.
  /// Loaded entries count toward inserts and entries, never toward
  /// lookups/hits: warm-start provenance is reported by the caller's
  /// cache.persist.* gauges instead.
  bool LoadFromFile(const std::string& path);

  /// Binds the shard locks to the `lock.scan_cache.*` family.
  void AttachMetrics(obs::MetricsRegistry* metrics) {
    ShardedMemo::AttachMetrics(metrics, "scan_cache");
  }

  static constexpr std::uint32_t kFileKind = 0x314e4353;  // "SCN1"
  /// Version 2 files hold only entries the kScanCacheMinBytes admission
  /// rule can reach; a version 1 file may also hold small-file entries no
  /// lookup reaches, so it loads nothing and the next save replaces it.
  static constexpr std::uint32_t kFileVersion = 2;
};

}  // namespace pinscope::staticanalysis
