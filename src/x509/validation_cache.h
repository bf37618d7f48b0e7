// Chain-validation memoization (the "validate once per study" layer).
//
// ValidateChain is a pure function of (chain bytes, hostname, sim-time, store
// content, option bits): it reads no other state and draws no randomness. The
// dynamic pipeline evaluates that same function thousands of times per study —
// every app contacting a shared destination revalidates the identical served
// (or forged) chain against the identical platform store — so a study-scoped
// memo turns all but the first evaluation per distinct tuple into a lookup.
//
// The memo's sharing policy is util/sharded_memo.h's, so cached and uncached
// studies export byte-identical results (see DESIGN.md §10 and the
// `ctest -L dynamic` equivalence suite).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/clock.h"
#include "util/sharded_memo.h"
#include "x509/certificate.h"
#include "x509/root_store.h"
#include "x509/validation.h"

namespace pinscope::x509 {

/// Validation-memo key: everything ValidateChain's outcome depends on.
struct ValidationCacheKey {
  /// Concatenated per-certificate SHA-256 fingerprints, leaf first. Kept
  /// raw (32·n bytes) rather than re-hashed: the per-cert digests are
  /// already cached on the certificates, so building a key is pure copies,
  /// and equality is one memcmp.
  util::Bytes chain_fp;
  std::uint64_t store_token = 0;    ///< RootStore::ContentToken().
  std::uint64_t options_token = 0;  ///< Check flags + revocation digest.
  util::SimTime now = 0;
  std::string hostname;

  bool operator==(const ValidationCacheKey&) const = default;
};

struct ValidationCacheKeyHash {
  std::size_t operator()(const ValidationCacheKey& k) const {
    // The leading fingerprint bytes are already uniform; fold in the
    // scalar parts.
    std::size_t h = 0;
    if (k.chain_fp.size() >= sizeof(h)) {
      std::memcpy(&h, k.chain_fp.data(), sizeof(h));
    }
    h ^= k.store_token + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= k.options_token + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= static_cast<std::size_t>(k.now) + (h << 6) + (h >> 2);
    return h ^ std::hash<std::string>{}(k.hostname);
  }
};

/// (validation tuple) → ValidationResult memo. One instance lives for the
/// duration of a study and is shared by every worker.
class ValidationCache
    : public util::ShardedMemo<ValidationCacheKey, ValidationResult,
                               ValidationCacheKeyHash> {
 public:
  using Key = ValidationCacheKey;

  /// Builds the key for one validation.
  [[nodiscard]] static Key MakeKey(const CertificateChain& chain,
                                   std::string_view hostname, util::SimTime now,
                                   const RootStore& store,
                                   const ValidationOptions& options);

  /// Persists every memoized tuple to `path` through util::WriteCacheFile
  /// (versioned header, checksum, atomic rename; DESIGN.md §15). Entries
  /// serialize in sorted key order, so equal memos write byte-identical
  /// files. Returns false on I/O failure.
  bool SaveToFile(const std::string& path) const;

  /// Merges entries from a file written by SaveToFile (first-wins against
  /// anything resident). A missing, foreign, version-mismatched, or corrupt
  /// file returns false and loads nothing — the cold-start path. Loaded
  /// entries count toward inserts/entries, never toward lookups/hits.
  bool LoadFromFile(const std::string& path);

  static constexpr std::uint32_t kFileKind = 0x314c4156;  // "VAL1"
  static constexpr std::uint32_t kFileVersion = 1;
};

/// ValidateChain with optional memoization: consults `cache` when non-null,
/// otherwise (or on miss) runs the real validation. The cache never changes
/// the returned result — only whether it was recomputed.
[[nodiscard]] ValidationResult CachedValidateChain(
    ValidationCache* cache, const CertificateChain& chain,
    std::string_view hostname, util::SimTime now, const RootStore& store,
    const ValidationOptions& options);

}  // namespace pinscope::x509
