// Chain-validation memoization (the "validate once per study" layer).
//
// ValidateChain is a pure function of (chain bytes, hostname, sim-time, store
// content, option bits): it reads no other state and draws no randomness. The
// dynamic pipeline evaluates that same function thousands of times per study —
// every app contacting a shared destination revalidates the identical served
// (or forged) chain against the identical platform store — so a study-scoped
// memo turns all but the first evaluation per distinct tuple into a lookup.
//
// Thread safety & determinism mirror staticanalysis/scan_cache.h: the map is
// sharded (per-shard mutex, shard chosen by a chain-fingerprint byte) and
// inserts are first-wins. A racing worker that validated the same tuple
// deposits an *identical* ValidationResult, so which insert lands is
// unobservable — cached and uncached studies export byte-identical results
// (see DESIGN.md §10 and the `ctest -L dynamic` equivalence suite).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/mutex.h"

#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "x509/certificate.h"
#include "x509/root_store.h"
#include "x509/validation.h"

namespace pinscope::x509 {

/// Monotonic counters describing a cache's lifetime (snapshot; the cache
/// keeps them in atomics). Per-shard hit attribution is schedule-dependent
/// under parallel studies, but the aggregate is stable: each distinct tuple
/// misses exactly once.
struct ValidationCacheStats {
  std::size_t lookups = 0;  ///< Validations that consulted the cache.
  std::size_t hits = 0;     ///< Validations served from a memoized result.
  std::size_t misses = 0;   ///< Validations that had to run.
  std::size_t inserts = 0;  ///< Deposit attempts (≥ entries; losers of a
                            ///< first-insert-wins race still count one).
  std::size_t entries = 0;  ///< Distinct tuples stored.

  [[nodiscard]] double HitRate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Thread-safe, deterministic (validation tuple) → ValidationResult map. One
/// instance lives for the duration of a Study and is shared by every worker.
class ValidationCache {
 public:
  /// Cache key: everything ValidateChain's outcome depends on.
  struct Key {
    /// Concatenated per-certificate SHA-256 fingerprints, leaf first. Kept
    /// raw (32·n bytes) rather than re-hashed: the per-cert digests are
    /// already cached on the certificates, so building a key is pure copies,
    /// and equality is one memcmp.
    util::Bytes chain_fp;
    std::uint64_t store_token = 0;    ///< RootStore::ContentToken().
    std::uint64_t options_token = 0;  ///< Check flags + revocation digest.
    util::SimTime now = 0;
    std::string hostname;

    bool operator==(const Key&) const = default;
  };

  explicit ValidationCache(std::size_t shard_count = kDefaultShards);

  ValidationCache(const ValidationCache&) = delete;
  ValidationCache& operator=(const ValidationCache&) = delete;

  /// Builds the key for one validation.
  [[nodiscard]] static Key MakeKey(const CertificateChain& chain,
                                   std::string_view hostname, util::SimTime now,
                                   const RootStore& store,
                                   const ValidationOptions& options);

  /// Looks up a memoized result. Counts one lookup. nullopt on miss.
  [[nodiscard]] std::optional<ValidationResult> Find(const Key& key);

  /// Deposits a result (first insert wins) and returns the resident value —
  /// racing workers all observe one canonical entry.
  ValidationResult Insert(Key key, ValidationResult result);

  /// Counter snapshot (approximate while validations are in flight; exact
  /// once the parallel loop has joined).
  [[nodiscard]] ValidationCacheStats Stats() const;

  /// Resident entry count, measured by walking the shards (vs the
  /// Stats().entries counter, which tracks winning inserts — equal once the
  /// concurrent callers have joined, which tests/x509/validation_cache_test.cc
  /// asserts).
  [[nodiscard]] std::size_t EntryCount() const;

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

  /// Binds every shard's lock to the `lock.<name>.contended` /
  /// `lock.<name>.wait_us` family (obs/mutex.h) so the run autopsy's
  /// idle-time attribution covers this cache. Null-safe; call before the
  /// cache is shared across workers.
  void AttachMetrics(obs::MetricsRegistry* metrics,
                     std::string_view name = "validation_cache") {
    for (std::size_t s = 0; s < shard_count_; ++s) {
      shards_[s].mu.Attach(metrics, name);
    }
  }

  static constexpr std::size_t kDefaultShards = 16;
  static constexpr std::uint32_t kFileKind = 0x314c4156;  // "VAL1"
  static constexpr std::uint32_t kFileVersion = 1;

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
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

  struct Shard {
    /// mutable so the read-only EntryCount() walk can lock on a const cache.
    mutable obs::TrackedMutex mu;
    std::unordered_map<Key, ValidationResult, KeyHash> map;
  };

  Shard& ShardFor(const Key& key) {
    // Use a fingerprint byte the hash does not (bytes 0-7 feed KeyHash) so
    // shard choice and within-shard bucketing stay independent.
    const std::uint8_t b = key.chain_fp.size() > 8 ? key.chain_fp[8] : 0;
    return shards_[b % shard_count_];
  }

  const std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;

  std::atomic<std::size_t> lookups_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> inserts_{0};
  std::atomic<std::size_t> entries_{0};
};

/// ValidateChain with optional memoization: consults `cache` when non-null,
/// otherwise (or on miss) runs the real validation. The cache never changes
/// the returned result — only whether it was recomputed.
[[nodiscard]] ValidationResult CachedValidateChain(
    ValidationCache* cache, const CertificateChain& chain,
    std::string_view hostname, util::SimTime now, const RootStore& store,
    const ValidationOptions& options);

}  // namespace pinscope::x509
