// Study-scoped memo of a pure function, shared by every worker of a study.
//
// pinscope memoizes three pure functions across a corpus: the static scan of
// a file's bytes (staticanalysis/scan_cache.h), chain validation
// (x509/validation_cache.h), and the MITM proxy's forged chain per hostname
// (net/forged_leaf_cache.h). ShardedMemo is the one concurrency policy behind
// all three: 16 shards, each a TrackedMutex (obs/mutex.h) beside an
// unordered_map, with the shard picked by the key's hash so parallel workers
// rarely contend.
//
// Why residency is unobservable: Insert is first-insert-wins and returns the
// resident value, and entries are never erased or replaced. Two workers that
// miss on one key at once both compute its value; the memoized function is
// pure, so both compute the same value, and whichever insert lands, each
// caller continues with a value equal to its own. Memoized and unmemoized
// studies therefore export byte-identical results (DESIGN.md §9, §10). The
// counters are diagnostics: which lookup hits depends on scheduling.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/mutex.h"

namespace pinscope::util {

/// Counter snapshot of one memo. Approximate while callers are in flight;
/// exact once they have joined.
struct MemoStats {
  std::size_t lookups = 0;  ///< Find calls.
  std::size_t hits = 0;     ///< Find calls that returned a value.
  std::size_t misses = 0;   ///< lookups - hits.
  std::size_t inserts = 0;  ///< Insert calls, losers of a race and loads included.
  std::size_t entries = 0;  ///< Resident keys; never more than inserts.

  [[nodiscard]] double HitRate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Thread-safe Key → Value memo with first-insert-wins inserts. With a
/// transparent `Hash` (one that declares `is_transparent`), Find also takes
/// any type that `Hash` and `Key ==` accept, such as a string_view for a
/// std::string key.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedMemo {
 public:
  static constexpr std::size_t kShards = 16;

  ShardedMemo() = default;
  ShardedMemo(const ShardedMemo&) = delete;
  ShardedMemo& operator=(const ShardedMemo&) = delete;

  /// The value resident for `key`, or nullopt. Counts one lookup, and one
  /// hit when found.
  template <typename K>
  [[nodiscard]] std::optional<Value> Find(const K& key) {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard = ShardFor(key);
    std::optional<Value> found;
    {
      std::lock_guard<obs::TrackedMutex> lock(shard.mu);
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) found = it->second;
    }
    if (found.has_value()) hits_.fetch_add(1, std::memory_order_relaxed);
    return found;
  }

  /// Deposits `value` unless `key` is already resident, and returns the
  /// resident value. Callers continue with that value, not their own, so
  /// racing callers all observe one entry.
  Value Insert(Key key, Value value) {
    inserts_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard = ShardFor(key);
    std::lock_guard<obs::TrackedMutex> lock(shard.mu);
    return shard.map.try_emplace(std::move(key), std::move(value)).first->second;
  }

  [[nodiscard]] MemoStats Stats() const {
    MemoStats stats;
    stats.lookups = lookups_.load(std::memory_order_relaxed);
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = stats.lookups - stats.hits;
    stats.inserts = inserts_.load(std::memory_order_relaxed);
    stats.entries = EntryCount();
    return stats;
  }

  /// Resident keys, counted by walking the shards.
  [[nodiscard]] std::size_t EntryCount() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<obs::TrackedMutex> lock(shard.mu);
      n += shard.map.size();
    }
    return n;
  }

  /// A copy of every resident entry, each key once, in no defined order
  /// (persistence sorts it into canonical bytes).
  [[nodiscard]] std::vector<std::pair<Key, Value>> Entries() const {
    std::vector<std::pair<Key, Value>> out;
    for (const Shard& shard : shards_) {
      std::lock_guard<obs::TrackedMutex> lock(shard.mu);
      out.insert(out.end(), shard.map.begin(), shard.map.end());
    }
    return out;
  }

  /// Binds every shard lock to the `lock.<name>.contended` /
  /// `lock.<name>.wait_us` family (obs/mutex.h), which the run autopsy's
  /// lock-wait attribution reads. Null-safe; call before the memo is shared
  /// across workers.
  void AttachMetrics(obs::MetricsRegistry* metrics, std::string_view name) {
    for (Shard& shard : shards_) shard.mu.Attach(metrics, name);
  }

 private:
  struct Shard {
    /// mutable so the read-only walks can lock on a const memo.
    mutable obs::TrackedMutex mu;
    std::unordered_map<Key, Value, Hash, std::equal_to<>> map;
  };

  template <typename K>
  Shard& ShardFor(const K& key) {
    // Keys in one shard share the hash's low bits; the map still spreads
    // them, because libstdc++ buckets by the hash modulo a prime.
    return shards_[Hash{}(key) % kShards];
  }

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> lookups_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> inserts_{0};
};

}  // namespace pinscope::util
