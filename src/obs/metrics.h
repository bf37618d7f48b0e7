// Unified metrics for the study pipeline (DESIGN.md §11).
//
// Every layer of the pipeline — static scanner, dynamic pipeline, MITM
// proxy, TLS handshakes, x509 validation, and the three study caches —
// records into one MetricsRegistry of named counters, gauges, and
// fixed-bucket histograms instead of keeping its own ad-hoc stats surface.
// The registry is thread-safe the same way the study caches are: hot-path
// writes land in 16-way sharded atomics (shard chosen per thread) and are
// merged only when a snapshot is read, so parallel workers almost never
// touch the same cache line.
//
// Determinism contract: metrics are pure observability. Counter values and
// timer durations never feed a seeded RNG, never enter exported study bytes,
// and are excluded from every cache key — studies export byte-identical
// results with or without a registry attached (`ctest -L obs`). Wall-clock
// durations recorded by ScopedTimer are of course schedule-dependent; that
// is precisely why they live here and nowhere else.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pinscope::obs {

class MetricsRegistry;

namespace internal {

/// Shards hot-path writes so parallel workers rarely share a cache line.
constexpr std::size_t kShards = 16;

/// Stable per-thread shard index.
[[nodiscard]] std::size_t ThisThreadShard();

struct CounterCell {
  std::atomic<std::uint64_t> shards[kShards] = {};

  void Add(std::uint64_t n) {
    shards[ThisThreadShard()].fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Sum() const {
    std::uint64_t total = 0;
    for (const auto& s : shards) total += s.load(std::memory_order_relaxed);
    return total;
  }
};

struct GaugeCell {
  std::atomic<std::uint64_t> value{0};
};

/// Lock-free add for pre-C++20-library atomics: a plain CAS loop.
void AtomicAddDouble(std::atomic<double>& a, double v);
void AtomicMinDouble(std::atomic<double>& a, double v);
void AtomicMaxDouble(std::atomic<double>& a, double v);

struct HistogramCell {
  explicit HistogramCell(std::vector<double> bucket_bounds);

  void Record(double value);

  /// Upper bucket bounds, ascending; an implicit overflow bucket follows.
  const std::vector<double> bounds;
  /// bounds.size() + 1 buckets; bucket i counts values ≤ bounds[i] (and
  /// greater than bounds[i-1]); the last bucket counts everything above
  /// bounds.back().
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
  std::atomic<double> sum{0.0};
  std::atomic<double> min;
  std::atomic<double> max;
};

}  // namespace internal

/// Handle to a named monotonic counter. Copyable, trivially cheap; a
/// default-constructed handle is a no-op sink, which is how call sites stay
/// unconditional when no registry is attached.
class Counter {
 public:
  Counter() = default;

  void Add(std::uint64_t n) {
    if (cell_ != nullptr) cell_->Add(n);
  }
  void Increment() { Add(1); }

 private:
  friend class MetricsRegistry;
  explicit Counter(internal::CounterCell* cell) : cell_(cell) {}
  internal::CounterCell* cell_ = nullptr;
};

/// Handle to a named gauge (last-write-wins value — used for snapshot-style
/// facts like cache entry counts, where re-publishing must be idempotent).
class Gauge {
 public:
  Gauge() = default;

  void Set(std::uint64_t v) {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(internal::GaugeCell* cell) : cell_(cell) {}
  internal::GaugeCell* cell_ = nullptr;
};

/// Handle to a named fixed-bucket histogram. Null handle = no-op.
class Histogram {
 public:
  Histogram() = default;

  void Record(double value) {
    if (cell_ != nullptr) cell_->Record(value);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(internal::HistogramCell* cell) : cell_(cell) {}
  internal::HistogramCell* cell_ = nullptr;
};

/// Merged read-side view of one histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< Upper bounds, ascending.
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last).
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0.
  double max = 0.0;

  [[nodiscard]] double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Bucket-interpolated quantile estimate, q in [0, 1]. Linear within the
  /// selected bucket (first bucket's lower edge is 0, the overflow bucket's
  /// upper edge is the recorded max), clamped to [min, max] so estimates
  /// never leave the observed range. With log2 bounds the relative error is
  /// bounded by one octave — see Log2DurationBoundsUs(). 0 when empty.
  [[nodiscard]] double Quantile(double q) const;
};

/// Merged read-side view of a whole registry. Maps are sorted by name, so
/// any serialization of a snapshot is deterministic given the same totals.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Thread-safe registry of named metrics. Handle creation takes a mutex
/// (rare — call sites cache handles); recording through a handle is
/// lock-free sharded-atomic work. One instance serves a whole study.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Gets or creates the counter named `name`.
  [[nodiscard]] Counter counter(std::string_view name);

  /// Gets or creates the gauge named `name`.
  [[nodiscard]] Gauge gauge(std::string_view name);

  /// Gets or creates a histogram. `bounds` must be ascending; empty means
  /// DefaultDurationBoundsUs(). Bounds are fixed at creation — later calls
  /// with different bounds return the existing histogram unchanged.
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::vector<double> bounds = {});

  /// Merged snapshot (approximate while writers are in flight; exact once
  /// the parallel loops have joined).
  [[nodiscard]] MetricsSnapshot Snapshot() const;

  /// Default histogram bounds for wall durations in microseconds: roughly
  /// exponential from 50 µs to 5 s, 16 buckets plus overflow.
  [[nodiscard]] static const std::vector<double>& DefaultDurationBoundsUs();

  /// Log2-bucketed duration bounds in microseconds: powers of two from
  /// 2^4 (16 µs) through 2^26 (~67 s), 23 buckets plus overflow. Adjacent
  /// bounds differ by exactly 2x, so a bucket-interpolated Quantile() is
  /// never off by more than one octave — the bounded-error contract the
  /// phase.* percentiles advertise.
  [[nodiscard]] static const std::vector<double>& Log2DurationBoundsUs();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<internal::CounterCell>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<internal::GaugeCell>, std::less<>>
      gauges_;
  std::map<std::string, std::unique_ptr<internal::HistogramCell>, std::less<>>
      histograms_;
};

/// Null-safe handle factories for optional registries.
[[nodiscard]] inline Counter CounterOrNull(MetricsRegistry* registry,
                                           std::string_view name) {
  return registry == nullptr ? Counter() : registry->counter(name);
}
[[nodiscard]] inline Histogram HistogramOrNull(MetricsRegistry* registry,
                                               std::string_view name) {
  return registry == nullptr ? Histogram() : registry->histogram(name);
}

/// The handle factory for `phase.*` latency histograms: log2 bounds, so the
/// summary/heartbeat/OpenMetrics percentiles carry the bounded-error
/// guarantee. Null registry = no-op handle, like HistogramOrNull.
[[nodiscard]] inline Histogram PhaseHistogramOrNull(MetricsRegistry* registry,
                                                    std::string_view name) {
  return registry == nullptr
             ? Histogram()
             : registry->histogram(name,
                                   MetricsRegistry::Log2DurationBoundsUs());
}

/// RAII wall timer: records the scope's elapsed microseconds into a
/// histogram on destruction. A default-constructed (or null-histogram)
/// timer records nothing.
class ScopedTimer {
 public:
  ScopedTimer() = default;
  explicit ScopedTimer(Histogram histogram)
      : histogram_(histogram),
        armed_(true),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { Stop(); }

  /// Records now instead of at scope exit (idempotent).
  void Stop() {
    if (!armed_) return;
    armed_ = false;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_.Record(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }

 private:
  Histogram histogram_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_;
};

/// Serializes a snapshot as JSON (the `--metrics-out` format): counters and
/// gauges as name → value objects, histograms with bucket arrays and
/// sum/min/max/mean. Deterministic given the same snapshot.
[[nodiscard]] std::string WriteMetricsJson(const MetricsSnapshot& snapshot);

/// Serializes a snapshot in the OpenMetrics / Prometheus text exposition
/// format (the `--metrics-out=<path>.prom` format): dotted metric names are
/// sanitized to underscores and prefixed `pinscope_`, counters gain the
/// `_total` suffix, histograms render cumulative `_bucket{le="..."}` series
/// plus `_sum`/`_count` and (when non-empty) derived `_p50`/`_p90`/`_p99`
/// gauges, and the document ends with `# EOF`. Deterministic given the same
/// snapshot.
[[nodiscard]] std::string WriteMetricsOpenMetrics(const MetricsSnapshot& snapshot);

/// Serializes the histograms whose names start with `prefix` as a compact
/// JSON object of per-phase totals (ms). Nothing calls it; deleting it moves
/// pinbench's burst loop; it goes once that loop is pinned (ROADMAP item 1a).
[[nodiscard]] std::string WritePhaseBreakdownJson(
    const MetricsSnapshot& snapshot, std::string_view prefix = "phase.");

/// Renders the end-of-run `--summary` table: counters, derived cache
/// hit-rates (from `cache.<name>.lookups/hits/...` gauge families), and
/// per-phase wall-time totals.
[[nodiscard]] std::string RenderSummary(const MetricsSnapshot& snapshot);

}  // namespace pinscope::obs
