// Bounded, streaming-safe interval timeline (ROADMAP item 3 · DESIGN §17).
//
// The run autopsy (obs/autopsy.h) needs *intervals* — who ran what, when,
// on which worker — which the flat metrics layer cannot answer and the
// O(corpus) TraceSink cannot afford on a 10⁵-app stream. The Timeline is
// the middle ground: every interval updates exact per-worker accumulators
// (busy/idle bucket totals — O(workers) memory, never sampled away), and a
// per-worker reservoir keeps at most `per_worker_cap` whole intervals for
// structural analysis (critical path, folded stacks). Memory is therefore
// O(workers · cap) no matter how many apps stream through; below the cap
// the sample is exhaustive, above it it is a uniform reservoir (algorithm
// R with a per-lane deterministic LCG).
//
// Determinism contract: identical to the rest of obs — the timeline is
// fed from the scheduler but never consulted by it; attaching one must not
// change a single exported byte (tests/core/autopsy_equivalence_test.cc).
//
// Lock-wait attribution: the scheduler registers each worker thread with
// an ambient thread-local scope (TimelineWorkerScope); any TrackedMutex
// that loses a race while such a scope is active reports its wait here via
// RecordAmbientLockWait (declared in obs/mutex.h, defined in timeline.cc),
// which is how per-worker lock-wait time lands in the idle breakdown
// without the caches knowing anything about workers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pinscope::obs {

/// What one recorded interval was spent on. kStage is busy time; the rest
/// are the idle-attribution taxonomy (DESIGN §17).
enum class IntervalKind : std::uint8_t {
  kStage,         ///< Running a stage body (attempt loop, incl. retries).
  kQueueStarved,  ///< Blocked popping an empty ready queue; a task arrived.
  kBackpressure,  ///< Blocked pushing a full ready queue (submitter only).
  kLockWait,      ///< Waiting on a contended TrackedMutex.
  kTailJoin,      ///< Final blocked pop that observed queue close.
};

/// Number of IntervalKind values (array sizing).
inline constexpr std::size_t kIntervalKindCount = 5;

/// Short lower-case label ("stage", "queue_starved", ...).
[[nodiscard]] std::string_view IntervalKindName(IntervalKind kind);

/// One sampled interval. `key` is the caller-defined 64-bit item identity
/// for kStage intervals (the study driver uses TelemetryKey: platform rank
/// in the top bits, universe index below); `label` indexes the timeline's
/// interned stage names (kStage) or lock names (kLockWait), 0 elsewhere.
struct TimelineInterval {
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  std::uint64_t key = 0;
  std::uint32_t label = 0;
  std::uint32_t worker = 0;
  IntervalKind kind = IntervalKind::kStage;

  [[nodiscard]] std::int64_t duration_us() const { return end_us - start_us; }
};

/// Exact (never sampled) per-worker totals, all in microseconds.
struct TimelineWorkerTotals {
  double busy_us = 0;           ///< kStage time (includes in-stage lock waits).
  double queue_starved_us = 0;  ///< kQueueStarved time.
  double backpressure_us = 0;   ///< kBackpressure time.
  double lock_wait_us = 0;      ///< kLockWait time (ambient TrackedMutex).
  double tail_join_us = 0;      ///< kTailJoin time.
  std::uint64_t stage_count = 0;      ///< kStage intervals offered.
  std::uint64_t intervals_seen = 0;   ///< All intervals offered (reservoir n).
  std::int64_t first_us = 0;          ///< Earliest interval start (0 if none).
  std::int64_t last_us = 0;           ///< Latest interval end.
};

struct TimelineOptions {
  /// Reservoir capacity per worker lane. The default comfortably holds every
  /// interval of paper-scale runs (≈5.3k apps × 3-4 stages spread over many
  /// workers) while capping a 10⁵-app stream at ~256 KiB per worker.
  std::size_t per_worker_cap = 8192;
};

/// See file comment. Recording methods are thread-safe (per-lane locking);
/// registration (InternStage) and snapshotting are expected from the
/// run-owning thread before/after the workers exist.
class Timeline {
 public:
  explicit Timeline(TimelineOptions options = {});
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;
  ~Timeline();

  /// Interns a stage name; returns the label id RecordStage expects.
  /// Idempotent per name. Call before the workers start.
  std::uint32_t InternStage(std::string_view name);

  /// Marks the run's wall-clock bounds (scheduler entry/exit). MarkRunEnd
  /// is idempotent; without these the analysis falls back to the recorded
  /// interval extrema.
  void MarkRunStart();
  void MarkRunEnd();

  /// Records one stage-body execution on `worker`.
  void RecordStage(std::uint32_t worker, std::uint64_t key, std::uint32_t label,
                   std::int64_t start_us, std::int64_t end_us);

  /// Records one idle interval (kQueueStarved / kBackpressure / kTailJoin).
  void RecordIdle(std::uint32_t worker, IntervalKind kind, std::int64_t start_us,
                  std::int64_t end_us);

  /// Records a contended-lock wait ending now on `worker` (interning
  /// `lock_name` on first use; safe from any thread).
  void RecordLockWait(std::uint32_t worker, std::string_view lock_name,
                      std::int64_t wait_us);

  /// Microseconds since construction — the clock every interval is on.
  [[nodiscard]] std::int64_t NowUs() const;

  // --- Post-run inspection (call after workers quiesce). -------------------

  /// Run bounds: [start, end] in timeline microseconds. Falls back to the
  /// interval extrema when Mark* was never called.
  [[nodiscard]] std::int64_t RunStartUs() const;
  [[nodiscard]] std::int64_t RunEndUs() const;

  /// Workers that recorded anything (lane indices are worker ids, dense
  /// from 0).
  [[nodiscard]] std::size_t WorkerCount() const;

  /// Exact totals for `worker` (zeroes for an idle lane).
  [[nodiscard]] TimelineWorkerTotals TotalsFor(std::size_t worker) const;

  /// Sampled intervals of `worker`, sorted by (start, end). Exhaustive when
  /// the lane saw at most `per_worker_cap` intervals.
  [[nodiscard]] std::vector<TimelineInterval> SamplesFor(
      std::size_t worker) const;

  /// Total sampled intervals across lanes (≤ WorkerCount() · cap).
  [[nodiscard]] std::size_t SampleCount() const;

  /// Total intervals offered across lanes.
  [[nodiscard]] std::uint64_t IntervalsSeen() const;

  /// Interned stage/lock name for a label id ("?" when out of range).
  [[nodiscard]] std::string_view StageName(std::uint32_t label) const;
  [[nodiscard]] std::string_view LockName(std::uint32_t label) const;
  [[nodiscard]] std::size_t StageCount() const;
  [[nodiscard]] std::size_t LockNameCount() const;

  /// Upper bound of bytes the interval reservoirs can ever hold for the
  /// lanes allocated so far — constant in corpus size (the ring-bound test
  /// asserts it is identical for a 10× larger stream).
  [[nodiscard]] std::size_t ReservoirCapacityBytes() const;

  [[nodiscard]] std::size_t per_worker_cap() const {
    return options_.per_worker_cap;
  }

 private:
  struct Lane;

  /// Worker ids at or above this clamp into the last lane (far beyond any
  /// real pool; keeps the lane table a fixed array of atomic pointers so
  /// the record path never takes a shared lock).
  static constexpr std::size_t kMaxLanes = 512;

  Lane& LaneFor(std::uint32_t worker);
  void Offer(std::uint32_t worker, const TimelineInterval& interval);

  TimelineOptions options_;

  std::atomic<Lane*> lanes_[kMaxLanes] = {};
  mutable std::mutex grow_mu_;  ///< Guards lane allocation + name tables.
  std::vector<std::string> stage_names_;
  std::vector<std::string> lock_names_;

  std::atomic<std::int64_t> run_start_us_{-1};
  std::atomic<std::int64_t> run_end_us_{-1};
  std::int64_t epoch_ns_ = 0;  ///< steady_clock at construction (ns ticks).
};

/// RAII ambient-worker registration: while alive on a thread, contended
/// TrackedMutex waits on that thread are attributed to (timeline, worker).
/// Null timeline = no-op. Nesting restores the previous ambient on exit.
class TimelineWorkerScope {
 public:
  TimelineWorkerScope(Timeline* timeline, std::uint32_t worker);
  TimelineWorkerScope(const TimelineWorkerScope&) = delete;
  TimelineWorkerScope& operator=(const TimelineWorkerScope&) = delete;
  ~TimelineWorkerScope();

 private:
  Timeline* prev_timeline_;
  std::uint32_t prev_worker_;
};

/// RAII suppression of ambient lock-wait recording: the scheduler wraps its
/// own timed queue waits with this so a contended queue mutex inside a
/// kQueueStarved/kBackpressure interval is not double-counted as kLockWait.
class TimelineAmbientPause {
 public:
  TimelineAmbientPause();
  TimelineAmbientPause(const TimelineAmbientPause&) = delete;
  TimelineAmbientPause& operator=(const TimelineAmbientPause&) = delete;
  ~TimelineAmbientPause();

 private:
  Timeline* prev_timeline_;
  std::uint32_t prev_worker_;
};

}  // namespace pinscope::obs
