// Barrier-free pipelined scheduling for per-item stage chains.
//
// `RunPipeline(n, stages, options)` runs every item of [0, n) through an
// ordered chain of stages (the per-item DAG path: stage k+1 depends on
// stage k of the same item, and on nothing else), with a pool of workers
// pulling ready tasks from one bounded MPMC queue. Because the only edges
// are within an item's own chain, item N can be in its last stage while
// item N+1 is still in its first — no corpus-wide barrier between stages.
//
// Determinism contract: a stage body must write only per-item state and
// derive any RNG from the study seed plus the item identity. Under that
// contract the results are invariant to worker count, queue depth, and
// completion order, so the schedule is a pure throughput knob
// (tests/core/sched_equivalence_test.cc checks the study's exports,
// journal, and run reports against golden digests at every setting).
//
// Deadlock discipline: workers never block pushing a successor task — when
// the ready queue is full they run the continuation inline instead (counted
// as backpressure). Only the submitting thread uses blocking pushes, and it
// joins the worker pool once every seed task is in. Workers therefore only
// ever block popping from an empty queue, which the last completion closes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/mutex.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace pinscope::util {

/// Bounded multi-producer multi-consumer FIFO queue. Push blocks while the
/// queue is full, Pop blocks while it is empty; Close() wakes everyone —
/// blocked pushers give up, poppers drain the remaining items and then see
/// end-of-stream. Per-stage order is exactly submission order (FIFO).
///
/// With a registry, the queue's lock doubles as a contention probe: waits
/// surface as `lock.sched.queue.contended` / `.wait_us` (obs/mutex.h), the
/// direct measurement behind ROADMAP item 3d's lock-contention question.
template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(std::size_t capacity,
                            obs::MetricsRegistry* metrics = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity),
        mu_(metrics, "sched.queue"),
        size_gauge_(metrics == nullptr ? obs::Gauge()
                                       : metrics->gauge("sched.queue_size")) {}

  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// Blocks until there is room (or the queue closes). Returns false — and
  /// drops the item — only when the queue was closed.
  bool Push(T item) {
    std::unique_lock<obs::TrackedMutex> lock(mu_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    PushLocked(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<obs::TrackedMutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      PushLocked(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available; nullopt once the queue is closed
  /// *and* drained (in-flight items are never lost to a close).
  std::optional<T> Pop() {
    std::unique_lock<obs::TrackedMutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    return PopLocked();
  }

  /// Non-blocking pop: nullopt when nothing is queued right now.
  std::optional<T> TryPop() {
    std::lock_guard<obs::TrackedMutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    return PopLocked();
  }

  /// No further pushes succeed; blocked pushers and poppers wake up.
  void Close() {
    {
      std::lock_guard<obs::TrackedMutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] std::size_t Size() const {
    std::lock_guard<obs::TrackedMutex> lock(mu_);
    return items_.size();
  }

  /// High-water mark of Size() over the queue's lifetime.
  [[nodiscard]] std::size_t PeakSize() const {
    std::lock_guard<obs::TrackedMutex> lock(mu_);
    return peak_;
  }

 private:
  void PushLocked(T item) {
    items_.push_back(std::move(item));
    if (items_.size() > peak_) peak_ = items_.size();
    // Live depth gauge — what the telemetry sampler reads between snapshots
    // (the histogram above only materializes post-mortem).
    size_gauge_.Set(items_.size());
  }

  T PopLocked() {
    T item = std::move(items_.front());
    items_.pop_front();
    size_gauge_.Set(items_.size());
    not_full_.notify_one();
    return item;
  }

  const std::size_t capacity_;
  mutable obs::TrackedMutex mu_;
  obs::Gauge size_gauge_;
  std::condition_variable_any not_full_;
  std::condition_variable_any not_empty_;
  std::deque<T> items_;
  std::size_t peak_ = 0;
  bool closed_ = false;
};

/// One stage of the per-item chain.
struct PipelineStage {
  /// Short name used for span labels, metric families, and failure messages
  /// ("static", "dynamic", "verdict", ...).
  std::string name;
  /// Runs the stage for one item. Must only touch per-item state.
  std::function<void(std::size_t item)> body;
};

/// Test-only fault injection for the scheduler (tests/core/sched_fault_test).
/// Faults fire at stage *entry* — before the stage body runs — so an
/// injected failure never leaves partial per-item state (journal events,
/// half-written reports) behind, and a retried stage replays from scratch.
/// Configure with Set() before the run (not thread-safe); MaybeInject is
/// called concurrently by workers and is safe.
class SchedulerFaultPlan {
 public:
  struct Fault {
    /// Sleep this long at stage entry (a "slow app").
    std::chrono::milliseconds delay{0};
    /// Throw for this many attempts before letting the stage run (a
    /// "transiently failing app"; make it huge for a permanent failure).
    int fail_times = 0;
  };

  /// Arms a fault for stage `stage` of item `item`.
  void Set(std::size_t stage, std::size_t item, Fault fault);

  /// Applies any armed fault for (stage, item): sleeps, then throws
  /// util::Error("injected fault ...") while failures remain.
  void MaybeInject(std::size_t stage, std::size_t item) const;

 private:
  struct Cell {
    std::chrono::milliseconds delay{0};
    mutable std::atomic<int> remaining_failures{0};
  };
  std::map<std::pair<std::size_t, std::size_t>, Cell> faults_;
};

/// What a StageHook observes about one (item, stage) execution.
enum class StageEvent {
  kBegin,   ///< Entering the attempt loop (before fault injection / body).
  kEnd,     ///< The stage succeeded (possibly after retries).
  kFailed,  ///< Retries exhausted; the item's remaining stages are skipped.
};

/// Optional observability callback around each stage's whole attempt loop.
/// Wraps fault injection too — an injected delay counts as time inside the
/// stage, which is exactly what a straggler watchdog must see. Called
/// concurrently by workers; must be thread-safe and cheap. Purely
/// observational: never consulted by the scheduler.
using StageHook =
    std::function<void(std::size_t item, std::size_t stage, StageEvent event)>;

/// Knobs for one pipelined run.
struct PipelineOptions {
  /// Worker threads: 0 = hardware concurrency, 1 = run inline on the caller
  /// (no threads, no queue), N = at most N workers.
  int threads = 0;
  /// Capacity of the ready-task queue; 0 = automatic (2× the worker count).
  /// Smaller depths trade scheduling freedom for bounded buffering — any
  /// value ≥ 1 produces identical results.
  std::size_t queue_depth = 0;
  /// Re-run a stage this many times after it throws before recording the
  /// failure. Retries replay the whole stage, so bodies must be idempotent
  /// per attempt (the study stages are: they overwrite their slot).
  int max_stage_retries = 0;
  /// Test-only fault injection (see SchedulerFaultPlan).
  const SchedulerFaultPlan* faults = nullptr;
  /// Optional trace sink: one "<label>.worker" span per worker plus one
  /// "<label>.<stage>" span per stage execution. Purely observational.
  obs::TraceSink* trace = nullptr;
  /// Span/metric prefix.
  const char* trace_label = "sched";
  /// Optional metrics: `sched.tasks` / `sched.backpressure_inline` /
  /// `sched.retries` / `sched.failures` counters, a `sched.queue_depth`
  /// histogram sampled at every enqueue, and a `sched.queue_peak_depth`
  /// gauge. Purely observational (never consulted by the scheduler).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional per-stage observability hook (see StageHook).
  StageHook stage_hook;
  /// Optional bounded interval timeline (obs/timeline.h): one kStage
  /// interval per stage attempt loop, idle intervals for queue waits /
  /// backpressure / tail join, and ambient lock-wait attribution while a
  /// worker runs. Purely observational — never consulted by the scheduler —
  /// and O(workers · cap) memory regardless of n.
  obs::Timeline* timeline = nullptr;
  /// Maps an item index to the stable 64-bit identity stage intervals carry
  /// (the study driver passes TelemetryKey: platform rank in the top bits,
  /// universe index below). Defaults to the item index itself.
  std::function<std::uint64_t(std::size_t item)> timeline_key;
};

/// One failed stage of one item. Later stages of that item do not run.
struct StageFailure {
  std::size_t item = 0;
  std::size_t stage = 0;
  std::string stage_name;
  std::string message;
};

/// What a pipelined run observed. Failures are sorted by (item, stage), so
/// the error surface is as deterministic as the results.
struct PipelineResult {
  std::vector<StageFailure> failures;
  /// High-water mark of the ready queue (0 for inline runs).
  std::size_t peak_queue_depth = 0;
  /// Continuations run inline because the queue was full (backpressure).
  std::uint64_t backpressure_inline_runs = 0;
  /// Stage attempts beyond the first (only with max_stage_retries > 0).
  std::uint64_t retries = 0;
};

/// Number of workers a run over `n` items will actually use (never more
/// than `n`; never 0 for non-empty ranges, even if hardware_concurrency is
/// unknown).
[[nodiscard]] int ResolveThreads(int requested, std::size_t n);

/// Runs every item of [0, n) through `stages` in order, overlapping items
/// freely. Exceptions escaping a stage (after retries) are collected per
/// item — never thrown — so one failing item cannot abort its siblings;
/// the item's remaining stages are skipped.
[[nodiscard]] PipelineResult RunPipeline(std::size_t n,
                                         const std::vector<PipelineStage>& stages,
                                         const PipelineOptions& options = {});

}  // namespace pinscope::util
