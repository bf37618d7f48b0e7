#include "util/pipeline_scheduler.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/error.h"

namespace pinscope::util {

int ResolveThreads(int requested, std::size_t n) {
  if (n == 0) return 0;
  std::size_t t;
  if (requested <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = hw == 0 ? 1 : hw;
  } else {
    t = static_cast<std::size_t>(requested);
  }
  return static_cast<int>(std::min(t, n));
}

void SchedulerFaultPlan::Set(std::size_t stage, std::size_t item, Fault fault) {
  Cell& cell = faults_[{stage, item}];
  cell.delay = fault.delay;
  cell.remaining_failures.store(fault.fail_times, std::memory_order_relaxed);
}

void SchedulerFaultPlan::MaybeInject(std::size_t stage, std::size_t item) const {
  const auto it = faults_.find({stage, item});
  if (it == faults_.end()) return;
  const Cell& cell = it->second;
  if (cell.delay.count() > 0) std::this_thread::sleep_for(cell.delay);
  // fetch_sub admits exactly fail_times throws even when attempts race.
  if (cell.remaining_failures.load(std::memory_order_relaxed) > 0 &&
      cell.remaining_failures.fetch_sub(1, std::memory_order_relaxed) > 0) {
    throw Error("injected fault: stage " + std::to_string(stage) + ", item " +
                std::to_string(item));
  }
}

namespace {

/// A ready task: run `stage` of `item`.
struct Task {
  std::size_t item = 0;
  std::size_t stage = 0;
};

/// Everything one run's workers share.
struct Run {
  const std::vector<PipelineStage>* stages = nullptr;
  const PipelineOptions* options = nullptr;
  std::size_t n = 0;

  BoundedMpmcQueue<Task> queue;
  std::atomic<std::size_t> completed{0};
  std::atomic<std::uint64_t> backpressure{0};
  std::atomic<std::uint64_t> retries{0};

  /// Cached metric handles (null-safe no-ops without a registry).
  obs::Counter tasks_counter;
  obs::Counter backpressure_counter;
  obs::Counter retries_counter;
  obs::Counter failures_counter;
  obs::Histogram depth_histogram;

  /// Timeline label ids, one per stage (empty without a timeline).
  std::vector<std::uint32_t> stage_labels;

  Run(std::size_t n_items, std::size_t capacity,
      obs::MetricsRegistry* metrics)
      : n(n_items), queue(capacity, metrics) {}

  [[nodiscard]] obs::Timeline* timeline() const { return options->timeline; }

  [[nodiscard]] std::uint64_t KeyFor(std::size_t item) const {
    return options->timeline_key ? options->timeline_key(item)
                                 : static_cast<std::uint64_t>(item);
  }
};

/// Interns every stage name once so workers record labels, not strings.
void PrepareTimeline(Run& run) {
  obs::Timeline* timeline = run.timeline();
  if (timeline == nullptr) return;
  run.stage_labels.reserve(run.stages->size());
  for (const PipelineStage& stage : *run.stages) {
    run.stage_labels.push_back(timeline->InternStage(stage.name));
  }
  timeline->MarkRunStart();
}

/// Records the whole attempt loop of (item, stage) as one kStage interval
/// on `worker` when a timeline rides along. Mirrors StageHook semantics:
/// injected delays and retries count as time inside the stage.
class StageIntervalScope {
 public:
  StageIntervalScope(Run& run, const Task& task, int worker)
      : timeline_(run.timeline()) {
    if (timeline_ == nullptr) return;
    worker_ = static_cast<std::uint32_t>(worker);
    key_ = run.KeyFor(task.item);
    label_ = run.stage_labels[task.stage];
    start_us_ = timeline_->NowUs();
  }
  StageIntervalScope(const StageIntervalScope&) = delete;
  StageIntervalScope& operator=(const StageIntervalScope&) = delete;
  ~StageIntervalScope() {
    if (timeline_ == nullptr) return;
    timeline_->RecordStage(worker_, key_, label_, start_us_,
                           timeline_->NowUs());
  }

 private:
  obs::Timeline* timeline_;
  std::uint32_t worker_ = 0;
  std::uint64_t key_ = 0;
  std::uint32_t label_ = 0;
  std::int64_t start_us_ = 0;
};

/// Runs one stage attempt chain for a task; returns true when the stage
/// (eventually) succeeded, false when it failed after retries (failure
/// recorded in `sink`).
bool RunStageGuarded(Run& run, const Task& task, int worker,
                     std::vector<StageFailure>& sink) {
  const PipelineStage& stage = (*run.stages)[task.stage];
  const int max_retries = std::max(run.options->max_stage_retries, 0);
  const StageHook& hook = run.options->stage_hook;
  const StageIntervalScope interval(run, task, worker);
  if (hook) hook(task.item, task.stage, StageEvent::kBegin);
  std::string message;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0) {
      run.retries.fetch_add(1, std::memory_order_relaxed);
      run.retries_counter.Increment();
    }
    try {
      if (run.options->faults != nullptr) {
        run.options->faults->MaybeInject(task.stage, task.item);
      }
      const obs::Span span =
          run.options->trace == nullptr
              ? obs::Span()
              : obs::Span(run.options->trace,
                          std::string(run.options->trace_label) + "." +
                              stage.name,
                          "sched", {{"item", std::to_string(task.item)}});
      stage.body(task.item);
      run.tasks_counter.Increment();
      if (hook) hook(task.item, task.stage, StageEvent::kEnd);
      return true;
    } catch (const std::exception& e) {
      message = e.what();
    } catch (...) {
      message = "unknown exception";
    }
  }
  sink.push_back({task.item, task.stage, stage.name, std::move(message)});
  run.failures_counter.Increment();
  if (hook) hook(task.item, task.stage, StageEvent::kFailed);
  return false;
}

/// Marks one item's chain finished (success or failure); the last completion
/// closes the queue so blocked poppers drain out.
void CompleteItem(Run& run) {
  if (run.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == run.n) {
    run.queue.Close();
  }
}

/// Pushes a ready task without ever blocking: on a full queue the *caller*
/// runs the continuation, which is what bounds in-flight work. Returns the
/// task to run inline, if any.
std::optional<Task> PushOrKeep(Run& run, Task task) {
  if (run.queue.TryPush(task)) {
    run.depth_histogram.Record(static_cast<double>(run.queue.Size()));
    return std::nullopt;
  }
  run.backpressure.fetch_add(1, std::memory_order_relaxed);
  run.backpressure_counter.Increment();
  return task;
}

/// Executes `first` and all of its inline continuations, advancing the item
/// through its chain until a push succeeds, the chain ends, or a stage fails.
void DrainChain(Run& run, Task first, int worker,
                std::vector<StageFailure>& sink) {
  Task task = first;
  for (;;) {
    if (!RunStageGuarded(run, task, worker, sink)) {
      CompleteItem(run);  // failed: remaining stages are skipped
      return;
    }
    if (task.stage + 1 == run.stages->size()) {
      CompleteItem(run);
      return;
    }
    const std::optional<Task> inline_task =
        PushOrKeep(run, {task.item, task.stage + 1});
    if (!inline_task.has_value()) return;  // someone else continues the chain
    task = *inline_task;
  }
}

/// Pops the next task, timing any blocked wait into the worker's timeline
/// lane: a wait that eventually yielded a task is queue starvation, a wait
/// that observed the close is the tail join. The ambient pause keeps a
/// contended queue mutex inside the timed wait from double-counting as
/// kLockWait.
std::optional<Task> PopTimed(Run& run, int worker) {
  obs::Timeline* timeline = run.timeline();
  if (timeline == nullptr) return run.queue.Pop();
  std::optional<Task> task = run.queue.TryPop();
  if (task.has_value()) return task;
  const obs::TimelineAmbientPause pause;
  const std::int64_t start = timeline->NowUs();
  task = run.queue.Pop();
  timeline->RecordIdle(static_cast<std::uint32_t>(worker),
                       task.has_value() ? obs::IntervalKind::kQueueStarved
                                        : obs::IntervalKind::kTailJoin,
                       start, timeline->NowUs());
  return task;
}

void WorkerLoop(Run& run, int worker, std::vector<StageFailure>& sink) {
  const obs::TimelineWorkerScope ambient(
      run.timeline(), static_cast<std::uint32_t>(worker));
  const obs::Span span =
      run.options->trace == nullptr
          ? obs::Span()
          : obs::Span(run.options->trace,
                      std::string(run.options->trace_label) + ".worker",
                      "sched", {{"worker", std::to_string(worker)}});
  while (const std::optional<Task> task = PopTimed(run, worker)) {
    DrainChain(run, *task, worker, sink);
  }
}

/// Blocking seed push with backpressure timing on the submitter's lane
/// (worker 0): a full queue at seed time means every worker is busy and
/// the buffer is at capacity — classic upstream backpressure.
void SeedPush(Run& run, Task task) {
  obs::Timeline* timeline = run.timeline();
  if (timeline == nullptr) {
    run.queue.Push(task);
  } else if (!run.queue.TryPush(task)) {
    const obs::TimelineAmbientPause pause;
    const std::int64_t start = timeline->NowUs();
    run.queue.Push(task);
    timeline->RecordIdle(0, obs::IntervalKind::kBackpressure, start,
                         timeline->NowUs());
  }
  run.depth_histogram.Record(static_cast<double>(run.queue.Size()));
}

}  // namespace

PipelineResult RunPipeline(std::size_t n,
                           const std::vector<PipelineStage>& stages,
                           const PipelineOptions& options) {
  PipelineResult result;
  if (n == 0 || stages.empty()) return result;

  const int workers = ResolveThreads(options.threads, n);

  if (workers <= 1) {
    // Inline serial path: the chain order is the only ordering there is.
    Run run(n, 1, options.metrics);
    run.stages = &stages;
    run.options = &options;
    PrepareTimeline(run);
    if (options.metrics != nullptr) {
      run.tasks_counter = options.metrics->counter("sched.tasks");
      run.retries_counter = options.metrics->counter("sched.retries");
      run.failures_counter = options.metrics->counter("sched.failures");
    }
    {
      const obs::TimelineWorkerScope ambient(options.timeline, 0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t s = 0; s < stages.size(); ++s) {
          if (!RunStageGuarded(run, {i, s}, 0, result.failures)) break;
        }
      }
    }
    result.retries = run.retries.load(std::memory_order_relaxed);
    if (options.metrics != nullptr) {
      // Keep the metric surface identical to the threaded path: an inline
      // run has no ready queue, so its peak depth is 0.
      options.metrics->gauge("sched.queue_peak_depth").Set(0);
    }
    if (options.timeline != nullptr) options.timeline->MarkRunEnd();
    return result;
  }

  const std::size_t depth =
      options.queue_depth > 0
          ? options.queue_depth
          : std::max<std::size_t>(2 * static_cast<std::size_t>(workers), 2);
  Run run(n, depth, options.metrics);
  run.stages = &stages;
  run.options = &options;
  PrepareTimeline(run);
  if (options.metrics != nullptr) {
    run.tasks_counter = options.metrics->counter("sched.tasks");
    run.backpressure_counter =
        options.metrics->counter("sched.backpressure_inline");
    run.retries_counter = options.metrics->counter("sched.retries");
    run.failures_counter = options.metrics->counter("sched.failures");
    run.depth_histogram = options.metrics->histogram(
        "sched.queue_depth", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  }

  // Every worker collects failures privately; merged and sorted below so the
  // reported failure set is independent of scheduling.
  std::vector<std::vector<StageFailure>> per_worker(
      static_cast<std::size_t>(workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back([&run, &per_worker, w] {
      WorkerLoop(run, w, per_worker[static_cast<std::size_t>(w)]);
    });
  }

  // Seed stage 0 for every item, in item order (FIFO per stage). Blocking
  // pushes are safe here: workers always return to Pop, and the queue cannot
  // close before the last seed lands (an unseeded item is never complete).
  // With a timeline the submitter's blocked pushes are timed as worker 0's
  // backpressure (it becomes worker 0 right after the seeds).
  {
    const obs::TimelineWorkerScope ambient(options.timeline, 0);
    for (std::size_t i = 0; i < n; ++i) {
      SeedPush(run, {i, 0});
    }
  }
  // All seeds in: the submitter becomes worker 0 until the run drains.
  WorkerLoop(run, 0, per_worker[0]);
  for (std::thread& t : pool) t.join();

  for (auto& sink : per_worker) {
    result.failures.insert(result.failures.end(),
                           std::make_move_iterator(sink.begin()),
                           std::make_move_iterator(sink.end()));
  }
  std::sort(result.failures.begin(), result.failures.end(),
            [](const StageFailure& a, const StageFailure& b) {
              return a.item != b.item ? a.item < b.item : a.stage < b.stage;
            });
  result.peak_queue_depth = run.queue.PeakSize();
  result.backpressure_inline_runs =
      run.backpressure.load(std::memory_order_relaxed);
  result.retries = run.retries.load(std::memory_order_relaxed);
  if (options.metrics != nullptr) {
    options.metrics->gauge("sched.queue_peak_depth")
        .Set(result.peak_queue_depth);
  }
  if (options.timeline != nullptr) options.timeline->MarkRunEnd();
  return result;
}

}  // namespace pinscope::util
