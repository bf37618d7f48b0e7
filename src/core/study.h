// The study: runs static + dynamic analysis over every dataset and keeps
// per-app results for the evaluation analyses (src/core/analyses.h).
//
// This is the paper's Figure 1 pipeline, end to end: crawl (generated
// ecosystem) → static detection → two-phase dynamic detection → circumvention
// → PII inspection. One driver executes it, RunStreamingStudy; Study is the
// materialized view of its results over a generated Ecosystem.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dynamicanalysis/pipeline.h"
#include "obs/obs.h"
#include "staticanalysis/static_report.h"
#include "store/generator.h"

namespace pinscope::util {
class SchedulerFaultPlan;
}  // namespace pinscope::util

namespace pinscope::obs {
class Telemetry;
class Timeline;
}  // namespace pinscope::obs

namespace pinscope::core {

class StreamExporter;

/// Combined per-app result.
struct AppResult {
  std::size_t universe_index = 0;
  const appmodel::App* app = nullptr;
  staticanalysis::StaticReport static_report;
  dynamicanalysis::DynamicReport dynamic_report;
  /// Empty on success. A stage failure is recorded here ("<stage>:
  /// <message>") instead of aborting the study; the app's remaining stages
  /// are skipped and its reports stay empty (tests/core/sched_fault_test.cc).
  /// Always empty on the normal path.
  std::string error;

  [[nodiscard]] bool failed() const { return !error.empty(); }
};

/// Study configuration, shared by Study::Run and RunStreamingStudy.
struct StudyOptions {
  dynamicanalysis::DynamicOptions dynamic;
  /// §4.5: the Common-iOS dataset is re-run with a 2-minute settle so
  /// associated-domain verification finishes before capture.
  int common_ios_settle_seconds = 120;
  /// Worker threads for the per-app stage chains (0 = hardware concurrency,
  /// 1 = serial on the caller). Results are byte-identical for every value
  /// (DESIGN.md §8).
  int threads = 1;
  /// Optional observability sink for the whole study: the run opens a
  /// study-level span, each stage records per-app spans + phase-duration
  /// histograms, every layer below contributes counters, and the shared
  /// caches publish their hit-rates as `cache.<family>.*` gauges when the
  /// run finishes. Purely observational: exports are byte-identical with or
  /// without an observer, at any thread count (DESIGN.md §11; `ctest -L
  /// obs`).
  obs::Observer* observer = nullptr;
  /// Optional live-run telemetry (obs/telemetry.h): the run reports the
  /// expected chain total up front, marks each app's current stage as it
  /// enters/leaves, and signals chain completion — the feed behind the
  /// progress meter, heartbeat, and straggler watchdog. Like the observer,
  /// purely observational: exports, journal, and run reports are
  /// byte-identical with telemetry attached or not (`ctest -L telemetry`).
  /// The caller owns Start()/Stop().
  obs::Telemetry* telemetry = nullptr;
  /// Optional bounded interval timeline (obs/timeline.h) feeding the run
  /// autopsy (obs/autopsy.h): per-worker stage intervals plus the idle-time
  /// taxonomy (queue-starved / backpressure / lock-wait / tail-join),
  /// O(workers · cap) memory at any corpus size. Purely observational:
  /// exports, journal, and run reports are byte-identical with a timeline
  /// attached or not (`ctest -L autopsy`).
  obs::Timeline* timeline = nullptr;
  /// Ready-queue capacity (0 = 2× the worker count). A pure buffering/
  /// backpressure knob — results are identical for every depth ≥ 1.
  std::size_t queue_depth = 0;
  /// Re-run a failed stage this many times before recording the app's
  /// error verdict. Stage bodies overwrite their slot, so a retried stage
  /// replays cleanly.
  int stage_retries = 0;
  /// Test-only fault injection (delays and transient failures at stage
  /// entry, keyed by work-item index; see util/pipeline_scheduler.h). The
  /// stages are 0 hydrate, 1 static, 2 dynamic, 3 verdict.
  const util::SchedulerFaultPlan* fault_plan = nullptr;
  /// Streaming hook: called once per app, last in its verdict stage (after
  /// the exporter has rendered its rows), in completion order from worker
  /// threads — synchronize externally. The driver frees the app's payload
  /// right after, so the callee may move from the result; `result.app`
  /// points into that payload and dies with it.
  std::function<void(AppResult&&)> on_result;
  /// When non-empty, the scan cache and validation memo warm-start from this
  /// directory when the run starts and persist back when it completes
  /// (core/cache_persist.h). A missing or corrupt file means a cold start;
  /// results are byte-identical warm or cold — only speed changes.
  std::string cache_dir;
  /// When set, only apps for which the filter returns true are analyzed —
  /// the incremental re-analysis hook (changed-apps-only mode). Results and
  /// exports then cover the filtered subset; merging with a prior full run's
  /// retained rows is the caller's job (core/stream_export.h MergeBase).
  std::function<bool(appmodel::Platform, std::size_t)> app_filter;
};

/// The materialized result view over one generated ecosystem. Run() streams
/// every dataset app through RunStreamingStudy (core/stream_study.h) and
/// keeps each result, keyed by universe index, for the evaluation analyses
/// (core/analyses.h), the CLI tables, and the exports (core/export.h).
class Study {
 public:
  explicit Study(const store::Ecosystem& eco, StudyOptions options = {});
  Study(Study&&) noexcept;
  ~Study();

  /// Executes static + dynamic analysis for every app appearing in any
  /// dataset (each app analyzed once; dataset views share results),
  /// replacing any previous run's results. The output is byte-identical at
  /// every thread count because every app derives its RNG streams from the
  /// study seed + app identity (DESIGN.md §8).
  void Run();

  [[nodiscard]] const store::Ecosystem& ecosystem() const { return *eco_; }

  /// Result for one universe app (Run() must have completed).
  [[nodiscard]] const AppResult& result(appmodel::Platform p,
                                        std::size_t universe_index) const;

  /// Results for every member of a dataset.
  [[nodiscard]] std::vector<const AppResult*> DatasetResults(
      store::DatasetId id, appmodel::Platform p) const;

  /// All analyzed results for a platform, in ascending universe index.
  [[nodiscard]] std::vector<const AppResult*> AllResults(appmodel::Platform p) const;

  /// The row-retaining exporter Run() fed; its Finish* replays are the
  /// study's exports.
  [[nodiscard]] const StreamExporter& exporter() const { return *exporter_; }

 private:
  const store::Ecosystem* eco_;
  StudyOptions options_;
  std::unique_ptr<StreamExporter> exporter_;
  std::map<std::size_t, AppResult> android_results_;
  std::map<std::size_t, AppResult> ios_results_;
};

}  // namespace pinscope::core
