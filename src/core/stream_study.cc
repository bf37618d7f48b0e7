#include "core/stream_study.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cache_persist.h"
#include "dynamicanalysis/pipeline.h"
#include "obs/telemetry.h"
#include "staticanalysis/static_report.h"
#include "util/pipeline_scheduler.h"

namespace pinscope::core {

namespace {

/// Everything that exists only while one app is in flight. Heap-held so a
/// finished slot frees back to ~32 bytes; the driver's live memory is then
/// (workers + queue depth) payloads, not corpus size.
struct StreamPayload {
  appmodel::App app;
  AppResult result;  ///< result.app points at `app` above.
};

struct StreamSlot {
  appmodel::Platform platform = appmodel::Platform::kAndroid;
  std::size_t index = 0;
  std::unique_ptr<StreamPayload> payload;
};

}  // namespace

StreamStudyResult RunStreamingStudy(const CorpusSource& source,
                                    const StudyOptions& options,
                                    StreamExporter& exporter) {
  obs::Observer* observer = options.observer;
  const obs::Span run_span = obs::SpanFor(observer, "study.run", "study");
  obs::ScopedTimer run_timer(
      obs::PhaseHistogramOrNull(obs::MetricsOf(observer), "phase.study"));
  obs::EventScope study_log = obs::ScopeFor(observer, "", "", "study");

  // The study-wide shared caches, warm-started from cache_dir when set. The
  // fixtures must share the pipeline's seed so shared forged leaves match
  // what an unshared pipeline would forge.
  const auto scan_cache = std::make_unique<staticanalysis::ScanCache>();
  const auto sim_fixtures =
      std::make_unique<dynamicanalysis::SimFixtures>(options.dynamic.seed);
  if (obs::MetricsRegistry* metrics = obs::MetricsOf(observer)) {
    scan_cache->AttachMetrics(metrics);
    sim_fixtures->AttachMetrics(metrics);
  }
  StudyCacheBaseline cache_baseline;
  if (!options.cache_dir.empty()) {
    cache_baseline =
        LoadStudyCaches(options.cache_dir, scan_cache.get(),
                        sim_fixtures->validation_cache(), observer);
  }

  // Work list: Android then iOS, each in ascending universe index. Both
  // platform_start events are emitted up front, with the (possibly
  // filtered) counts.
  std::vector<StreamSlot> slots;
  for (const appmodel::Platform p :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    std::vector<std::size_t> indices;
    for (const std::size_t idx : source.Indices(p)) {
      if (options.app_filter && !options.app_filter(p, idx)) continue;
      indices.push_back(idx);
    }
    study_log.Emit(obs::Severity::kInfo, "study.platform_start",
                   {{"platform", appmodel::PlatformName(p)},
                    {"apps", static_cast<std::uint64_t>(indices.size())}});
    for (const std::size_t idx : indices) {
      StreamSlot slot;
      slot.platform = p;
      slot.index = idx;
      slots.push_back(std::move(slot));
    }
  }

  StreamStudyResult outcome;
  if (!slots.empty()) {
    auto app_span = [&](std::size_t i, const char* stage) {
      return obs::SpanFor(
          observer, slots[i].payload->result.app->meta.app_id, "app",
          {{"platform",
            std::string(appmodel::PlatformName(slots[i].platform))},
           {"stage", stage}});
    };
    const std::vector<util::PipelineStage> stages = {
        {"hydrate",
         [&](std::size_t i) {
           StreamSlot& slot = slots[i];
           auto payload = std::make_unique<StreamPayload>();
           payload->app = source.Hydrate(slot.platform, slot.index);
           payload->result.universe_index = slot.index;
           payload->result.app = &payload->app;
           slot.payload = std::move(payload);
         }},
        {"static",
         [&](std::size_t i) {
           const obs::Span span = app_span(i, "static");
           staticanalysis::StaticAnalysisOptions static_opts;
           static_opts.ct_log = &source.ct_log();
           static_opts.scan_cache = scan_cache.get();
           static_opts.observer = observer;
           AppResult& r = slots[i].payload->result;
           obs::ScopedTimer timer(
               obs::PhaseHistogramOrNull(obs::MetricsOf(observer), "phase.static"));
           r.static_report = staticanalysis::AnalyzeStatically(*r.app, static_opts);
         }},
        {"dynamic",
         [&](std::size_t i) {
           const obs::Span span = app_span(i, "dynamic");
           dynamicanalysis::DynamicOptions dyn = options.dynamic;
           dyn.fixtures = sim_fixtures.get();
           dyn.observer = observer;
           if (slots[i].platform == appmodel::Platform::kIos &&
               source.NeedsCommonIosSettle(slots[i].index)) {
             dyn.settle_seconds = options.common_ios_settle_seconds;
           }
           AppResult& r = slots[i].payload->result;
           obs::ScopedTimer timer(
               obs::PhaseHistogramOrNull(obs::MetricsOf(observer), "phase.dynamic"));
           r.dynamic_report =
               dynamicanalysis::RunDynamicAnalysis(*r.app, source.world(), dyn);
         }},
        {"verdict",
         [&](std::size_t i) {
           StreamSlot& slot = slots[i];
           obs::CounterOrNull(obs::MetricsOf(observer), "study.apps_analyzed")
               .Increment();
           exporter.OnResult(slot.platform, slot.payload->result);
           if (options.on_result) {
             options.on_result(std::move(slot.payload->result));
           }
           // The whole point: the hydrated app and its reports die here, not
           // at the end of the run.
           slot.payload.reset();
         }},
    };

    util::PipelineOptions popts;
    popts.threads = options.threads;
    popts.queue_depth = options.queue_depth;
    popts.max_stage_retries = options.stage_retries;
    popts.faults = options.fault_plan;
    popts.trace = obs::TraceOf(observer);
    popts.metrics = obs::MetricsOf(observer);
    // Same key scheme as the telemetry, so autopsy labels resolve against
    // the corpus by (platform, universe index).
    popts.timeline = options.timeline;
    popts.timeline_key = [&slots](std::size_t item) {
      const StreamSlot& slot = slots[item];
      return obs::TelemetryKey(
          slot.platform == appmodel::Platform::kAndroid ? 0 : 1, slot.index);
    };
    if (obs::Telemetry* telemetry = options.telemetry) {
      telemetry->AddTotal(slots.size());
      popts.stage_hook = [telemetry, &slots, &stages](std::size_t item,
                                                      std::size_t stage,
                                                      util::StageEvent event) {
        const StreamSlot& slot = slots[item];
        const std::uint64_t key = obs::TelemetryKey(
            slot.platform == appmodel::Platform::kAndroid ? 0 : 1, slot.index);
        const std::string& name = stages[stage].name;
        switch (event) {
          case util::StageEvent::kBegin: {
            // kBegin of "hydrate" runs before the app has an identity — the
            // straggler table then shows the corpus index instead. Safe to
            // read the payload here: only this item's (sequential) chain
            // touches its slot, and the hook precedes the stage body.
            const std::string app_id =
                slot.payload != nullptr ? slot.payload->app.meta.app_id
                                        : "app#" + std::to_string(slot.index);
            telemetry->OnStageStart(key, appmodel::PlatformName(slot.platform),
                                    app_id, name);
            break;
          }
          case util::StageEvent::kEnd:
            telemetry->OnStageEnd(key, name);
            if (stage + 1 == stages.size()) telemetry->OnItemDone(key);
            break;
          case util::StageEvent::kFailed:
            telemetry->OnItemDone(key);
            break;
        }
      };
    }
    const util::PipelineResult run =
        util::RunPipeline(slots.size(), stages, popts);

    // Failed chains still deliver a row, with the reports the chain did not
    // reach left empty and the error recorded — unless hydration itself
    // failed, in which case there is no app identity to report.
    outcome.failures = run.failures.size();
    for (const util::StageFailure& f : run.failures) {
      StreamSlot& slot = slots[f.item];
      if (slot.payload == nullptr) continue;
      slot.payload->result.error = f.stage_name + ": " + f.message;
      exporter.OnResult(slot.platform, slot.payload->result);
      if (options.on_result) {
        options.on_result(std::move(slot.payload->result));
      }
      slot.payload.reset();
    }
  }
  outcome.apps = exporter.results();

  PublishCacheGauges(observer, scan_cache.get(), sim_fixtures.get());
  if (!options.cache_dir.empty()) {
    SaveStudyCaches(options.cache_dir, scan_cache.get(),
                    sim_fixtures->validation_cache(), observer,
                    cache_baseline);
  }
  return outcome;
}

}  // namespace pinscope::core
