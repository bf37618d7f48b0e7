// pinscope — command-line front-end to the measurement toolkit.
//
//   pinscope generate [--scale S] [--seed N]
//       Generate an ecosystem and print its corpus summary.
//   pinscope study [--scale S] [--seed N] [--threads T] [--json FILE] [--csv FILE]
//       Run the full measurement study; print Table-3-style prevalence and
//       optionally export the per-app dataset.
//   pinscope audit APP_ID [--scale S] [--seed N]
//       Static + dynamic + circumvention audit of a single app.
//   pinscope tables [--scale S] [--seed N] [--threads T]
//       Run one study and print every paper table, figure, text claim and
//       ablation as one JSON Lines document on stdout (tools/paper_tables.h).
//   pinscope longitudinal [--scale S] [--seed N] [--snapshot K]
//       Advance the store through K churn epochs and print the pin-rotation /
//       key-reuse table (EXPERIMENTS.md §longitudinal).
//   pinscope help
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli_options.h"
#include "core/analyses.h"
#include "core/corpus_source.h"
#include "core/export.h"
#include "core/stream_export.h"
#include "core/stream_study.h"
#include "core/study.h"
#include "dynamicanalysis/pipeline.h"
#include "obs/autopsy.h"
#include "obs/obs.h"
#include "obs/process.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "paper_tables.h"
#include "report/perf_report.h"
#include "report/run_report.h"
#include "report/table.h"
#include "staticanalysis/static_report.h"
#include "store/generator.h"
#include "util/strings.h"

namespace {

using namespace pinscope;
using cli::CliOptions;

core::StudyOptions StudyOptionsFor(const CliOptions& opts,
                                   obs::Observer* observer) {
  core::StudyOptions sopts;
  sopts.threads = opts.threads;
  sopts.queue_depth = static_cast<std::size_t>(opts.queue_depth);
  sopts.cache_dir = opts.cache_dir;
  sopts.observer = observer;
  return sopts;
}

/// Builds and starts the live-telemetry sampler when any live surface was
/// requested: a progress mode, a heartbeat file, or a metrics file (which
/// telemetry refreshes per tick instead of once at exit). Returns nullptr
/// when every surface is off — the study then runs with zero telemetry
/// overhead. The caller attaches it via StudyOptions::telemetry and Stop()s
/// it (or lets the destructor) before the final exports.
std::unique_ptr<obs::Telemetry> StartTelemetry(const CliOptions& opts,
                                               obs::Observer& observer) {
  if (opts.progress == "off" && opts.heartbeat_path.empty() &&
      opts.metrics_path.empty()) {
    return nullptr;
  }
  obs::TelemetryOptions topts;
  topts.interval_ms = opts.telemetry_interval_ms;
  topts.progress = obs::ParseProgressMode(opts.progress)
                       .value_or(obs::ProgressMode::kOff);
  topts.heartbeat_path = opts.heartbeat_path;
  topts.metrics_path = opts.metrics_path;
  auto telemetry =
      std::make_unique<obs::Telemetry>(&observer.metrics(), topts);
  telemetry->Start();
  return telemetry;
}

/// Prints the --summary table and writes --metrics-out / --trace-out /
/// --log-out files, narrating on `out`. A `.prom` metrics path selects the
/// OpenMetrics text format instead of JSON.
void EmitObservability(obs::Observer& observer, const CliOptions& opts,
                       std::FILE* out) {
  obs::PublishPeakRss(&observer.metrics());
  // Published only when the trace cap actually dropped events, so a normal
  // (unbounded or under-cap) run's summary is unchanged.
  if (const std::size_t dropped = observer.trace().DroppedCount();
      dropped > 0) {
    observer.metrics()
        .gauge("trace.dropped_events")
        .Set(static_cast<std::uint64_t>(dropped));
    std::fprintf(stderr,
                 "warning: trace buffer full — %zu event(s) dropped "
                 "(cap %zu); raise the cap or write metrics-only\n",
                 dropped, observer.trace().max_events());
  }
  const obs::MetricsSnapshot snapshot = observer.metrics().Snapshot();
  if (opts.summary) std::fputs(obs::RenderSummary(snapshot).c_str(), out);
  if (!opts.metrics_path.empty()) {
    const bool open_metrics = util::EndsWith(opts.metrics_path, ".prom");
    std::ofstream file(opts.metrics_path);
    file << (open_metrics ? obs::WriteMetricsOpenMetrics(snapshot)
                          : obs::WriteMetricsJson(snapshot));
    std::fprintf(out, "wrote metrics %s to %s\n",
                 open_metrics ? "OpenMetrics" : "JSON",
                 opts.metrics_path.c_str());
  }
  if (!opts.trace_path.empty()) {
    std::ofstream file(opts.trace_path);
    file << observer.trace().ToJson();
    std::fprintf(out, "wrote Chrome trace (%zu events) to %s\n",
                 observer.trace().EventCount(), opts.trace_path.c_str());
  }
  if (!opts.log_path.empty() && observer.log() != nullptr) {
    std::ofstream file(opts.log_path);
    file << observer.log()->ToJsonl();
    std::fprintf(out, "wrote decision journal (%zu events) to %s\n",
                 observer.log()->EventCount(), opts.log_path.c_str());
  }
}

/// Did the command line ask for any run-autopsy artifact? A timeline is
/// attached to the study only then — it is cheap, but attaching nothing when
/// nothing was requested keeps the default run untouched.
bool WantsAutopsy(const CliOptions& opts) {
  return !opts.perf_report_path.empty() || !opts.folded_path.empty() ||
         opts.command == "autopsy";
}

/// Builds the timeline the perf surfaces consume, or nullptr when none was
/// requested.
std::unique_ptr<obs::Timeline> StartTimeline(const CliOptions& opts) {
  if (!WantsAutopsy(opts)) return nullptr;
  obs::TimelineOptions topts;
  topts.per_worker_cap = static_cast<std::size_t>(opts.timeline_cap);
  return std::make_unique<obs::Timeline>(topts);
}

/// Resolves a timeline item key (TelemetryKey: platform rank << 48 |
/// universe index) to platform / app-id labels against the live ecosystem.
obs::ItemResolver ResolverFor(const store::Ecosystem& eco) {
  return [&eco](std::uint64_t key) {
    const auto p = (key >> 48) == 0 ? appmodel::Platform::kAndroid
                                    : appmodel::Platform::kIos;
    const auto index =
        static_cast<std::size_t>(key & ((std::uint64_t{1} << 48) - 1));
    obs::ItemLabel label;
    label.platform = std::string(appmodel::PlatformName(p));
    const auto& apps = eco.apps(p);
    label.app = index < apps.size() ? apps[index].meta.app_id
                                    : "app#" + std::to_string(index);
    return label;
  };
}

/// Analyzes the finished timeline and writes every requested perf surface:
/// the autopsy Markdown to stdout when `print` is set (the `autopsy`
/// command), --perf-report-out Markdown + JSON twin, and --folded-out
/// collapsed stacks.
void EmitPerfArtifacts(const obs::Timeline* timeline,
                       const store::Ecosystem& eco, obs::Observer& observer,
                       const CliOptions& opts, bool print) {
  if (timeline == nullptr) return;
  const obs::MetricsSnapshot snapshot = observer.metrics().Snapshot();
  const obs::Autopsy autopsy = obs::Analyze(*timeline, &snapshot);
  report::PerfReportInput input;
  input.autopsy = &autopsy;
  input.resolver = ResolverFor(eco);
  if (print) std::printf("%s", report::WritePerfReportMarkdown(input).c_str());
  if (!opts.perf_report_path.empty()) {
    {
      std::ofstream out(opts.perf_report_path);
      out << report::WritePerfReportMarkdown(input);
    }
    const std::string json_path =
        report::PerfReportJsonPathFor(opts.perf_report_path);
    {
      std::ofstream out(json_path);
      out << report::WritePerfReportJson(input);
    }
    std::printf("wrote perf report to %s (and %s)\n",
                opts.perf_report_path.c_str(), json_path.c_str());
  }
  if (!opts.folded_path.empty()) {
    std::ofstream out(opts.folded_path);
    out << obs::WriteFoldedStacks(*timeline, input.resolver);
    std::printf("wrote folded stacks to %s\n", opts.folded_path.c_str());
  }
}

/// Writes the --report-out run report (Markdown plus a JSON companion next
/// to it) from the study's verdicts, the metrics snapshot, and the journal,
/// and says so on `out`.
void EmitRunReportVerdicts(const std::vector<report::AppVerdict>& verdicts,
                           const obs::Observer& observer,
                           const CliOptions& opts, std::FILE* out) {
  if (opts.report_path.empty()) return;
  const obs::MetricsSnapshot snapshot = observer.metrics().Snapshot();
  std::vector<obs::LogEvent> events;
  if (observer.log() != nullptr) events = observer.log()->SortedEvents();
  report::RunReportInput input;
  input.verdicts = verdicts;
  input.metrics = &snapshot;
  input.events = &events;
  {
    std::ofstream file(opts.report_path);
    file << report::WriteRunReportMarkdown(input);
  }
  const std::string json_path = report::ReportJsonPathFor(opts.report_path);
  {
    std::ofstream file(json_path);
    file << report::WriteRunReportJson(input);
  }
  std::fprintf(out, "wrote run report to %s (and %s)\n",
               opts.report_path.c_str(), json_path.c_str());
}

void EmitRunReport(const core::Study& study, const obs::Observer& observer,
                   const CliOptions& opts, std::FILE* out) {
  if (opts.report_path.empty()) return;
  EmitRunReportVerdicts(core::CollectAppVerdicts(study), observer, opts, out);
}

void PrintChurn(const store::SnapshotChurn& c) {
  std::fprintf(stderr,
               "[pinscope] snapshot %d: %zu hosts renewed (%zu key-reuse), "
               "%zu apps updated, %zu pins rotated, %zu stale pins, "
               "%zu apps changed\n",
               c.snapshot, c.hosts_renewed, c.keys_reused, c.apps_updated,
               c.pins_rotated, c.stale_pins, c.changed_apps.size());
}

/// Applies `count` churn epochs to `eco`, narrating each on stderr.
void ApplySnapshots(store::Ecosystem& eco, int count) {
  for (int s = 0; s < count; ++s) PrintChurn(eco.AdvanceSnapshot());
}

int Usage() {
  std::printf(
      "pinscope — certificate-pinning measurement toolkit\n\n"
      "usage: pinscope <command> [options]\n\n"
      "commands:\n"
      "  generate            generate an ecosystem, print corpus summary\n"
      "  study               run the full study, print prevalence\n"
      "  audit APP_ID        audit one app (static + dynamic + circumvention)\n"
      "  tables              print every paper table and figure as JSON Lines\n"
      "  autopsy             run the study with the interval timeline attached\n"
      "                      and print the causal profile: critical path,\n"
      "                      per-worker idle attribution, slowest apps, and\n"
      "                      contended locks\n"
      "  longitudinal        advance the store through churn epochs and print\n"
      "                      the pin-rotation / key-reuse table\n"
      "  help                this text\n\n"
      "options:\n"
      "  --scale S           corpus scale, 0 < S <= 1 (default 0.1)\n"
      "  --seed N            generation seed (default 42)\n"
      "  --threads T         study worker threads; 0 = all hardware threads\n"
      "                      (default 0; results are identical for every T)\n"
      "  --queue-depth N     ready-queue capacity of the per-app stage chains\n"
      "                      (hydrate, static, dynamic, verdict); bounds\n"
      "                      buffered work and applies backpressure (0 = 2x\n"
      "                      workers; results are identical for every N;\n"
      "                      DESIGN.md §13)\n"
      "  --json FILE         (study) export per-app records as JSON Lines\n"
      "  --csv FILE          (study) export per-destination rows as CSV\n"
      "  --metrics-out FILE  (study/tables) write pipeline metrics — counters,\n"
      "                      cache hit-rate gauges, per-phase histograms — as\n"
      "                      JSON, or as OpenMetrics/Prometheus text format\n"
      "                      when FILE ends in .prom (see DESIGN.md §11).\n"
      "                      With live telemetry the file is atomically\n"
      "                      refreshed every tick, not just at exit (§16)\n"
      "  --progress MODE     live progress: off (default), plain (one line\n"
      "                      per tick, pipeable), or tty (rewritten status\n"
      "                      line). Purely observational — results are\n"
      "                      byte-identical with progress on or off\n"
      "  --heartbeat-out FILE  write a machine-readable heartbeat: one JSON\n"
      "                      line per telemetry tick with done/total, RSS,\n"
      "                      queue depth, and per-phase p50/p90/p99 (µs)\n"
      "  --telemetry-interval-ms N  telemetry sampler tick period\n"
      "                      (default 250)\n"
      "  --trace-out FILE    (study/tables) write a Chrome trace_event JSON of\n"
      "                      study/app/phase spans; open in chrome://tracing\n"
      "                      or https://ui.perfetto.dev\n"
      "  --log-out FILE      (study/tables) write the deterministic decision\n"
      "                      journal as JSON Lines; byte-identical for every\n"
      "                      --threads value (see DESIGN.md §12)\n"
      "  --log-level LEVEL   journal severity floor: debug|info|decision|warn|\n"
      "                      error (default info); filtering never reorders\n"
      "                      surviving events\n"
      "  --report-out FILE   (study/tables) write a Markdown run report with a\n"
      "                      per-app verdict-attribution table (a .json twin is\n"
      "                      written next to it)\n"
      "  --summary=on|off    end-of-run cache/phase/counter summary table\n"
      "                      (default on)\n"
      "  --cache-dir DIR     persist the content-keyed static-scan and chain-\n"
      "                      validation caches in DIR and reload them next\n"
      "                      run (warm start). Missing or corrupt cache files\n"
      "                      mean a cold start, never an error; results are\n"
      "                      byte-identical warm or cold (DESIGN.md §15)\n"
      "  --snapshot N        (study/longitudinal) advance the generated store\n"
      "                      through N deterministic churn epochs — leaf\n"
      "                      renewals, app updates, pin rotations — before\n"
      "                      analyzing (default 0 = as generated; longitudinal\n"
      "                      defaults to 6 epochs)\n"
      "  --incremental=on|off with --snapshot N: analyze only the apps the\n"
      "                      final churn epoch changed and merge over the\n"
      "                      previous snapshot's results; merged exports are\n"
      "                      byte-identical to a full re-analysis (default\n"
      "                      off)\n"
      "  --perf-report-out FILE  (study/autopsy) write the run autopsy as\n"
      "                      Markdown, with a .json twin next to it; attaches\n"
      "                      the interval timeline to the run (exports stay\n"
      "                      byte-identical — DESIGN.md §17)\n"
      "  --folded-out FILE   (study/autopsy) write collapsed stacks\n"
      "                      ('platform;app;stage weight_us' lines) for\n"
      "                      flamegraph.pl or speedscope\n"
      "  --timeline-cap N    per-worker interval-reservoir capacity (default\n"
      "                      8192); timeline memory is O(workers x N) at any\n"
      "                      corpus size\n");
  return 2;
}

store::Ecosystem Generate(const CliOptions& opts) {
  store::EcosystemConfig config;
  config.seed = opts.seed;
  config.scale = opts.scale;
  std::fprintf(stderr, "[pinscope] generating ecosystem (scale %.2f, seed %llu)\n",
               config.scale, static_cast<unsigned long long>(config.seed));
  return store::Ecosystem::Generate(config);
}

int CmdGenerate(const CliOptions& opts) {
  const store::Ecosystem eco = Generate(opts);
  report::TextTable table;
  table.SetHeader({"Dataset", "Android", "iOS"});
  for (const store::DatasetId id : store::AllDatasets()) {
    table.AddRow({std::string(store::DatasetName(id)),
                  std::to_string(eco.dataset(id, appmodel::Platform::kAndroid).size()),
                  std::to_string(eco.dataset(id, appmodel::Platform::kIos).size())});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("\nservers: %zu   CT-logged certificates: %zu   common pairs: %zu\n",
              eco.world().size(), eco.ct_log().size(), eco.common_pairs().size());
  return 0;
}

void ExportJson(const core::Study& study, const std::string& path) {
  const std::string lines = core::ExportStudyJson(study);
  std::size_t records = 0;
  for (const char c : lines) {
    if (c == '\n') ++records;
  }
  std::ofstream out(path);
  out << lines;
  std::printf("wrote %zu JSON records to %s\n", records, path.c_str());
}

void ExportCsv(const core::Study& study, const std::string& path) {
  const std::string csv = core::ExportStudyCsv(study);
  std::size_t rows = 0;
  for (const char c : csv) {
    if (c == '\n') ++rows;
  }
  if (rows > 0) --rows;  // the header row
  std::ofstream out(path);
  out << csv;
  std::printf("wrote %zu CSV rows to %s\n", rows, path.c_str());
}

/// `study --incremental on --snapshot N`: full streaming baseline at
/// snapshot N-1, one more churn epoch, then re-analysis of only the apps
/// that epoch changed, merged over the baseline rows. The merged exports are
/// byte-identical to a full re-analysis of the same snapshot
/// (tests/core/stream_equivalence_test.cc proves it).
int CmdStudyIncremental(const CliOptions& opts) {
  store::Ecosystem eco = Generate(opts);
  ApplySnapshots(eco, opts.snapshots - 1);

  obs::Observer observer;
  std::optional<obs::EventLog> log;
  if (!opts.log_path.empty() || !opts.report_path.empty()) {
    log.emplace(opts.log_level);
    observer.set_log(&*log);
  }
  core::StudyOptions sopts = StudyOptionsFor(opts, &observer);
  const std::unique_ptr<obs::Telemetry> telemetry =
      StartTelemetry(opts, observer);
  sopts.telemetry = telemetry.get();
  const core::EcosystemCorpusSource source(eco);

  std::fprintf(stderr, "[pinscope] streaming baseline at snapshot %d\n",
               eco.snapshot());
  core::StreamExporter baseline;
  const core::StreamStudyResult base_run =
      core::RunStreamingStudy(source, sopts, baseline);

  const store::SnapshotChurn churn = eco.AdvanceSnapshot();
  PrintChurn(churn);

  const std::set<std::pair<appmodel::Platform, std::size_t>> changed(
      churn.changed_apps.begin(), churn.changed_apps.end());
  sopts.app_filter = [&changed](appmodel::Platform p, std::size_t idx) {
    return changed.contains({p, idx});
  };
  std::fprintf(stderr,
               "[pinscope] incremental re-analysis of %zu changed apps at "
               "snapshot %d\n",
               changed.size(), eco.snapshot());
  core::StreamExporter merged;
  const core::StreamStudyResult delta_run =
      core::RunStreamingStudy(source, sopts, merged);
  merged.MergeBase(baseline);

  const std::vector<report::AppVerdict> verdicts = merged.FinishVerdicts();
  std::printf("incremental study: baseline %zu apps, re-analyzed %zu changed "
              "apps, merged %zu results at snapshot %d\n",
              base_run.apps, delta_run.apps, verdicts.size(), eco.snapshot());

  if (telemetry != nullptr) telemetry->Stop();
  EmitObservability(observer, opts, stdout);
  EmitRunReportVerdicts(verdicts, observer, opts, stdout);
  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << merged.FinishJson();
    std::printf("wrote merged JSON records to %s\n", opts.json_path.c_str());
  }
  if (!opts.csv_path.empty()) {
    std::ofstream out(opts.csv_path);
    out << merged.FinishCsv();
    std::printf("wrote merged CSV rows to %s\n", opts.csv_path.c_str());
  }
  return 0;
}

int CmdStudy(const CliOptions& opts) {
  if (opts.incremental && opts.snapshots > 0) return CmdStudyIncremental(opts);
  store::Ecosystem eco = Generate(opts);
  ApplySnapshots(eco, opts.snapshots);
  obs::Observer observer;
  std::optional<obs::EventLog> log;
  if (!opts.log_path.empty() || !opts.report_path.empty()) {
    log.emplace(opts.log_level);
    observer.set_log(&*log);
  }
  core::StudyOptions sopts = StudyOptionsFor(opts, &observer);
  const std::unique_ptr<obs::Telemetry> telemetry =
      StartTelemetry(opts, observer);
  sopts.telemetry = telemetry.get();
  const std::unique_ptr<obs::Timeline> timeline = StartTimeline(opts);
  sopts.timeline = timeline.get();
  core::Study study(eco, sopts);
  std::fprintf(stderr, "[pinscope] running measurement pipeline\n");
  study.Run();
  if (telemetry != nullptr) telemetry->Stop();

  report::TextTable table;
  table.SetHeader({"Dataset", "Platform", "Apps", "Dynamic pinning",
                   "Static potential", "NSC pinning"});
  for (const store::DatasetId id : store::AllDatasets()) {
    for (const appmodel::Platform p :
         {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
      const core::PrevalenceRow row = core::ComputePrevalence(study, id, p);
      table.AddRow(
          {std::string(store::DatasetName(id)), std::string(PlatformName(p)),
           std::to_string(row.total),
           std::to_string(row.dynamic_pinning) + " (" +
               util::Percent(static_cast<double>(row.dynamic_pinning) /
                                 std::max(row.total, 1),
                             1) +
               ")",
           std::to_string(row.embedded_static),
           p == appmodel::Platform::kAndroid ? std::to_string(row.config_pinning)
                                             : std::string("-")});
    }
  }
  std::printf("%s", table.Render().c_str());

  // Cache hit-rates, phase timings, and pipeline counters all come from the
  // unified registry now (the caches publish gauges when Run() finishes).
  EmitObservability(observer, opts, stdout);
  EmitRunReport(study, observer, opts, stdout);
  EmitPerfArtifacts(timeline.get(), eco, observer, opts, /*print=*/false);

  if (!opts.json_path.empty()) ExportJson(study, opts.json_path);
  if (!opts.csv_path.empty()) ExportCsv(study, opts.csv_path);
  return 0;
}

/// `pinscope autopsy`: run the study with the interval timeline attached and
/// print the causal profile — critical path, per-worker idle attribution,
/// slowest apps, contended locks — instead of the paper tables. The same
/// artifact flags as `study` (--perf-report-out, --folded-out) also work.
int CmdAutopsy(const CliOptions& opts) {
  store::Ecosystem eco = Generate(opts);
  ApplySnapshots(eco, opts.snapshots);
  obs::Observer observer;
  core::StudyOptions sopts = StudyOptionsFor(opts, &observer);
  const std::unique_ptr<obs::Telemetry> telemetry =
      StartTelemetry(opts, observer);
  sopts.telemetry = telemetry.get();
  const std::unique_ptr<obs::Timeline> timeline = StartTimeline(opts);
  sopts.timeline = timeline.get();
  core::Study study(eco, sopts);
  std::fprintf(stderr, "[pinscope] running measurement pipeline (autopsy)\n");
  study.Run();
  if (telemetry != nullptr) telemetry->Stop();
  EmitPerfArtifacts(timeline.get(), eco, observer, opts, /*print=*/true);
  return 0;
}

int CmdAudit(const CliOptions& opts) {
  if (opts.positional.empty()) {
    std::fprintf(stderr, "audit requires an APP_ID\n");
    return 2;
  }
  const std::string& app_id = opts.positional.front();
  const store::Ecosystem eco = Generate(opts);

  const appmodel::App* target = nullptr;
  for (const appmodel::Platform p :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    for (const appmodel::App& app : eco.apps(p)) {
      if (app.meta.app_id == app_id) target = &app;
    }
  }
  if (target == nullptr) {
    std::fprintf(stderr, "unknown app id '%s' (try `pinscope generate` to list "
                         "dataset sizes, or a different seed/scale)\n",
                 app_id.c_str());
    return 1;
  }

  staticanalysis::StaticAnalysisOptions sopts;
  sopts.ct_log = &eco.ct_log();
  const auto sreport = staticanalysis::AnalyzeStatically(*target, sopts);
  std::printf("%s (%s, %s)\n", target->meta.display_name.c_str(),
              target->meta.app_id.c_str(), PlatformName(target->meta.platform).data());
  std::printf("  static: %zu certs, %zu pins (%zu CT-resolved), NSC pins: %s\n",
              sreport.scan.certificates.size(), sreport.pins_total,
              sreport.pins_resolved, sreport.ConfigPinning() ? "yes" : "no");

  const auto dreport = dynamicanalysis::RunDynamicAnalysis(*target, eco.world());
  std::printf("  dynamic: %s\n", dreport.AppPins() ? "PINS at run time"
                                                   : "no pinning observed");
  for (const auto& dest : dreport.destinations) {
    std::printf("    %-34s %s%s\n", dest.hostname.c_str(),
                dest.pinned ? "PINNED" : "not pinned",
                dest.pinned ? (dest.circumvented ? " (circumventable)"
                                                 : " (opaque: custom stack)")
                            : "");
  }
  return 0;
}

/// `pinscope tables`: the paper run. One study, then every table, figure,
/// text claim and ablation as one JSON Lines document on stdout; the
/// summary and "wrote ..." lines go to stderr, so stdout can be redirected
/// to a file.
int CmdTables(const CliOptions& opts) {
  const store::Ecosystem eco = Generate(opts);
  obs::Observer observer;
  std::optional<obs::EventLog> log;
  if (!opts.log_path.empty() || !opts.report_path.empty()) {
    log.emplace(opts.log_level);
    observer.set_log(&*log);
  }
  core::StudyOptions sopts = StudyOptionsFor(opts, &observer);
  const std::unique_ptr<obs::Telemetry> telemetry =
      StartTelemetry(opts, observer);
  sopts.telemetry = telemetry.get();
  core::Study study(eco, sopts);
  std::fprintf(stderr, "[pinscope] running measurement pipeline\n");
  study.Run();
  if (telemetry != nullptr) telemetry->Stop();

  std::fprintf(stderr, "[pinscope] computing the paper tables\n");
  std::fputs(paper::PaperTablesJsonl(study).c_str(), stdout);
  EmitObservability(observer, opts, stderr);
  EmitRunReport(study, observer, opts, stderr);
  return 0;
}

/// Prints the longitudinal churn table (Markdown, ready for EXPERIMENTS.md):
/// one row per snapshot epoch of leaf renewals, key reuse, app updates, pin
/// rotations, and the resulting stale-pin census.
int CmdLongitudinal(const CliOptions& opts) {
  store::Ecosystem eco = Generate(opts);
  const int epochs = opts.snapshots > 0 ? opts.snapshots : 6;
  std::printf("Longitudinal store churn — scale %.2f, seed %llu, %d "
              "snapshots\n\n",
              opts.scale, static_cast<unsigned long long>(opts.seed), epochs);
  std::printf("| Snapshot | Hosts renewed | Keys reused | Apps updated | "
              "Pins rotated | Stale pins | Changed apps |\n");
  std::printf("|---:|---:|---:|---:|---:|---:|---:|\n");
  for (int s = 0; s < epochs; ++s) {
    const store::SnapshotChurn c = eco.AdvanceSnapshot();
    std::printf("| %d | %zu | %zu | %zu | %zu | %zu | %zu |\n", c.snapshot,
                c.hosts_renewed, c.keys_reused, c.apps_updated, c.pins_rotated,
                c.stale_pins, c.changed_apps.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = cli::ParseArgs(argc, argv);
  if (!opts.has_value() || opts->command == "help") return Usage();
  try {
    if (opts->command == "generate") return CmdGenerate(*opts);
    if (opts->command == "study") return CmdStudy(*opts);
    if (opts->command == "audit") return CmdAudit(*opts);
    if (opts->command == "tables") return CmdTables(*opts);
    if (opts->command == "autopsy") return CmdAutopsy(*opts);
    if (opts->command == "longitudinal") return CmdLongitudinal(*opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", opts->command.c_str());
  return Usage();
}
