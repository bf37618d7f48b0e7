// Streaming-study scale and warm-start benchmark.
//
// Two claims from DESIGN.md §15, each measured and written to
// BENCH_stream.json:
//
//  1. Bounded memory: a streaming study's peak RSS is set by the scheduler's
//     in-flight window, not corpus size. Witness: stream a small synthetic
//     corpus, record the process high-water mark, then stream a corpus 20x
//     larger and check the mark barely moves (flat_within_2x). Order
//     matters — VmHWM is monotone for the process lifetime, so the small
//     run MUST come first; anything the large run adds shows up in its own
//     reading.
//
//  2. Warm starts: persisting the content-keyed scan and validation caches
//     (--cache-dir) makes re-analysis of an unchanged corpus much cheaper.
//     Witness: a unique-payload corpus (every index a distinct content
//     digest, shared by its Android and iOS app; 8,000 pin strings per
//     payload) where the in-run cache helps only within each such pair —
//     cold scans pay full price for every index, a second run over the same
//     corpus with the persisted caches hits everything. A byte-equality
//     guard on the exports enforces that warm results are identical to cold.
//
// Knobs: PINSCOPE_BENCH_STREAM_SMALL  (small corpus total apps, default 5000),
//        PINSCOPE_BENCH_STREAM_LARGE  (large corpus total apps, default 100000),
//        PINSCOPE_BENCH_STREAM_WARM   (warm-start corpus total apps, default 600),
//        PINSCOPE_BENCH_THREADS       (workers, default max(2, hardware)).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "bench_json.h"
#include "core/stream_export.h"
#include "core/stream_study.h"
#include "core/synthetic_corpus.h"
#include "obs/autopsy.h"
#include "obs/obs.h"
#include "obs/process.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"

namespace {

using namespace pinscope;

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

std::uint64_t PeakRss() { return obs::ReadPeakRssBytes().value_or(0); }

/// Streams `total_apps` synthetic apps in firehose mode (no rows retained);
/// returns wall milliseconds.
double TimedStream(std::size_t total_apps, int workers,
                   obs::Observer* observer,
                   obs::Telemetry* telemetry = nullptr,
                   obs::Timeline* timeline = nullptr,
                   const core::SyntheticCorpusConfig* corpus = nullptr) {
  core::SyntheticCorpusConfig config;
  if (corpus) config = *corpus;
  config.apps_per_platform = total_apps / 2;
  const core::SyntheticCorpusSource source(config);
  core::StudyOptions opts;
  opts.threads = workers;
  opts.observer = observer;
  opts.telemetry = telemetry;
  opts.timeline = timeline;
  // The default corpus's files are all below kScanCacheMinBytes, so its scan
  // cache stays empty and cannot grow with the corpus (DESIGN.md §15).
  core::StreamExporter::Options eopts;
  eopts.retain_rows = false;
  core::StreamExporter exporter(eopts);
  const auto start = std::chrono::steady_clock::now();
  const core::StreamStudyResult run =
      core::RunStreamingStudy(source, opts, exporter);
  const auto end = std::chrono::steady_clock::now();
  if (run.apps != total_apps) {
    std::fprintf(stderr, "FATAL: streamed %zu of %zu apps\n", run.apps,
                 total_apps);
    std::exit(1);
  }
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// One full streaming pass over the warm-start corpus with `cache_dir`
/// persistence; leaves the JSON export (the equality guard) in `json_out`.
double TimedWarmablePass(const core::SyntheticCorpusSource& source, int workers,
                         const std::string& cache_dir, std::string* json_out) {
  core::StudyOptions opts;
  opts.threads = workers;
  opts.cache_dir = cache_dir;
  core::StreamExporter exporter;
  const auto start = std::chrono::steady_clock::now();
  (void)core::RunStreamingStudy(source, opts, exporter);
  const auto end = std::chrono::steady_clock::now();
  *json_out = exporter.FinishJson();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  const std::size_t small_apps =
      static_cast<std::size_t>(EnvInt("PINSCOPE_BENCH_STREAM_SMALL", 5000));
  const std::size_t large_apps =
      static_cast<std::size_t>(EnvInt("PINSCOPE_BENCH_STREAM_LARGE", 100000));
  const std::size_t warm_apps =
      static_cast<std::size_t>(EnvInt("PINSCOPE_BENCH_STREAM_WARM", 600));
  const int workers =
      EnvInt("PINSCOPE_BENCH_THREADS",
             static_cast<int>(std::max(2u, std::thread::hardware_concurrency())));

  // --- Claim 1: flat peak RSS, small corpus first (VmHWM is monotone). ----
  // Bounded tracing: the registry is fixed-size, but an unbounded trace
  // sink retains every per-app span — linear in corpus size, which is
  // exactly what this claim forbids. Capping the sink keeps the head of the
  // run inspectable while dropped spans are counted, not silently lost.
  obs::Observer observer;
  observer.trace().set_max_events(std::size_t{1} << 14);
  std::fprintf(stderr, "[pinscope] streaming %zu apps (%d workers)...\n",
               small_apps, workers);
  const double small_ms = TimedStream(small_apps, workers, &observer);
  const std::uint64_t small_peak = PeakRss();
  std::fprintf(stderr, "[pinscope] %zu apps: %.0f ms, peak RSS %.1f MiB\n",
               small_apps, small_ms, small_peak / (1024.0 * 1024.0));

  // The large run carries the flight recorder: a 100 ms sampler whose ring
  // holds the whole run, so BENCH_stream.json can embed the sampled
  // RSS/progress timeline — the flat-RSS claim as a curve, not one number.
  obs::TelemetryOptions topts;
  topts.interval_ms = 100;
  topts.ring_capacity = 1 << 16;
  obs::Telemetry telemetry(&observer.metrics(), topts);
  std::fprintf(stderr, "[pinscope] streaming %zu apps (%d workers)...\n",
               large_apps, workers);
  telemetry.Start();
  const double large_ms = TimedStream(large_apps, workers, &observer,
                                      &telemetry);
  telemetry.Stop();
  const std::uint64_t large_peak = PeakRss();
  std::fprintf(stderr, "[pinscope] %zu apps: %.0f ms, peak RSS %.1f MiB\n",
               large_apps, large_ms, large_peak / (1024.0 * 1024.0));

  const double rss_ratio =
      small_peak > 0 ? static_cast<double>(large_peak) / small_peak : 0.0;
  const bool flat = small_peak > 0 && rss_ratio <= 2.0;
  if (!flat) {
    std::fprintf(stderr,
                 "WARNING: peak RSS grew %.2fx from %zu to %zu apps "
                 "(streaming should keep it flat)\n",
                 rss_ratio, small_apps, large_apps);
  }

  // --- Claim 3: timeline-fed autopsy costs <2% of a streaming run. --------
  // Min-of-N with and without a timeline attached, over a corpus whose
  // stage bodies do real work: unique payloads with embedded PEM blocks,
  // so every scan pays a parse like a real app bundle would. The record
  // path is a constant ~hundreds of ns per interval; against the default
  // 4 KiB shared-payload corpus (µs-scale no-op stages) that constant
  // reads as several percent, which measures the microbenchmark, not the
  // instrument. The per-interval cost is reported alongside so the
  // constant itself stays gated too. The analyzed autopsy of the last
  // instrumented pass rides along as evidence the bounded reservoir still
  // reconstructs a critical path at this scale.
  const std::size_t autopsy_apps = static_cast<std::size_t>(
      EnvInt("PINSCOPE_BENCH_STREAM_AUTOPSY", 2000));
  const int autopsy_reps = EnvInt("PINSCOPE_BENCH_STREAM_AUTOPSY_REPS", 5);
  core::SyntheticCorpusConfig autopsy_corpus;
  autopsy_corpus.payload_bytes = 32768;
  autopsy_corpus.unique_payload = true;
  autopsy_corpus.pem_certs_in_payload = 2;
  std::unique_ptr<obs::Timeline> autopsy_timeline;
  double autopsy_base_ms = 0.0, autopsy_timeline_ms = 0.0;
  std::fprintf(stderr,
               "[pinscope] autopsy overhead: %zu apps, timeline off vs on...\n",
               autopsy_apps);
  (void)TimedStream(autopsy_apps, workers, nullptr, nullptr, nullptr,
                    &autopsy_corpus);  // warm allocator/page cache
  for (int rep = 0; rep < autopsy_reps; ++rep) {
    const double off = TimedStream(autopsy_apps, workers, nullptr, nullptr,
                                   nullptr, &autopsy_corpus);
    // Fresh timeline per instrumented rep so the reported autopsy describes
    // exactly one run, not two overlaid ones.
    autopsy_timeline = std::make_unique<obs::Timeline>();
    const double on = TimedStream(autopsy_apps, workers, nullptr, nullptr,
                                  autopsy_timeline.get(), &autopsy_corpus);
    autopsy_base_ms = rep == 0 ? off : std::min(autopsy_base_ms, off);
    autopsy_timeline_ms = rep == 0 ? on : std::min(autopsy_timeline_ms, on);
  }
  const double autopsy_overhead_pct =
      autopsy_base_ms > 0.0
          ? (autopsy_timeline_ms - autopsy_base_ms) / autopsy_base_ms * 100.0
          : 0.0;
  const obs::Autopsy autopsy = obs::Analyze(*autopsy_timeline);
  const double record_ns_per_interval =
      autopsy.intervals_seen > 0
          ? std::max(0.0, autopsy_timeline_ms - autopsy_base_ms) * 1e6 /
                static_cast<double>(autopsy.intervals_seen)
          : 0.0;
  // The path length/weight over a *sampled* reservoir varies run to run
  // (which intervals survive sampling decides where the walk can reach),
  // so the JSON reports the unitless share of wall — informational, never
  // a gate — while the absolute numbers go to stderr for the operator.
  const double critical_path_share =
      autopsy.wall_us > 0.0 ? autopsy.critical_path_us / autopsy.wall_us : 0.0;
  std::fprintf(stderr,
               "[pinscope] autopsy: off %.0f ms, on %.0f ms (%+.2f%%, "
               "%.0f ns/interval), critical path %zu segments / %.0f us\n",
               autopsy_base_ms, autopsy_timeline_ms, autopsy_overhead_pct,
               record_ns_per_interval, autopsy.critical_path.size(),
               autopsy.critical_path_us);

  // --- Claim 2: warm start from persisted caches. -------------------------
  core::SyntheticCorpusConfig warm_config;
  warm_config.apps_per_platform = warm_apps / 2;
  warm_config.unique_payload = true;
  warm_config.pin_strings_in_payload = 8000;
  warm_config.payload_bytes = 4096;
  const core::SyntheticCorpusSource warm_source(warm_config);

  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() / "pinscope_bench_stream_cache";
  std::filesystem::remove_all(cache_dir);

  std::string cold_json, warm_json;
  std::fprintf(stderr, "[pinscope] cold pass over %zu unique-payload apps...\n",
               warm_apps);
  const double cold_ms =
      TimedWarmablePass(warm_source, workers, cache_dir.string(), &cold_json);
  std::fprintf(stderr, "[pinscope] warm pass (persisted caches)...\n");
  const double warm_ms =
      TimedWarmablePass(warm_source, workers, cache_dir.string(), &warm_json);
  std::filesystem::remove_all(cache_dir);

  if (cold_json != warm_json) {
    std::fprintf(stderr, "FATAL: warm run exported different bytes than cold\n");
    return 1;
  }
  const double warm_speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  std::fprintf(stderr,
               "[pinscope] cold %.0f ms, warm %.0f ms (%.2fx), exports "
               "byte-identical\n",
               cold_ms, warm_ms, warm_speedup);

  if (const std::size_t trace_dropped = observer.trace().DroppedCount();
      trace_dropped > 0) {
    std::fprintf(stderr,
                 "[pinscope] trace buffer full: %zu span(s) dropped beyond "
                 "the %zu-event cap (counted, not silent)\n",
                 trace_dropped, observer.trace().max_events());
  }

  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"benchmark\": \"stream_study\",\n"
      "  \"workers\": %d,\n"
      "  \"streaming\": {\"small_apps\": %zu, \"small_ms\": %.3f,\n"
      "                \"small_peak_rss_bytes\": %llu,\n"
      "                \"large_apps\": %zu, \"large_ms\": %.3f,\n"
      "                \"large_peak_rss_bytes\": %llu,\n"
      "                \"rss_ratio\": %.3f, \"flat_within_2x\": %s},\n"
      "  \"warm_start\": {\"apps\": %zu, \"cold_ms\": %.3f, \"warm_ms\": %.3f,\n"
      "                 \"speedup\": %.2f, \"exports_byte_identical\": true},\n"
      "  \"autopsy\": {\"apps\": %zu, \"baseline_ms\": %.3f,\n"
      "              \"timeline_ms\": %.3f, \"overhead_pct\": %.2f,\n"
      "              \"within_2pct\": %s,\n"
      "              \"record_cost_ns_per_interval\": %.0f,\n"
      "              \"critical_path_segments\": %zu,\n"
      "              \"critical_path_share\": %.3f,\n"
      "              \"intervals_seen\": %llu, \"intervals_sampled\": %llu,\n"
      "              \"reservoir_bytes\": %zu},\n",
      workers, small_apps, small_ms,
      static_cast<unsigned long long>(small_peak), large_apps, large_ms,
      static_cast<unsigned long long>(large_peak), rss_ratio,
      flat ? "true" : "false", warm_apps, cold_ms, warm_ms, warm_speedup,
      autopsy_apps, autopsy_base_ms, autopsy_timeline_ms, autopsy_overhead_pct,
      autopsy_overhead_pct <= 2.0 ? "true" : "false", record_ns_per_interval,
      autopsy.critical_path.size(), critical_path_share,
      static_cast<unsigned long long>(autopsy.intervals_seen),
      static_cast<unsigned long long>(autopsy.intervals_sampled),
      autopsy_timeline->ReservoirCapacityBytes());

  // The sampled timeline of the large run rides along in the head (which
  // must keep ending in ",\n" for the shared phases/process embedding).
  std::string head = json;
  head += "  \"timeline\": " + telemetry.TimelineJson() + ",\n";
  return bench::WriteBenchJsonWithPhases("BENCH_stream.json", head,
                                         observer.metrics().Snapshot());
}
