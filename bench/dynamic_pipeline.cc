// Connection-simulation fixture throughput harness.
//
// Runs the full per-app dynamic pipeline (baseline + MITM captures,
// differential detection, circumvention, PII) over every app of a generated
// ecosystem, once without and once with the study-scoped SimFixtures
// (shared proxy CA, forged-leaf cache, immutable root stores, and the
// chain-validation memo), and writes the results as machine-readable JSON
// to BENCH_dynamic.json so CI can track the speedup over time.
//
// A second section runs one instrumented full Study over the same corpus
// (DESIGN.md §13) and records the scheduler's peak ready-queue depth and
// queue lock contention. It runs at an explicit worker count —
// PINSCOPE_BENCH_THREADS, default max(2, hardware threads) — never at
// "hardware concurrency" directly: on a single-core CI box that default
// resolves to the inline serial path, which never builds a queue. The
// worker count actually used is recorded as scheduler.workers in the JSON.
//
// Knobs: PINSCOPE_BENCH_SCALE_PCT (ecosystem scale in percent, default 5),
//        PINSCOPE_BENCH_REPS (timed repetitions, default 5; best rep wins),
//        PINSCOPE_BENCH_THREADS (study workers, default max(2, hardware
//        threads)).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <memory>
#include <thread>

#include "bench_json.h"
#include "core/study.h"
#include "dynamicanalysis/pipeline.h"
#include "dynamicanalysis/sim_fixtures.h"
#include "obs/obs.h"
#include "store/generator.h"

namespace {

using namespace pinscope;

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Checksum over everything a pass concludes, so a fixture bug that changes
/// any verdict (not just the pinned count) trips the FATAL below.
struct PassResult {
  std::size_t apps = 0;
  std::size_t destinations = 0;
  std::size_t pinned = 0;
  std::size_t circumvented = 0;
  std::size_t pii_hits = 0;

  bool operator==(const PassResult&) const = default;
};

/// One full corpus pass; returns wall milliseconds. Fixtures (when used)
/// start cold, as at the beginning of a study.
double TimedPass(const store::Ecosystem& eco, bool use_fixtures,
                 PassResult* out,
                 std::unique_ptr<dynamicanalysis::SimFixtures>* fixtures_out,
                 obs::Observer* observer) {
  dynamicanalysis::DynamicOptions opts;
  auto fixtures =
      use_fixtures
          ? std::make_unique<dynamicanalysis::SimFixtures>(opts.seed)
          : nullptr;
  opts.fixtures = fixtures.get();
  // The pipeline's own phase instrumentation (baseline/mitm/frida) lands in
  // the observer's registry; results are byte-identical with or without it.
  opts.observer = observer;

  const auto start = std::chrono::steady_clock::now();
  PassResult result;
  for (const appmodel::Platform p :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    for (const appmodel::App& app : eco.apps(p)) {
      const dynamicanalysis::DynamicReport report =
          dynamicanalysis::RunDynamicAnalysis(app, eco.world(), opts);
      ++result.apps;
      result.destinations += report.destinations.size();
      for (const dynamicanalysis::DestinationReport& d : report.destinations) {
        result.pinned += d.pinned ? 1 : 0;
        result.circumvented += d.circumvented ? 1 : 0;
        result.pii_hits += d.pii.size();
      }
    }
  }
  const auto end = std::chrono::steady_clock::now();
  *out = result;
  if (fixtures_out != nullptr) *fixtures_out = std::move(fixtures);
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  const int scale_pct = EnvInt("PINSCOPE_BENCH_SCALE_PCT", 5);
  const int reps = EnvInt("PINSCOPE_BENCH_REPS", 5);

  std::fprintf(stderr, "[pinscope] generating ecosystem at scale %d%%...\n",
               scale_pct);
  store::EcosystemConfig config;
  config.seed = 42;
  config.scale = static_cast<double>(scale_pct) / 100.0;
  const store::Ecosystem eco = store::Ecosystem::Generate(config);

  PassResult off_result, on_result;
  double best_off = 0.0, best_on = 0.0;
  util::MemoStats forged;
  util::MemoStats validation;
  // Collects the pipeline's per-phase histograms across the fixtures-on
  // passes; embedded into the JSON below as the "phases" breakdown.
  obs::Observer observer;
  for (int r = 0; r < reps; ++r) {
    const double off = TimedPass(eco, /*use_fixtures=*/false, &off_result,
                                 nullptr, nullptr);
    std::unique_ptr<dynamicanalysis::SimFixtures> fixtures;
    const double on = TimedPass(eco, /*use_fixtures=*/true, &on_result,
                                &fixtures, &observer);
    if (r == 0 || off < best_off) best_off = off;
    if (r == 0 || on < best_on) {
      best_on = on;
      forged = fixtures->proxy().forged_cache()->Stats();
      validation = fixtures->validation_cache()->Stats();
    }
    std::fprintf(stderr, "[pinscope] rep %d: fixtures off %.2f ms, on %.2f ms\n",
                 r + 1, off, on);
    if (!(off_result == on_result)) {
      std::fprintf(stderr,
                   "FATAL: fixtures changed results "
                   "(pinned %zu vs %zu, circumvented %zu vs %zu, pii %zu vs %zu)\n",
                   off_result.pinned, on_result.pinned, off_result.circumvented,
                   on_result.circumvented, off_result.pii_hits,
                   on_result.pii_hits);
      return 1;
    }
  }

  // Untimed instrumented study: ready-queue high-water mark plus the
  // queue-lock contention probe (obs/mutex.h). 0 / absent on single-core
  // machines, where the scheduler's inline serial path never builds a queue.
  const int bench_threads =
      EnvInt("PINSCOPE_BENCH_THREADS",
             static_cast<int>(std::max(2u, std::thread::hardware_concurrency())));
  std::uint64_t peak_depth = 0;
  std::uint64_t queue_contended = 0;
  double queue_wait_ms = 0.0;
  {
    obs::Observer sched_observer;
    core::StudyOptions opts;
    opts.threads = bench_threads;
    opts.observer = &sched_observer;
    core::Study study(eco, opts);
    study.Run();
    const obs::MetricsSnapshot snap = sched_observer.metrics().Snapshot();
    if (const auto it = snap.gauges.find("sched.queue_peak_depth");
        it != snap.gauges.end()) {
      peak_depth = it->second;
    }
    if (const auto it = snap.counters.find("lock.sched.queue.contended");
        it != snap.counters.end()) {
      queue_contended = it->second;
    }
    if (const auto it = snap.histograms.find("lock.sched.queue.wait_us");
        it != snap.histograms.end()) {
      queue_wait_ms = it->second.sum / 1000.0;
    }
  }

  const double speedup = best_on > 0.0 ? best_off / best_on : 0.0;
  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"benchmark\": \"dynamic_pipeline\",\n"
      "  \"corpus\": {\"apps\": %zu, \"destinations\": %zu, \"scale_pct\": %d},\n"
      "  \"reps\": %d,\n"
      "  \"cache_off_ms\": %.3f,\n"
      "  \"cache_on_ms\": %.3f,\n"
      "  \"speedup\": %.2f,\n"
      "  \"pinned_destinations\": %zu,\n"
      "  \"forged_leaf_cache\": {\"lookups\": %zu, \"hits\": %zu, \"misses\": %zu,\n"
      "                        \"entries\": %zu, \"hit_rate\": %.4f},\n"
      "  \"validation_cache\": {\"lookups\": %zu, \"hits\": %zu, \"misses\": %zu,\n"
      "                       \"entries\": %zu, \"hit_rate\": %.4f},\n"
      "  \"scheduler\": {\"workers\": %d,\n"
      "                \"queue_peak_depth\": %llu,\n"
      "                \"queue_lock_contended\": %llu,\n"
      "                \"queue_lock_wait_ms\": %.3f},\n",
      on_result.apps, on_result.destinations, scale_pct, reps, best_off,
      best_on, speedup, on_result.pinned, forged.lookups, forged.hits,
      forged.misses, forged.entries, forged.HitRate(), validation.lookups,
      validation.hits, validation.misses, validation.entries,
      validation.HitRate(), bench_threads,
      static_cast<unsigned long long>(peak_depth),
      static_cast<unsigned long long>(queue_contended), queue_wait_ms);

  return bench::WriteBenchJsonWithPhases("BENCH_dynamic.json", json,
                                         observer.metrics().Snapshot());
}
