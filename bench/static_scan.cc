// Static-scan cache throughput harness.
//
// Scans a duplicated-SDK corpus (every app ships the same SDK smali, API
// client stubs and bundled PEM chain, plus a few app-unique files) end to
// end with the content-hash scan cache off and on, and writes the results
// as machine-readable JSON to BENCH_static_scan.json so CI can track the
// speedup over time, with a result-equality guard: both passes must find
// identical pins. The JSON also names the prefilter's SIMD tier.
//
// Knobs: PINSCOPE_BENCH_APPS (corpus size, default 64),
//        PINSCOPE_BENCH_REPS (timed repetitions, default 5; best rep wins).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "appmodel/android_package.h"
#include "bench_json.h"
#include "obs/metrics.h"
#include "staticanalysis/scan_cache.h"
#include "staticanalysis/scanner.h"
#include "util/rng.h"
#include "x509/issuer.h"
#include "x509/pem.h"
#include "x509/root_store.h"

namespace {

using namespace pinscope;

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

std::vector<appmodel::PackageFiles> DuplicatedSdkCorpus(int apps) {
  const auto& ca = x509::PublicCaCatalog::Instance().ByLabel("ca.globaltrust");
  const std::string sdk_pin = "sha256/" + std::string(43, 'S') + "=";
  // The SDK's native half: one prebuilt .so, byte-identical in every app,
  // with the dense symbol/string table a real stripped library still has.
  std::vector<std::string> sdk_symbols = {sdk_pin, "https://telemetry.vendor.com"};
  for (int sym = 0; sym < 4000; ++sym) {
    sdk_symbols.push_back("_ZN6vendor9analytics" + std::to_string(sym) + "Ev");
  }
  util::Rng blob_rng(1);
  const util::Bytes sdk_blob =
      appmodel::RenderBinaryWithStrings(sdk_symbols, blob_rng, 48 * 1024);
  // And its vendored CA bundle: ~130 anchors like a real cacert.pem,
  // shipped (as SDKs tend to) under a non-certificate extension, so every
  // uncached pass PEM-decodes and parses each certificate from content.
  std::string ca_bundle;
  for (int c = 0; c < 130; ++c) {
    x509::IssueSpec spec;
    spec.subject.set_common_name("Bundle Root CA " + std::to_string(c));
    ca_bundle += x509::PemEncode(
        x509::CertificateIssuer::SelfSignedLeaf("bundle:" + std::to_string(c), spec));
  }
  std::vector<appmodel::PackageFiles> corpus;
  corpus.reserve(static_cast<std::size_t>(apps));
  for (int a = 0; a < apps; ++a) {
    appmodel::AppMetadata meta;
    meta.app_id = "com.bench.dup" + std::to_string(a);
    meta.display_name = "Dup" + std::to_string(a);
    meta.platform = appmodel::Platform::kAndroid;
    appmodel::AndroidPackageBuilder builder(meta);
    builder.AddSmaliString("com/vendor/analytics", "PinningConfig.smali", sdk_pin);
    for (int f = 0; f < 24; ++f) {
      builder.AddSmaliString("com/vendor/analytics/impl" + std::to_string(f),
                             "Api.smali",
                             "https://telemetry.vendor.com/v2/e" + std::to_string(f));
    }
    builder.AddCertificateFile("assets/sdk", "vendor_root", ca.certificate(),
                               appmodel::CertFileFormat::kPem);
    builder.AddSmaliString("com/bench/dup" + std::to_string(a), "Main.smali",
                           "https://api.dup" + std::to_string(a) + ".com/v1");
    builder.AddAsset("assets/config.json",
                     "{\"app\":\"dup" + std::to_string(a) + "\"}");
    appmodel::PackageFiles files = builder.Build();
    files.Add("lib/arm64-v8a/libvendorsdk.so", sdk_blob);
    files.AddText("assets/sdk/ca_bundle.dat", ca_bundle);
    corpus.push_back(std::move(files));
  }
  return corpus;
}

/// One full corpus pass; returns wall milliseconds. The cache (when given)
/// starts cold, as at the beginning of a study.
double TimedPass(const staticanalysis::Scanner& scanner,
                 const std::vector<appmodel::PackageFiles>& corpus,
                 staticanalysis::ScanCache* cache, std::size_t* pins_out) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t pins = 0;
  for (const auto& package : corpus) {
    pins += scanner.Scan(package, cache).pins.size();
  }
  const auto end = std::chrono::steady_clock::now();
  *pins_out = pins;
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  const int apps = EnvInt("PINSCOPE_BENCH_APPS", 64);
  const int reps = EnvInt("PINSCOPE_BENCH_REPS", 5);

  std::fprintf(stderr, "[pinscope] building %d-app duplicated-SDK corpus...\n",
               apps);
  const std::vector<appmodel::PackageFiles> corpus = DuplicatedSdkCorpus(apps);
  std::size_t total_files = 0, total_bytes = 0;
  for (const auto& package : corpus) {
    total_files += package.size();
    total_bytes += package.TotalBytes();
  }

  const staticanalysis::Scanner scanner;

  std::size_t pins_off = 0, pins_on = 0;
  double best_off = 0.0, best_on = 0.0;
  staticanalysis::ScanCacheStats stats;
  // Per-phase wall-time histograms (one sample per rep), embedded into the
  // JSON below as the "phases" breakdown.
  obs::MetricsRegistry registry;
  for (int r = 0; r < reps; ++r) {
    double off = 0.0, on = 0.0;
    {
      obs::ScopedTimer timer(
          obs::PhaseHistogramOrNull(&registry, "phase.scan_uncached"));
      off = TimedPass(scanner, corpus, nullptr, &pins_off);
    }
    staticanalysis::ScanCache cache;
    {
      obs::ScopedTimer timer(
          obs::PhaseHistogramOrNull(&registry, "phase.scan_cached"));
      on = TimedPass(scanner, corpus, &cache, &pins_on);
    }
    if (r == 0 || off < best_off) best_off = off;
    if (r == 0 || on < best_on) {
      best_on = on;
      stats = cache.Stats();
    }
    std::fprintf(stderr, "[pinscope] rep %d: uncached %.2f ms, cached %.2f ms\n",
                 r + 1, off, on);
  }
  if (pins_off != pins_on) {
    std::fprintf(stderr,
                 "FATAL: scan variants disagree (%zu uncached, %zu cached pins)\n",
                 pins_off, pins_on);
    return 1;
  }

  const double speedup = best_on > 0.0 ? best_off / best_on : 0.0;
  char json[1536];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"benchmark\": \"static_scan\",\n"
      "  \"corpus\": {\"apps\": %d, \"files\": %zu, \"bytes\": %zu},\n"
      "  \"reps\": %d,\n"
      "  \"cache_off_ms\": %.3f,\n"
      "  \"cache_on_ms\": %.3f,\n"
      "  \"speedup\": %.2f,\n"
      "  \"pins_found\": %zu,\n"
      "  \"prefilter\": {\"level\": \"%s\"},\n"
      "  \"cache\": {\"lookups\": %zu, \"hits\": %zu, \"misses\": %zu,\n"
      "            \"entries\": %zu, \"bytes_deduped\": %zu, \"hit_rate\": %.4f},\n",
      apps, total_files, total_bytes, reps, best_off, best_on, speedup, pins_on,
      scanner.prefilter().level_name(), stats.lookups, stats.hits,
      stats.misses, stats.entries, stats.bytes_deduped, stats.HitRate());

  return bench::WriteBenchJsonWithPhases("BENCH_static_scan.json", json,
                                         registry.Snapshot());
}
