#include "core/cache_persist.h"

#include <cstdint>
#include <filesystem>

namespace pinscope::core {

namespace {

void SetGauge(obs::Observer* observer, const char* name, std::uint64_t value) {
  if (obs::MetricsRegistry* metrics = obs::MetricsOf(observer)) {
    metrics->gauge(name).Set(value);
  }
}

void SetMemoGauges(obs::MetricsRegistry& metrics, const std::string& family,
                   const util::MemoStats& stats) {
  const std::string prefix = "cache." + family + ".";
  metrics.gauge(prefix + "lookups").Set(stats.lookups);
  metrics.gauge(prefix + "hits").Set(stats.hits);
  metrics.gauge(prefix + "misses").Set(stats.misses);
  metrics.gauge(prefix + "inserts").Set(stats.inserts);
  metrics.gauge(prefix + "entries").Set(stats.entries);
}

}  // namespace

std::string ScanCachePathFor(const std::string& cache_dir) {
  return cache_dir + "/scan_cache.pscf";
}

std::string ValidationCachePathFor(const std::string& cache_dir) {
  return cache_dir + "/validation_cache.pscf";
}

StudyCacheBaseline LoadStudyCaches(const std::string& cache_dir,
                                   staticanalysis::ScanCache* scan_cache,
                                   x509::ValidationCache* validation_cache,
                                   obs::Observer* observer) {
  StudyCacheBaseline baseline;
  if (cache_dir.empty()) return baseline;
  if (scan_cache != nullptr) {
    const bool warm = scan_cache->LoadFromFile(ScanCachePathFor(cache_dir));
    if (warm) baseline.scan_entries = scan_cache->EntryCount();
    SetGauge(observer, "cache.persist.scan_loaded", warm ? 1 : 0);
  }
  if (validation_cache != nullptr) {
    const bool warm =
        validation_cache->LoadFromFile(ValidationCachePathFor(cache_dir));
    if (warm) baseline.validation_entries = validation_cache->EntryCount();
    SetGauge(observer, "cache.persist.validation_loaded", warm ? 1 : 0);
  }
  return baseline;
}

void SaveStudyCaches(const std::string& cache_dir,
                     const staticanalysis::ScanCache* scan_cache,
                     const x509::ValidationCache* validation_cache,
                     obs::Observer* observer,
                     const StudyCacheBaseline& baseline) {
  if (cache_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  if (scan_cache != nullptr) {
    const bool unchanged = scan_cache->EntryCount() == baseline.scan_entries;
    const bool saved =
        unchanged ||
        (!ec && scan_cache->SaveToFile(ScanCachePathFor(cache_dir)));
    SetGauge(observer, "cache.persist.scan_saved", saved ? 1 : 0);
  }
  if (validation_cache != nullptr) {
    const bool unchanged =
        validation_cache->EntryCount() == baseline.validation_entries;
    const bool saved =
        unchanged ||
        (!ec && validation_cache->SaveToFile(ValidationCachePathFor(cache_dir)));
    SetGauge(observer, "cache.persist.validation_saved", saved ? 1 : 0);
  }
}

void PublishCacheGauges(obs::Observer* observer,
                        const staticanalysis::ScanCache* scan_cache,
                        const dynamicanalysis::SimFixtures* fixtures) {
  obs::MetricsRegistry* metrics = obs::MetricsOf(observer);
  if (metrics == nullptr) return;
  if (scan_cache != nullptr) SetMemoGauges(*metrics, "scan", scan_cache->Stats());
  if (fixtures != nullptr) {
    SetMemoGauges(*metrics, "forged_leaf",
                  fixtures->proxy().forged_cache()->Stats());
    SetMemoGauges(*metrics, "validation", fixtures->validation_cache()->Stats());
  }
}

}  // namespace pinscope::core
