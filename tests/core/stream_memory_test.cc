// Streaming memory bound (DESIGN.md §15): a streamed study's peak RSS is set
// by the scheduler's in-flight window, not by the corpus size.
//
// VmHWM only rises over a process's life, so the witness has one order: read
// the mark after streaming 5,000 apps, then stream 100,000 and read it
// again. Whatever the long run keeps per app shows up in the second reading.
// The test is a binary of its own so that no other test's allocations set
// the mark.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>

#include "core/stream_export.h"
#include "core/stream_study.h"
#include "core/synthetic_corpus.h"
#include "obs/obs.h"
#include "obs/process.h"
#include "obs/telemetry.h"

namespace pinscope::core {
namespace {

/// Streams `total_apps` apps of the default synthetic corpus (one shared
/// 4 KiB payload, 8 hosts) without retained rows; returns the apps
/// delivered.
std::size_t StreamApps(std::size_t total_apps, obs::Observer& observer,
                       obs::Telemetry* telemetry) {
  SyntheticCorpusConfig config;
  config.apps_per_platform = total_apps / 2;
  const SyntheticCorpusSource source(config);
  StudyOptions opts;
  opts.threads = 2;
  opts.observer = &observer;
  opts.telemetry = telemetry;
  StreamExporter::Options eopts;
  eopts.retain_rows = false;
  StreamExporter exporter(eopts);
  return RunStreamingStudy(source, opts, exporter).apps;
}

double MiB(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

TEST(StreamMemoryTest, PeakRssOfA100kStreamStaysWithin2xOfA5kStream) {
  // The trace sink keeps every span it is given, which is linear in the
  // corpus; capped, it holds the head of the run and counts the rest.
  obs::Observer observer;
  observer.trace().set_max_events(std::size_t{1} << 14);

  ASSERT_EQ(StreamApps(5'000, observer, nullptr), 5'000u);
  const std::optional<std::uint64_t> small_peak = obs::ReadPeakRssBytes();
  ASSERT_TRUE(small_peak.has_value()) << "no VmHWM in /proc/self/status";

  obs::Telemetry telemetry(&observer.metrics());
  telemetry.Start();
  const std::size_t large_apps = StreamApps(100'000, observer, &telemetry);
  telemetry.Stop();
  ASSERT_EQ(large_apps, 100'000u);
  const std::optional<std::uint64_t> large_peak = obs::ReadPeakRssBytes();
  ASSERT_TRUE(large_peak.has_value()) << "no VmHWM in /proc/self/status";

  const double ratio =
      static_cast<double>(*large_peak) / static_cast<double>(*small_peak);
  std::printf("VmHWM %.1f MiB after 5,000 apps, %.1f MiB after 100,000 "
              "(ratio %.2f)\n",
              MiB(*small_peak), MiB(*large_peak), ratio);
  EXPECT_LE(ratio, 2.0);
}

}  // namespace
}  // namespace pinscope::core
