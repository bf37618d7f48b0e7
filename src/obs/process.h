// Process-level resource observability.
//
// The streaming-study work (DESIGN.md §15) is a peak-memory contract:
// bounded RSS no matter the corpus size. That contract needs a witness, so
// this header reads the process's peak resident set ("high-water mark") and
// publishes it as the `process.peak_rss_bytes` gauge — in --metrics-out
// files and pinbench's `peak_rss_mb`. The live-telemetry work (§16)
// adds the instantaneous view: `process.rss_bytes` (VmRSS), re-published on
// every telemetry tick so the live .prom snapshot and heartbeat carry a
// current value rather than one sampled at exit.
#pragma once

#include <cstdint>
#include <optional>

#include "obs/metrics.h"

namespace pinscope::obs {

/// Peak resident-set size of the current process in bytes, read from
/// /proc/self/status (the VmHWM line) on Linux. nullopt where procfs is
/// unavailable — callers render that as JSON null, never as zero.
[[nodiscard]] std::optional<std::uint64_t> ReadPeakRssBytes();

/// Current resident-set size of the process in bytes, read from
/// /proc/self/status (the VmRSS line). nullopt where procfs is unavailable.
[[nodiscard]] std::optional<std::uint64_t> ReadCurrentRssBytes();

/// Publishes ReadPeakRssBytes() as the `process.peak_rss_bytes` gauge.
/// No-op when `metrics` is null or the platform cannot report a peak.
void PublishPeakRss(MetricsRegistry* metrics);

/// Publishes both RSS gauges: `process.rss_bytes` (current VmRSS) and
/// `process.peak_rss_bytes` (VmHWM). Gauges are last-write-wins, so calling
/// this every telemetry tick is idempotent and cheap. No-op on null.
void PublishRss(MetricsRegistry* metrics);

}  // namespace pinscope::obs
