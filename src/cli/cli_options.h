// Command-line option parsing for the pinscope front-end.
//
// Lives in src/cli (not tools/) so the flag grammar is unit-testable: the
// binary in tools/pinscope_cli.cc is a thin command dispatcher over this
// parser. Every flag accepts both `--flag value` and `--flag=value` forms
// where noted; bad values are rejected with a message on stderr and a
// nullopt return (the caller prints usage).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/log.h"

namespace pinscope::cli {

/// Parsed command line. Defaults mirror the documented `pinscope help` text.
struct CliOptions {
  std::string command;
  std::vector<std::string> positional;
  double scale = 0.1;
  std::uint64_t seed = 42;
  int threads = 0;  // 0 = hardware concurrency
  /// --queue-depth: scheduler ready-queue capacity (0 = 2× worker count).
  int queue_depth = 0;
  bool summary = true;
  std::string json_path;
  std::string csv_path;
  std::string metrics_path;  ///< `.prom` suffix selects OpenMetrics format.
  /// --progress: live progress rendering — "off" (default), "plain" (one
  /// line per tick, pipeable), or "tty" (carriage-return status line).
  std::string progress = "off";
  /// --heartbeat-out: machine-readable heartbeat JSONL, one object per
  /// telemetry tick.
  std::string heartbeat_path;
  /// --telemetry-interval-ms: sampler tick period (positive).
  int telemetry_interval_ms = 250;
  std::string trace_path;
  std::string log_path;      ///< --log-out: decision-journal JSONL.
  obs::Severity log_level = obs::Severity::kInfo;  ///< --log-level.
  std::string report_path;   ///< --report-out: Markdown (+ JSON companion).
  /// --cache-dir: persist/reload the content-keyed scan and validation
  /// caches across runs (warm starts). Missing or corrupt files mean a cold
  /// start, never an error; results are byte-identical either way.
  std::string cache_dir;
  /// --snapshot: advance the generated store this many churn epochs before
  /// analyzing (0 = as generated). Also the epoch count for `longitudinal`.
  int snapshots = 0;
  /// --incremental: with --snapshot N, analyze only apps changed by the
  /// final churn epoch and merge over the previous snapshot's results.
  bool incremental = false;
  /// --perf-report-out: post-hoc run autopsy as Markdown (+ JSON companion
  /// next to it, mirroring --report-out). Setting it attaches an interval
  /// timeline to the run; implied by the `autopsy` command.
  std::string perf_report_path;
  /// --folded-out: collapsed-stack lines (`platform;app;stage weight_us`)
  /// for flamegraph.pl / speedscope, from the same timeline.
  std::string folded_path;
  /// --timeline-cap: per-worker interval-reservoir capacity (positive).
  /// Memory is O(workers × cap) regardless of corpus size.
  int timeline_cap = 8192;
};

/// Parses `argv` (argv[0] is the program name, argv[1] the command).
/// Returns nullopt on any malformed flag, after describing it on stderr.
[[nodiscard]] std::optional<CliOptions> ParseArgs(int argc,
                                                  const char* const* argv);

}  // namespace pinscope::cli
