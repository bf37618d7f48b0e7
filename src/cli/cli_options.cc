#include "cli/cli_options.h"

#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace pinscope::cli {

namespace {

/// State shared by the per-flag parsers: the argument cursor plus the
/// `--flag value` / `--flag=value` plumbing.
struct ArgCursor {
  int argc;
  const char* const* argv;
  int i = 2;

  [[nodiscard]] std::optional<std::string> Next() {
    if (i + 1 >= argc) return std::nullopt;
    return std::string(argv[++i]);
  }
};

/// If `arg` is `flag` or starts with `flag=`, extracts the value into `out`
/// (consuming the next argument for the space form) and returns true.
/// `*ok` turns false when the value is missing or empty.
bool TakeValue(const std::string& arg, const std::string& flag,
               ArgCursor& cursor, std::string& out, bool& ok) {
  if (arg == flag) {
    const auto v = cursor.Next();
    if (!v || v->empty()) {
      ok = false;
      return true;
    }
    out = *v;
    return true;
  }
  if (util::StartsWith(arg, flag + "=")) {
    out = arg.substr(flag.size() + 1);
    if (out.empty()) ok = false;
    return true;
  }
  return false;
}

/// on|off flags (--summary, --incremental).
bool TakeOnOff(const std::string& arg, const std::string& flag,
               ArgCursor& cursor, bool& out, bool& ok) {
  std::string v;
  if (!TakeValue(arg, flag, cursor, v, ok)) return false;
  if (!ok) return true;
  if (v == "on") {
    out = true;
  } else if (v == "off") {
    out = false;
  } else {
    std::fprintf(stderr, "%s expects on|off, got '%s'\n", flag.c_str(),
                 v.c_str());
    ok = false;
  }
  return true;
}

}  // namespace

std::optional<CliOptions> ParseArgs(int argc, const char* const* argv) {
  if (argc < 2) return std::nullopt;
  CliOptions opts;
  opts.command = argv[1];
  ArgCursor cursor{argc, argv};
  for (; cursor.i < argc; ++cursor.i) {
    const std::string arg = argv[cursor.i];
    bool ok = true;
    std::string value;
    if (arg == "--scale") {
      const auto v = cursor.Next();
      if (!v) return std::nullopt;
      opts.scale = std::atof(v->c_str());
      if (opts.scale <= 0.0 || opts.scale > 1.0) return std::nullopt;
    } else if (arg == "--seed") {
      const auto v = cursor.Next();
      if (!v) return std::nullopt;
      opts.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (arg == "--threads") {
      const auto v = cursor.Next();
      if (!v) return std::nullopt;
      opts.threads = std::atoi(v->c_str());
      if (opts.threads < 0) return std::nullopt;
    } else if (TakeValue(arg, "--queue-depth", cursor, value, ok)) {
      if (!ok) return std::nullopt;
      opts.queue_depth = std::atoi(value.c_str());
      if (opts.queue_depth < 0 ||
          (opts.queue_depth == 0 && value != "0")) {
        std::fprintf(stderr, "--queue-depth expects a non-negative integer, "
                             "got '%s'\n",
                     value.c_str());
        return std::nullopt;
      }
    } else if (TakeOnOff(arg, "--summary", cursor, opts.summary, ok)) {
      if (!ok) return std::nullopt;
    } else if (arg == "--json") {
      const auto v = cursor.Next();
      if (!v) return std::nullopt;
      opts.json_path = *v;
    } else if (arg == "--csv") {
      const auto v = cursor.Next();
      if (!v) return std::nullopt;
      opts.csv_path = *v;
    } else if (TakeValue(arg, "--metrics-out", cursor, opts.metrics_path, ok)) {
      if (!ok) return std::nullopt;
    } else if (TakeValue(arg, "--progress", cursor, value, ok)) {
      if (!ok) return std::nullopt;
      if (value != "off" && value != "plain" && value != "tty") {
        std::fprintf(stderr, "--progress expects off|plain|tty, got '%s'\n",
                     value.c_str());
        return std::nullopt;
      }
      opts.progress = value;
    } else if (TakeValue(arg, "--heartbeat-out", cursor, opts.heartbeat_path,
                         ok)) {
      if (!ok) return std::nullopt;
    } else if (TakeValue(arg, "--telemetry-interval-ms", cursor, value, ok)) {
      if (!ok) return std::nullopt;
      opts.telemetry_interval_ms = std::atoi(value.c_str());
      if (opts.telemetry_interval_ms <= 0) {
        std::fprintf(stderr,
                     "--telemetry-interval-ms expects a positive integer, "
                     "got '%s'\n",
                     value.c_str());
        return std::nullopt;
      }
    } else if (TakeValue(arg, "--trace-out", cursor, opts.trace_path, ok)) {
      if (!ok) return std::nullopt;
    } else if (TakeValue(arg, "--log-out", cursor, opts.log_path, ok)) {
      if (!ok) return std::nullopt;
    } else if (TakeValue(arg, "--report-out", cursor, opts.report_path, ok)) {
      if (!ok) return std::nullopt;
    } else if (TakeValue(arg, "--cache-dir", cursor, opts.cache_dir, ok)) {
      if (!ok) return std::nullopt;
    } else if (TakeValue(arg, "--snapshot", cursor, value, ok)) {
      if (!ok) return std::nullopt;
      opts.snapshots = std::atoi(value.c_str());
      if (opts.snapshots < 0 || (opts.snapshots == 0 && value != "0")) {
        std::fprintf(stderr,
                     "--snapshot expects a non-negative integer, got '%s'\n",
                     value.c_str());
        return std::nullopt;
      }
    } else if (TakeOnOff(arg, "--incremental", cursor, opts.incremental, ok)) {
      if (!ok) return std::nullopt;
    } else if (TakeValue(arg, "--perf-report-out", cursor,
                         opts.perf_report_path, ok)) {
      if (!ok) return std::nullopt;
    } else if (TakeValue(arg, "--folded-out", cursor, opts.folded_path, ok)) {
      if (!ok) return std::nullopt;
    } else if (TakeValue(arg, "--timeline-cap", cursor, value, ok)) {
      if (!ok) return std::nullopt;
      opts.timeline_cap = std::atoi(value.c_str());
      if (opts.timeline_cap <= 0) {
        std::fprintf(stderr,
                     "--timeline-cap expects a positive integer, got '%s'\n",
                     value.c_str());
        return std::nullopt;
      }
    } else if (TakeValue(arg, "--log-level", cursor, value, ok)) {
      if (!ok) return std::nullopt;
      const auto severity = obs::ParseSeverity(value);
      if (!severity.has_value()) {
        std::fprintf(stderr,
                     "--log-level expects debug|info|decision|warn|error, "
                     "got '%s'\n",
                     value.c_str());
        return std::nullopt;
      }
      opts.log_level = *severity;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return std::nullopt;
    } else {
      opts.positional.push_back(arg);
    }
  }
  return opts;
}

}  // namespace pinscope::cli
