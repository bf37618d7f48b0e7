// Live run telemetry: the flight recorder and its three surfaces
// (DESIGN.md §16).
//
// Everything in src/obs before this header is *post-mortem*: metrics,
// traces, and the decision journal materialize after the run ends. A
// Telemetry instance adds the in-flight view: a background sampler thread
// that every tick (default 250 ms) captures one bounded ring-buffer frame —
// MetricsRegistry counter deltas, current/peak VmRSS, scheduler queue depth,
// per-stage completion counts, in-flight chain count — and drives three
// live surfaces off that frame stream:
//
//   (a) a progress renderer (`--progress=tty|plain|off`) plus a
//       machine-readable heartbeat JSONL (`--heartbeat-out`): one JSON
//       object per tick with monotone `tick`/`done` fields and bounded-error
//       p50/p90/p99 for every `phase.*` histogram;
//   (b) a live metrics snapshot (`--metrics-out` refreshed per tick instead
//       of once at exit): written to `<path>.tmp` and atomically renamed
//       into place, so a scraper (or the future pinscope-as-a-service
//       daemon) never reads a torn file. A `.prom` suffix selects the
//       OpenMetrics text format, anything else the JSON format;
//   (c) a stall watchdog: when no chain completes for `stall_ticks`
//       consecutive ticks while work is in flight, it emits one
//       obs::EventLog warn event naming the top straggler (app, stage,
//       elapsed) and renders a top-K straggler table on the progress
//       stream. It re-arms only after progress resumes, so one stall fires
//       exactly once.
//
// Determinism contract: telemetry is pure observability, one level *more*
// excluded than metrics — its frames are wall-clock samples and explicitly
// outside the determinism contract, and its watchdog events live in the
// Telemetry's own EventLog channel, never the study's decision journal.
// Exports, journal, and run reports are byte-identical with telemetry on or
// off (`ctest -L telemetry`).
//
// Threading: worker threads call the OnStage*/OnItemDone hooks (cheap,
// one small mutex); exactly one thread — the internal sampler, or a test
// driving manual mode — calls Tick(). Start()/Stop() bracket the run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"

namespace pinscope::obs {

/// How the live progress line is rendered.
enum class ProgressMode {
  kOff,    ///< No progress output (heartbeat/live-metrics still run).
  kPlain,  ///< One full line per tick — pipeable, the transcript format.
  kTty,    ///< One carriage-return-rewritten status line (interactive).
};

/// Parses "off" | "plain" | "tty" (the exact --progress spellings).
[[nodiscard]] std::optional<ProgressMode> ParseProgressMode(
    std::string_view name);

/// Knobs for one Telemetry instance. Defaults match the CLI defaults.
struct TelemetryOptions {
  /// Sampler period. <= 0 selects manual mode: Start() spawns no thread and
  /// the owner drives Tick() itself (how the unit tests make ticks
  /// deterministic).
  int interval_ms = 250;
  ProgressMode progress = ProgressMode::kOff;
  /// When non-empty: appended with one heartbeat JSON line per tick.
  std::string heartbeat_path;
  /// When non-empty: atomically write-replaced with a full metrics snapshot
  /// per tick (`.prom` suffix = OpenMetrics text, otherwise JSON).
  std::string metrics_path;
  /// Flight-recorder ring capacity in frames; older frames are dropped.
  std::size_t ring_capacity = 512;
  /// Watchdog threshold: consecutive ticks without a chain completion (while
  /// chains are in flight) before the stall event fires.
  int stall_ticks = 8;
  /// Rows in the rendered straggler table.
  std::size_t straggler_top_k = 5;
  /// Progress/straggler output stream; nullptr = stderr.
  std::FILE* progress_stream = nullptr;
};

/// One flight-recorder frame: the between-ticks delta view of the run.
struct TelemetryFrame {
  std::uint64_t tick = 0;       ///< 1-based tick index (monotone).
  double elapsed_ms = 0.0;      ///< Wall time since Start().
  std::uint64_t done = 0;       ///< Chains completed so far (monotone).
  std::uint64_t done_delta = 0; ///< Chains completed during this tick.
  std::uint64_t total = 0;      ///< Expected chains (0 = unknown).
  std::uint64_t rss_bytes = 0;  ///< Current VmRSS (0 where unavailable).
  std::uint64_t peak_rss_bytes = 0;  ///< VmHWM (0 where unavailable).
  std::uint64_t queue_depth = 0;     ///< sched.queue_size gauge sample.
  std::uint64_t inflight = 0;        ///< Chains currently inside a stage.
  std::uint64_t stalled_ticks = 0;   ///< Watchdog counter at frame time.
  /// Cumulative per-stage completion counts ("hydrate", "static", ...).
  std::map<std::string, std::uint64_t> stage_done;
  /// Registry counters that moved during this tick (name → increment).
  std::map<std::string, std::uint64_t> counter_deltas;
};

/// One row of the straggler table: a chain currently stuck inside a stage.
struct StragglerRow {
  std::string platform;
  std::string app_id;
  std::string stage;
  double elapsed_ms = 0.0;  ///< Time spent inside the current stage.
};

/// Composes the in-flight tracking key the study wiring uses: platform rank
/// (0 = android, 1 = ios) in the high bits, universe index in the low.
[[nodiscard]] constexpr std::uint64_t TelemetryKey(int platform_rank,
                                                   std::size_t index) {
  return (static_cast<std::uint64_t>(platform_rank) << 48) |
         static_cast<std::uint64_t>(index);
}

/// The live-run sampler. Construct over the run's MetricsRegistry (nullable
/// — frames then carry only telemetry-local fields), Start() before the
/// study, Stop() after. All hooks are thread-safe; see the header comment
/// for the Tick() single-caller rule.
class Telemetry {
 public:
  explicit Telemetry(MetricsRegistry* metrics, TelemetryOptions options = {});
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;
  ~Telemetry();

  /// Opens the heartbeat file and spawns the sampler thread (unless in
  /// manual mode). Idempotent.
  void Start();

  /// Takes one final tick, joins the sampler, finishes the tty line, and
  /// closes the heartbeat file. Idempotent; the destructor calls it.
  void Stop();

  /// Adds to the expected chain total (drives the progress percentage).
  void AddTotal(std::size_t n);

  /// Marks `key`'s chain as inside `stage` (overwrites any previous stage —
  /// a chain is in exactly one stage at a time).
  void OnStageStart(std::uint64_t key, std::string_view platform,
                    std::string_view app_id, std::string_view stage);

  /// Marks `stage` finished for `key`: bumps the stage completion count and
  /// clears the chain's in-flight stage entry.
  void OnStageEnd(std::uint64_t key, std::string_view stage);

  /// Marks `key`'s whole chain finished (success or failure) — the
  /// completion signal the watchdog and progress meter consume.
  void OnItemDone(std::uint64_t key);

  /// Captures one frame and refreshes every surface. Called by the sampler
  /// thread; call directly (single-threaded) in manual mode.
  void Tick();

  /// Flight-recorder contents, oldest first (bounded by ring_capacity).
  [[nodiscard]] std::vector<TelemetryFrame> Frames() const;

  /// Ticks taken so far (>= Frames().size(); the ring forgets, this doesn't).
  [[nodiscard]] std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// Times the stall watchdog has fired.
  [[nodiscard]] std::uint64_t watchdog_fires() const {
    return watchdog_fires_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t done() const {
    return done_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// The telemetry event channel (stall warns, resume notes). Deliberately
  /// separate from the study's decision journal so an attached journal stays
  /// byte-identical telemetry on or off.
  [[nodiscard]] const EventLog& events() const { return events_; }

  /// Current in-flight chains ordered by time-in-stage, longest first,
  /// truncated to `k`.
  [[nodiscard]] std::vector<StragglerRow> Stragglers(std::size_t k) const;

  /// The recorded frames as a JSON array (tick, elapsed_ms, done, rss,
  /// queue depth) — what bench_stream embeds into BENCH_stream.json so the
  /// flat-RSS claim is a curve, not a single number.
  [[nodiscard]] std::string TimelineJson() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct InflightCell {
    std::string platform;
    std::string app_id;
    std::string stage;
    Clock::time_point since;
  };

  /// Builds the frame for this tick (everything except surfaces).
  TelemetryFrame CaptureFrame(const MetricsSnapshot* snapshot);
  void RunWatchdog(const TelemetryFrame& frame);
  void WriteHeartbeat(const TelemetryFrame& frame,
                      const MetricsSnapshot* snapshot);
  void WriteLiveMetrics(const MetricsSnapshot& snapshot);
  void RenderProgress(const TelemetryFrame& frame);
  void RenderStragglerTable(const std::vector<StragglerRow>& rows);
  [[nodiscard]] std::FILE* progress_out() const {
    return options_.progress_stream != nullptr ? options_.progress_stream
                                               : stderr;
  }

  MetricsRegistry* metrics_;
  TelemetryOptions options_;

  // In-flight tracking (hooks).
  mutable std::mutex inflight_mu_;
  std::map<std::uint64_t, InflightCell> inflight_;
  std::map<std::string, std::uint64_t> stage_done_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> total_{0};

  // Flight recorder.
  mutable std::mutex frames_mu_;
  std::deque<TelemetryFrame> frames_;
  std::atomic<std::uint64_t> ticks_{0};

  // Sampler state (Tick()-thread only).
  Clock::time_point start_;
  std::uint64_t last_done_ = 0;
  std::map<std::string, std::uint64_t> last_counters_;
  std::uint64_t stalled_ticks_ = 0;
  bool watchdog_armed_ = true;
  std::atomic<std::uint64_t> watchdog_fires_{0};
  bool tty_line_open_ = false;

  // Surfaces.
  EventLog events_;
  EventScope event_scope_;
  std::FILE* heartbeat_ = nullptr;

  // Sampler thread.
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread sampler_;
};

}  // namespace pinscope::obs
