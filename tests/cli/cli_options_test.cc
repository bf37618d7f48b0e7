// CLI flag-grammar suite for pinscope::cli::ParseArgs — both `--flag value`
// and `--flag=value` spellings, defaults, and bad-value rejection.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "cli/cli_options.h"

namespace pinscope::cli {
namespace {

std::optional<CliOptions> Parse(std::vector<std::string> args) {
  std::vector<const char*> argv = {"pinscope"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return ParseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseArgsTest, DefaultsMatchDocumentedHelp) {
  const auto opts = Parse({"study"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->command, "study");
  EXPECT_TRUE(opts->positional.empty());
  EXPECT_DOUBLE_EQ(opts->scale, 0.1);
  EXPECT_EQ(opts->seed, 42u);
  EXPECT_EQ(opts->threads, 0);
  EXPECT_EQ(opts->queue_depth, 0);
  EXPECT_TRUE(opts->summary);
  EXPECT_TRUE(opts->json_path.empty());
  EXPECT_TRUE(opts->csv_path.empty());
  EXPECT_TRUE(opts->metrics_path.empty());
  EXPECT_TRUE(opts->trace_path.empty());
  EXPECT_TRUE(opts->log_path.empty());
  EXPECT_EQ(opts->log_level, obs::Severity::kInfo);
  EXPECT_TRUE(opts->report_path.empty());
  EXPECT_TRUE(opts->cache_dir.empty());
  EXPECT_EQ(opts->snapshots, 0);
  EXPECT_FALSE(opts->incremental);
}

TEST(ParseArgsTest, NoCommandIsRejected) {
  EXPECT_FALSE(Parse({}).has_value());
}

TEST(ParseArgsTest, AcceptsCoreStudyFlags) {
  const auto opts = Parse({"study", "--scale", "0.25", "--seed", "9",
                           "--threads", "3", "--json", "a.jsonl", "--csv",
                           "b.csv"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_DOUBLE_EQ(opts->scale, 0.25);
  EXPECT_EQ(opts->seed, 9u);
  EXPECT_EQ(opts->threads, 3);
  EXPECT_EQ(opts->json_path, "a.jsonl");
  EXPECT_EQ(opts->csv_path, "b.csv");
}

TEST(ParseArgsTest, OutputFlagsAcceptBothSpellings) {
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"study", "--metrics-out", "m.json", "--trace-out", "t.json",
            "--log-out", "e.jsonl", "--report-out", "r.md"},
           {"study", "--metrics-out=m.json", "--trace-out=t.json",
            "--log-out=e.jsonl", "--report-out=r.md"}}) {
    const auto opts = Parse(args);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->metrics_path, "m.json");
    EXPECT_EQ(opts->trace_path, "t.json");
    EXPECT_EQ(opts->log_path, "e.jsonl");
    EXPECT_EQ(opts->report_path, "r.md");
  }
}

TEST(ParseArgsTest, OnOffFlagsAcceptBothSpellings) {
  const auto spaced =
      Parse({"study", "--incremental", "on", "--summary", "off"});
  ASSERT_TRUE(spaced.has_value());
  EXPECT_TRUE(spaced->incremental);
  EXPECT_FALSE(spaced->summary);

  const auto eq = Parse({"study", "--incremental=off", "--summary=off"});
  ASSERT_TRUE(eq.has_value());
  EXPECT_FALSE(eq->incremental);
  EXPECT_FALSE(eq->summary);
}

TEST(ParseArgsTest, SchedulerFlagsAcceptBothSpellings) {
  const auto spaced = Parse({"study", "--queue-depth", "8"});
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(spaced->queue_depth, 8);

  const auto eq = Parse({"study", "--queue-depth=0"});
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->queue_depth, 0);
}

TEST(ParseArgsTest, LogLevelAcceptsEverySeverity) {
  for (const char* level : {"debug", "info", "decision", "warn", "error"}) {
    SCOPED_TRACE(level);
    const auto opts = Parse({"study", std::string("--log-level=") + level});
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(obs::SeverityName(opts->log_level), level);
  }
  const auto spaced = Parse({"study", "--log-level", "decision"});
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(spaced->log_level, obs::Severity::kDecision);
}

TEST(ParseArgsTest, RejectsBadValues) {
  EXPECT_FALSE(Parse({"study", "--log-level", "verbose"}).has_value());
  EXPECT_FALSE(Parse({"study", "--log-level="}).has_value());
  EXPECT_FALSE(Parse({"study", "--incremental", "maybe"}).has_value());
  EXPECT_FALSE(Parse({"study", "--summary=yes"}).has_value());
  EXPECT_FALSE(Parse({"study", "--threads", "-1"}).has_value());
  EXPECT_FALSE(Parse({"study", "--queue-depth", "-2"}).has_value());
  EXPECT_FALSE(Parse({"study", "--queue-depth", "lots"}).has_value());
  EXPECT_FALSE(Parse({"study", "--scale", "0"}).has_value());
  EXPECT_FALSE(Parse({"study", "--scale", "1.5"}).has_value());
}

TEST(ParseArgsTest, RejectsMissingAndEmptyValues) {
  EXPECT_FALSE(Parse({"study", "--metrics-out"}).has_value());
  EXPECT_FALSE(Parse({"study", "--metrics-out="}).has_value());
  EXPECT_FALSE(Parse({"study", "--trace-out"}).has_value());
  EXPECT_FALSE(Parse({"study", "--log-out"}).has_value());
  EXPECT_FALSE(Parse({"study", "--log-out="}).has_value());
  EXPECT_FALSE(Parse({"study", "--report-out"}).has_value());
  EXPECT_FALSE(Parse({"study", "--seed"}).has_value());
}

TEST(ParseArgsTest, StreamingFlagsAcceptBothSpellings) {
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"study", "--cache-dir", "/tmp/pscache", "--snapshot", "3",
            "--incremental", "on"},
           {"study", "--cache-dir=/tmp/pscache", "--snapshot=3",
            "--incremental=on"}}) {
    const auto opts = Parse(args);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->cache_dir, "/tmp/pscache");
    EXPECT_EQ(opts->snapshots, 3);
    EXPECT_TRUE(opts->incremental);
  }
  const auto off = Parse({"study", "--snapshot", "0", "--incremental", "off"});
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(off->snapshots, 0);
  EXPECT_FALSE(off->incremental);
}

TEST(ParseArgsTest, StreamingFlagsRejectBadValues) {
  EXPECT_FALSE(Parse({"study", "--cache-dir"}).has_value());
  EXPECT_FALSE(Parse({"study", "--cache-dir="}).has_value());
  EXPECT_FALSE(Parse({"study", "--snapshot"}).has_value());
  EXPECT_FALSE(Parse({"study", "--snapshot", "-1"}).has_value());
  EXPECT_FALSE(Parse({"study", "--snapshot", "two"}).has_value());
  EXPECT_FALSE(Parse({"study", "--incremental", "maybe"}).has_value());
}

TEST(ParseArgsTest, TelemetryDefaultsAreOffAndQuiet) {
  const auto opts = Parse({"study"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->progress, "off");
  EXPECT_TRUE(opts->heartbeat_path.empty());
  EXPECT_EQ(opts->telemetry_interval_ms, 250);
}

TEST(ParseArgsTest, TelemetryFlagsAcceptBothSpellings) {
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"study", "--progress", "plain", "--heartbeat-out", "hb.jsonl",
            "--telemetry-interval-ms", "50"},
           {"study", "--progress=plain", "--heartbeat-out=hb.jsonl",
            "--telemetry-interval-ms=50"}}) {
    const auto opts = Parse(args);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->progress, "plain");
    EXPECT_EQ(opts->heartbeat_path, "hb.jsonl");
    EXPECT_EQ(opts->telemetry_interval_ms, 50);
  }
  for (const char* mode : {"off", "plain", "tty"}) {
    SCOPED_TRACE(mode);
    const auto opts = Parse({"study", std::string("--progress=") + mode});
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->progress, mode);
  }
}

TEST(ParseArgsTest, TelemetryFlagsRejectBadValues) {
  EXPECT_FALSE(Parse({"study", "--progress", "bar"}).has_value());
  EXPECT_FALSE(Parse({"study", "--progress", "Plain"}).has_value());
  EXPECT_FALSE(Parse({"study", "--progress="}).has_value());
  EXPECT_FALSE(Parse({"study", "--progress"}).has_value());
  EXPECT_FALSE(Parse({"study", "--heartbeat-out"}).has_value());
  EXPECT_FALSE(Parse({"study", "--heartbeat-out="}).has_value());
  EXPECT_FALSE(Parse({"study", "--telemetry-interval-ms", "0"}).has_value());
  EXPECT_FALSE(Parse({"study", "--telemetry-interval-ms", "-5"}).has_value());
  EXPECT_FALSE(Parse({"study", "--telemetry-interval-ms", "soon"}).has_value());
}

TEST(ParseArgsTest, AutopsyDefaultsAreOff) {
  const auto opts = Parse({"study"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_TRUE(opts->perf_report_path.empty());
  EXPECT_TRUE(opts->folded_path.empty());
  EXPECT_EQ(opts->timeline_cap, 8192);
}

TEST(ParseArgsTest, AutopsyCommandParsesWithItsFlags) {
  const auto opts = Parse({"autopsy", "--scale", "0.05", "--threads", "4",
                           "--perf-report-out", "perf.md", "--folded-out",
                           "stacks.folded", "--timeline-cap", "256"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->command, "autopsy");
  EXPECT_DOUBLE_EQ(opts->scale, 0.05);
  EXPECT_EQ(opts->threads, 4);
  EXPECT_EQ(opts->perf_report_path, "perf.md");
  EXPECT_EQ(opts->folded_path, "stacks.folded");
  EXPECT_EQ(opts->timeline_cap, 256);
}

TEST(ParseArgsTest, AutopsyFlagsAcceptBothSpellings) {
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"study", "--perf-report-out", "perf.md", "--folded-out", "f.txt",
            "--timeline-cap", "1024"},
           {"study", "--perf-report-out=perf.md", "--folded-out=f.txt",
            "--timeline-cap=1024"}}) {
    const auto opts = Parse(args);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->perf_report_path, "perf.md");
    EXPECT_EQ(opts->folded_path, "f.txt");
    EXPECT_EQ(opts->timeline_cap, 1024);
  }
}

TEST(ParseArgsTest, AutopsyFlagsRejectBadValues) {
  EXPECT_FALSE(Parse({"study", "--perf-report-out"}).has_value());
  EXPECT_FALSE(Parse({"study", "--perf-report-out="}).has_value());
  EXPECT_FALSE(Parse({"study", "--folded-out"}).has_value());
  EXPECT_FALSE(Parse({"study", "--folded-out="}).has_value());
  EXPECT_FALSE(Parse({"study", "--timeline-cap"}).has_value());
  EXPECT_FALSE(Parse({"study", "--timeline-cap", "0"}).has_value());
  EXPECT_FALSE(Parse({"study", "--timeline-cap", "-8"}).has_value());
  EXPECT_FALSE(Parse({"study", "--timeline-cap", "plenty"}).has_value());
}

TEST(ParseArgsTest, RejectsUnknownOptions) {
  EXPECT_FALSE(Parse({"study", "--log-format", "jsonl"}).has_value());
  EXPECT_FALSE(Parse({"study", "--bogus"}).has_value());
  // The scan cache picks its files by size; there is no switch.
  EXPECT_FALSE(Parse({"study", "--scan-cache=off"}).has_value());
}

TEST(ParseArgsTest, CollectsPositionalArguments) {
  const auto opts = Parse({"audit", "com.example.app", "--seed", "7"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->command, "audit");
  ASSERT_EQ(opts->positional.size(), 1u);
  EXPECT_EQ(opts->positional[0], "com.example.app");
  EXPECT_EQ(opts->seed, 7u);
}

}  // namespace
}  // namespace pinscope::cli
