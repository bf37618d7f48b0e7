// Decision-journal acceptance suite (DESIGN.md §12): the journal is part of
// the determinism contract. For two generation seeds this proves
//   (a) the JSONL journal is byte-identical across thread counts,
//   (b) attaching a journal never changes an exported study byte,
//   (c) every exported per-app verdict has at least one attributing
//       decision event in the journal, and
//   (d) raising the severity floor drops events without reordering (the
//       filtered journal is a byte-exact subsequence of the full one).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/export.h"
#include "core/study.h"
#include "obs/obs.h"
#include "report/run_report.h"
#include "testing/fixtures.h"

namespace pinscope::core {
namespace {

Study RunStudy(const store::Ecosystem& eco, int threads,
               obs::Observer* observer) {
  StudyOptions opts;
  opts.threads = threads;
  opts.observer = observer;
  Study study(eco, opts);
  study.Run();
  return study;
}

/// Runs the study at `threads` with a journal at `min_severity` attached;
/// returns the serialized journal.
std::string JournalFor(const store::Ecosystem& eco, int threads,
                       obs::Severity min_severity) {
  obs::Observer observer;
  obs::EventLog log(min_severity);
  observer.set_log(&log);
  (void)RunStudy(eco, threads, &observer);
  return log.ToJsonl();
}

class LogJournalTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogJournalTest, JournalIsByteIdenticalAcrossThreadCounts) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const std::string reference = JournalFor(eco, 1, obs::Severity::kDebug);
  ASSERT_FALSE(reference.empty());

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {4, hw > 0 ? hw : 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(reference, JournalFor(eco, threads, obs::Severity::kDebug));
  }
}

TEST_P(LogJournalTest, AttachedJournalNeverChangesAnExportByte) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());

  const Study detached = RunStudy(eco, 4, /*observer=*/nullptr);
  const std::string json = ExportStudyJson(detached);
  const std::string csv = ExportStudyCsv(detached);

  obs::Observer observer;
  obs::EventLog log(obs::Severity::kDebug);
  observer.set_log(&log);
  const Study attached = RunStudy(eco, 4, &observer);
  EXPECT_GT(log.EventCount(), 0u);
  EXPECT_EQ(json, ExportStudyJson(attached));
  EXPECT_EQ(csv, ExportStudyCsv(attached));
}

TEST_P(LogJournalTest, EveryVerdictHasAttributingDecisionEvents) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  obs::Observer observer;
  obs::EventLog log(obs::Severity::kDecision);
  observer.set_log(&log);
  const Study study = RunStudy(eco, 4, &observer);

  const std::vector<report::AppVerdict> verdicts = CollectAppVerdicts(study);
  ASSERT_FALSE(verdicts.empty());
  const std::vector<obs::LogEvent> events = log.SortedEvents();

  auto has_event = [&](const report::AppVerdict& v, auto&& pred) {
    for (const obs::LogEvent& e : events) {
      if (e.platform == v.platform && e.app_id == v.app_id && pred(e)) {
        return true;
      }
    }
    return false;
  };
  auto pinned_divergence = [](const obs::LogEvent& e) {
    if (e.name != "dynamic.divergence") return false;
    const obs::LogValue* pinned = obs::FindField(e, "pinned");
    return pinned != nullptr && pinned->AsBool();
  };

  for (const report::AppVerdict& v : verdicts) {
    SCOPED_TRACE(v.platform + "/" + v.app_id);
    // Every app's verdict — positive or negative — carries a final
    // dynamic.verdict and static.verdict decision event.
    EXPECT_TRUE(has_event(v, [](const obs::LogEvent& e) {
      return e.name == "dynamic.verdict";
    }));
    EXPECT_TRUE(has_event(v, [](const obs::LogEvent& e) {
      return e.name == "static.verdict";
    }));
    if (v.pins_at_runtime) {
      EXPECT_TRUE(has_event(v, pinned_divergence));
    }
    if (v.potential_pinning) {
      EXPECT_TRUE(has_event(v, [](const obs::LogEvent& e) {
        return e.name == "static.pin_found" || e.name == "static.cert_found";
      }));
    }
    if (v.config_pinning) {
      EXPECT_TRUE(has_event(v, [](const obs::LogEvent& e) {
        return e.name == "nsc.pin_set" || e.name == "ats.pinned_domain";
      }));
    }
    // And the report generator turns those events into at least one
    // human-readable reason whenever any verdict fired.
    if (v.pins_at_runtime || v.potential_pinning || v.config_pinning) {
      EXPECT_FALSE(report::AttributionFor(v, events).empty());
    }
  }
}

TEST_P(LogJournalTest, SeverityFilterDropsWithoutReordering) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const std::string full = JournalFor(eco, 4, obs::Severity::kDebug);
  const std::string filtered = JournalFor(eco, 4, obs::Severity::kDecision);
  ASSERT_FALSE(filtered.empty());
  ASSERT_LT(filtered.size(), full.size());

  // Every filtered line appears in the full journal, in the same order —
  // a byte-exact subsequence (seq numbers are allocated before filtering).
  std::size_t pos = 0;
  std::size_t start = 0;
  while (start < filtered.size()) {
    std::size_t end = filtered.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = filtered.substr(start, end - start + 1);
    const std::size_t found = full.find(line, pos);
    ASSERT_NE(found, std::string::npos) << line;
    pos = found + line.size();
    start = end + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogJournalTest, ::testing::Values(7u, 23u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
