// Golden study digests: the oracle every study configuration is checked
// against. tests/golden/study_seed<N>.sha256 holds the SHA-256 of each
// artifact a MakeStudyCorpus(N) study externalizes — JSON export, CSV
// export, kDebug decision journal, and the run report (Markdown + JSON) —
// one "<artifact> <hex digest>" line each. The digests were recorded once
// and never change with thread count, queue depth, cache settings, or SIMD
// tier; a diff in any of them is a behaviour change, not noise.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/corpus_source.h"
#include "core/export.h"
#include "core/stream_export.h"
#include "core/stream_study.h"
#include "core/study.h"
#include "crypto/sha256.h"
#include "obs/obs.h"
#include "report/run_report.h"
#include "store/generator.h"
#include "util/hex.h"

namespace pinscope::testing {

/// Everything a study run externalizes, as bytes.
struct StudyArtifacts {
  std::string json;
  std::string csv;
  std::string journal;
  std::string report_md;
  std::string report_json;
};

/// Fills the journal and run-report artifacts from the study's verdicts and
/// its journal. The report is built from those deterministic sources only:
/// the wall-clock metrics section describes the run, not its results.
inline void AddJournalAndReport(StudyArtifacts& out,
                                std::vector<report::AppVerdict> verdicts,
                                const obs::EventLog& log) {
  out.journal = log.ToJsonl();
  const std::vector<obs::LogEvent> events = log.SortedEvents();
  report::RunReportInput input;
  input.verdicts = std::move(verdicts);
  input.events = &events;
  out.report_md = report::WriteRunReportMarkdown(input);
  out.report_json = report::WriteRunReportJson(input);
}

/// Runs `source` through RunStreamingStudy with a row-retaining exporter,
/// with a kDebug journal attached to `options.observer` (a local observer
/// when null) for the duration of the run, and returns what it
/// externalized.
inline StudyArtifacts RunStreamedArtifacts(const core::CorpusSource& source,
                                           core::StudyOptions options) {
  obs::Observer local_observer;
  if (options.observer == nullptr) options.observer = &local_observer;
  obs::Observer& observer = *options.observer;
  obs::EventLog log(obs::Severity::kDebug);
  observer.set_log(&log);

  StudyArtifacts out;
  core::StreamExporter exporter;
  (void)core::RunStreamingStudy(source, options, exporter);
  out.json = exporter.FinishJson();
  out.csv = exporter.FinishCsv();
  AddJournalAndReport(out, exporter.FinishVerdicts(), log);
  observer.set_log(nullptr);
  return out;
}

/// Runs `eco` through Study::Run (`streamed` false) or straight through
/// RunStreamingStudy (`streamed` true, see RunStreamedArtifacts), with a
/// kDebug journal attached to `options.observer` (a local observer when
/// null) for the duration of the run, and returns what it externalized.
inline StudyArtifacts RunStudyArtifacts(const store::Ecosystem& eco,
                                        core::StudyOptions options,
                                        bool streamed) {
  if (streamed) {
    return RunStreamedArtifacts(core::EcosystemCorpusSource(eco), options);
  }
  obs::Observer local_observer;
  if (options.observer == nullptr) options.observer = &local_observer;
  obs::Observer& observer = *options.observer;
  obs::EventLog log(obs::Severity::kDebug);
  observer.set_log(&log);

  StudyArtifacts out;
  core::Study study(eco, options);
  study.Run();
  out.json = core::ExportStudyJson(study);
  out.csv = core::ExportStudyCsv(study);
  AddJournalAndReport(out, core::CollectAppVerdicts(study), log);
  observer.set_log(nullptr);
  return out;
}

/// The golden-file text for `artifacts`.
inline std::string DigestLines(const StudyArtifacts& artifacts) {
  const std::pair<const char*, const std::string*> named[] = {
      {"json", &artifacts.json},
      {"csv", &artifacts.csv},
      {"journal", &artifacts.journal},
      {"report_md", &artifacts.report_md},
      {"report_json", &artifacts.report_json},
  };
  std::string out;
  for (const auto& [name, bytes] : named) {
    out += std::string(name) + " " +
           util::HexEncode(crypto::ToBytes(crypto::Sha256(*bytes))) + "\n";
  }
  return out;
}

/// The committed digests for `seed`. A missing file fails the calling test
/// (and returns "", which matches no study).
inline std::string ReadStudyGolden(std::uint64_t seed) {
  const std::string path = std::string(PINSCOPE_GOLDEN_DIR) + "/study_seed" +
                           std::to_string(seed) + ".sha256";
  std::ifstream in(path);
  if (!in) {
    ADD_FAILURE() << "missing golden digest file " << path;
    return {};
  }
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace pinscope::testing
