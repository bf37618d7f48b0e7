// Canonical study exports: the per-app JSON Lines dataset and the
// per-destination CSV the paper's artifact releases.
//
// Both serializations iterate platforms in a fixed order and apps in
// universe-index order, so the bytes depend only on the study's results —
// never on thread count or completion order. The golden digests in
// tests/golden/ pin that property (tests/core/sched_equivalence_test.cc).
#pragma once

#include <string>
#include <vector>

#include "core/study.h"
#include "report/run_report.h"

namespace pinscope::core {

/// One JSON object per analyzed app (JSON Lines), Android first, ascending
/// universe index within a platform.
[[nodiscard]] std::string ExportStudyJson(const Study& study);

/// One CSV row per (app, destination) pair, with a header row; same ordering
/// as the JSON export.
[[nodiscard]] std::string ExportStudyCsv(const Study& study);

/// Per-app verdict rows in export order — the input to the run-report
/// generator (report/run_report.h). Mirrors ExportStudyJson field for field.
[[nodiscard]] std::vector<report::AppVerdict> CollectAppVerdicts(
    const Study& study);

// --- Per-app building blocks ------------------------------------------------
// The streaming exporter (core/stream_export.h) renders each app's rows with
// these the moment its verdict lands; the study exports above are that
// exporter's ordered replays.

/// One app's JSON Lines record, including the trailing newline.
[[nodiscard]] std::string AppResultJsonLine(const AppResult& r,
                                            appmodel::Platform p);

/// The CSV header shared by ExportStudyCsv and the streaming exporter.
[[nodiscard]] std::vector<std::string> StudyCsvHeader();

/// One app's CSV rows (one per destination), unescaped field values.
[[nodiscard]] std::vector<std::vector<std::string>> AppResultCsvRows(
    const AppResult& r, appmodel::Platform p);

/// One app's run-report verdict row.
[[nodiscard]] report::AppVerdict AppResultVerdict(const AppResult& r,
                                                  appmodel::Platform p);

}  // namespace pinscope::core
