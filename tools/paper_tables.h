// The paper run: every table, figure, text claim and ablation of the paper's
// evaluation, derived from one finished Study and printed as one JSON Lines
// document. `pinscope tables` prints it, EXPERIMENTS.md quotes it, and
// tests/golden/paper_tables_seed42.jsonl locks it.
#pragma once

#include <string>

#include "core/study.h"

namespace pinscope::paper {

/// One JSON object per line, in this order, each led by its "record" key:
/// section3, table1 … table9, section5_3, circumvention, fig2 … fig5,
/// sleep_time, ablation_detectors, ablation_interaction, ablation_tls13.
/// Counts are integers; percentages, averages and test statistics are
/// printed at fixed digits, so equal studies give equal bytes. Lists are
/// whole, never truncated. The experiments beyond the study (the §4.2.2 SNI
/// sample, the sleep-time sweep, the Spinner probes, the interaction runs
/// and the naive TLS 1.3 rule) rerun the simulated device with fixed seeds,
/// so the document is a pure function of the study.
[[nodiscard]] std::string PaperTablesJsonl(const core::Study& study);

}  // namespace pinscope::paper
