// Shared setup for the table/figure reproduction harnesses.
//
// Every bench binary regenerates the ecosystem and runs the full measurement
// study, then prints paper-reported vs. measured values. The corpus scale is
// 1.0 (the paper's 5,079 apps) by default; set PINSCOPE_SCALE to trade
// fidelity for speed (e.g. PINSCOPE_SCALE=0.2).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/analyses.h"
#include "core/study.h"
#include "report/table.h"
#include "store/generator.h"
#include "util/strings.h"

namespace pinscope::bench {

inline double CorpusScale() {
  if (const char* env = std::getenv("PINSCOPE_SCALE")) {
    const double scale = std::atof(env);
    if (scale > 0.0 && scale <= 1.0) return scale;
  }
  return 1.0;
}

/// Worker threads for the shared study. Defaults to every hardware thread;
/// set PINSCOPE_THREADS=1 for a serial run. Any value produces the same
/// tables — the study is thread-count invariant.
inline int StudyThreads() {
  if (const char* env = std::getenv("PINSCOPE_THREADS")) {
    const int threads = std::atoi(env);
    if (threads >= 0) return threads;
  }
  return 0;
}

/// The shared (per-process) study: generated once, analyzed once.
inline const core::Study& GetStudy() {
  static const std::unique_ptr<core::Study> study = [] {
    store::EcosystemConfig config;
    config.seed = 42;
    config.scale = CorpusScale();
    std::fprintf(stderr, "[pinscope] generating ecosystem (scale %.2f)...\n",
                 config.scale);
    static store::Ecosystem eco = store::Ecosystem::Generate(config);
    core::StudyOptions opts;
    opts.threads = StudyThreads();
    std::fprintf(stderr, "[pinscope] running measurement pipeline (threads %d)...\n",
                 opts.threads);
    auto s = std::make_unique<core::Study>(eco, opts);
    s->Run();
    std::fprintf(stderr, "[pinscope] analysis ready.\n");
    return s;
  }();
  return *study;
}

/// "n (p%)" cell helper.
inline std::string CountPct(int count, int total) {
  if (total == 0) return "0";
  return util::Percent(static_cast<double>(count) / total, 2) + " (" +
         std::to_string(count) + ")";
}

}  // namespace pinscope::bench
