// The study driver (DESIGN.md §15).
//
// Every study runs through RunStreamingStudy: apps are pulled one at a time
// from a CorpusSource (hydrate → static → dynamic → verdict per-item chains
// over the barrier-free scheduler, util/pipeline_scheduler.h), each app's
// payload is freed the moment its verdict lands, and results leave through
// a StreamExporter as serialized rows and through StudyOptions::on_result.
// Peak hydrated-app memory is bounded by the scheduler's in-flight window
// (workers + queue depth), independent of corpus size. Study
// (core/study.h) is the materialized view: it runs this driver over an
// EcosystemCorpusSource and keeps every result.
//
// Determinism: stage bodies touch only per-item state, every RNG derives
// from the study seed + app identity, the journal orders by logical keys,
// and the exporter replays rows in the batch export order — so exports,
// journal, and run reports are byte-identical across thread counts, queue
// depths, cache settings, and completion orders, and match the golden
// digests in tests/golden/ (tests/core/sched_equivalence_test.cc,
// tests/core/stream_equivalence_test.cc).
#pragma once

#include <cstddef>

#include "core/corpus_source.h"
#include "core/stream_export.h"
#include "core/study.h"

namespace pinscope::core {

/// Aggregate outcome of one streaming run.
struct StreamStudyResult {
  std::size_t apps = 0;      ///< Results delivered (including failed apps).
  std::size_t failures = 0;  ///< Apps whose chain recorded a stage failure.
};

/// Streams every app of `source` through the four-stage chain, delivering
/// results to `exporter` (and options.on_result) as chains complete.
StreamStudyResult RunStreamingStudy(const CorpusSource& source,
                                    const StudyOptions& options,
                                    StreamExporter& exporter);

}  // namespace pinscope::core
