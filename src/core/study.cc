#include "core/study.h"

#include <mutex>
#include <utility>

#include "core/corpus_source.h"
#include "core/stream_export.h"
#include "core/stream_study.h"
#include "util/error.h"

namespace pinscope::core {

Study::Study(const store::Ecosystem& eco, StudyOptions options)
    : eco_(&eco),
      options_(std::move(options)),
      exporter_(std::make_unique<StreamExporter>()) {}

Study::Study(Study&&) noexcept = default;
Study::~Study() = default;

void Study::Run() {
  android_results_.clear();
  ios_results_.clear();
  exporter_ = std::make_unique<StreamExporter>();

  // The sink runs on worker threads, last in each app's verdict stage. It
  // takes the result by move (no deep copy) and rebinds `app` from the
  // hydrated copy, which dies with the stream payload, to the ecosystem's.
  std::mutex mu;
  StudyOptions run_options = options_;
  run_options.on_result = [this, &mu](AppResult&& r) {
    const appmodel::Platform p = r.app->meta.platform;
    r.app = &eco_->apps(p)[r.universe_index];
    if (options_.on_result) options_.on_result(AppResult(r));
    const std::lock_guard<std::mutex> lock(mu);
    auto& results =
        p == appmodel::Platform::kAndroid ? android_results_ : ios_results_;
    results.insert_or_assign(r.universe_index, std::move(r));
  };
  (void)RunStreamingStudy(EcosystemCorpusSource(*eco_), run_options,
                          *exporter_);
}

const AppResult& Study::result(appmodel::Platform p, std::size_t universe_index) const {
  const auto& results =
      p == appmodel::Platform::kAndroid ? android_results_ : ios_results_;
  const auto it = results.find(universe_index);
  if (it == results.end()) throw util::Error("Study::result: app not analyzed");
  return it->second;
}

std::vector<const AppResult*> Study::DatasetResults(store::DatasetId id,
                                                    appmodel::Platform p) const {
  std::vector<const AppResult*> out;
  for (std::size_t idx : eco_->dataset(id, p).app_indices) {
    out.push_back(&result(p, idx));
  }
  return out;
}

std::vector<const AppResult*> Study::AllResults(appmodel::Platform p) const {
  const auto& results =
      p == appmodel::Platform::kAndroid ? android_results_ : ios_results_;
  std::vector<const AppResult*> out;
  out.reserve(results.size());
  for (const auto& [_, r] : results) out.push_back(&r);
  return out;
}

}  // namespace pinscope::core
