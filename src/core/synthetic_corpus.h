// Procedurally generated streaming corpora for benchmarks and scale tests.
//
// The calibrated generator (store/generator.h) materializes its whole
// universe — exactly what the streaming path exists to avoid — so the memory
// benchmark needs a corpus whose apps can be built one at a time from
// nothing but (seed, platform, index). SyntheticCorpusSource is that: a
// small fixed ServerWorld plus a pure per-index app factory. It makes no
// attempt to match the paper's calibrated distributions; it exists to let
// a stream hydrate 100k apps without 100k apps ever coexisting, and to
// construct warm-vs-cold corpora with controllable scan cost.
//
// Two content regimes, chosen per config:
//  - Shared payload (unique_payload = false): every app ships the same
//    filler blob — the duplicated-SDK shape. At the default 4 KiB the blob
//    is below kScanCacheMinBytes, so the scan cache never admits it. Used
//    for the flat-RSS sweep.
//  - Unique payload (unique_payload = true): each index's blob starts with a
//    per-index line, so every index has a distinct content digest. The
//    platform plays no part: the Android and iOS app of one index ship the
//    same blob, so the in-run cache hits on the second of the two, and a
//    persisted cache from a previous run over the same corpus hits every
//    file. Stack
//    `pem_certs_in_payload` PEM blocks into the blob to make each cold scan
//    arbitrarily expensive (every block is found, parsed, and
//    fingerprinted). Used for the warm-vs-cold benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/corpus_source.h"

namespace pinscope::core {

struct SyntheticCorpusConfig {
  std::uint64_t seed = 7;
  std::size_t apps_per_platform = 100;
  std::size_t hosts = 8;  ///< Shared destination pool (apps rotate through).
  std::size_t payload_bytes = 4096;  ///< Filler blob size per app.
  bool unique_payload = false;
  std::size_t pem_certs_in_payload = 0;
  /// Per-app count of small `.pem` cert files, each with a unique comment
  /// line ahead of the PEM block: unique content digest, identical parse.
  std::size_t cert_files_per_app = 0;
  /// Distinct "sha256/<base64>" pin strings baked into the payload. Pin-hit
  /// handling (match + base64 decode per hit) is the one scan cost that
  /// dwarfs the cache-key digest, so pin-dense payloads are where a warm
  /// start wins: the persisted scan cache replaces every per-hit parse with
  /// one digest lookup.
  std::size_t pin_strings_in_payload = 0;
};

class SyntheticCorpusSource final : public CorpusSource {
 public:
  explicit SyntheticCorpusSource(const SyntheticCorpusConfig& config);

  [[nodiscard]] const appmodel::ServerWorld& world() const override {
    return world_;
  }
  [[nodiscard]] const x509::CtLog& ct_log() const override { return ct_log_; }
  [[nodiscard]] std::vector<std::size_t> Indices(
      appmodel::Platform p) const override;
  [[nodiscard]] appmodel::App Hydrate(appmodel::Platform p,
                                      std::size_t index) const override;
  [[nodiscard]] bool NeedsCommonIosSettle(std::size_t) const override {
    return false;
  }

 private:
  [[nodiscard]] const std::string& HostFor(std::size_t index) const;
  [[nodiscard]] std::string PayloadFor(std::size_t index) const;

  SyntheticCorpusConfig config_;
  appmodel::ServerWorld world_;
  x509::CtLog ct_log_;
  std::vector<std::string> hostnames_;
  std::string pem_block_;  ///< One pre-rendered PEM cert, stacked per config.
};

}  // namespace pinscope::core
