// Study-scoped simulation fixtures (DESIGN.md §10).
//
// One study runs the dynamic pipeline for hundreds of apps, and before this
// layer existed every per-app invocation rebuilt the same immutable state
// from scratch: the proxy CA keypair, the platform root stores (copied
// twice per device), and a private forged-leaf cache that never got to
// amortize anything across apps. SimFixtures hoists all of it to study
// scope:
//
//   - one MitmProxy whose forged-leaf cache is shared by every app and
//     worker thread (sound because forged bytes depend only on the study
//     seed and the hostname — see net/mitm_proxy.h);
//   - immutable, shared_ptr-held root stores per platform (app-visible
//     store with the proxy CA installed, OS-service store without it);
//   - one sharded chain-validation memo consulted by every simulated
//     connection (see x509/validation_cache.h).
//
// Everything here is either immutable after construction or internally
// synchronized, so a single SimFixtures may serve all study worker threads.
// The caches are unobservable: study exports are byte-identical with and
// without fixtures.
#pragma once

#include <cstdint>
#include <memory>

#include "appmodel/app.h"
#include "dynamicanalysis/device.h"
#include "net/mitm_proxy.h"
#include "x509/root_store.h"
#include "x509/validation_cache.h"

namespace pinscope::dynamicanalysis {

/// Shared immutable fixtures + memo caches for one study's dynamic runs.
class SimFixtures {
 public:
  /// Builds fixtures for a study with the given pipeline seed (must match
  /// DynamicOptions::seed, or forged leaves will differ from what an
  /// unshared pipeline would produce).
  explicit SimFixtures(std::uint64_t seed = net::MitmProxy::kDefaultSeed);

  SimFixtures(const SimFixtures&) = delete;
  SimFixtures& operator=(const SimFixtures&) = delete;

  /// The study's shared intercepting proxy.
  [[nodiscard]] const net::MitmProxy& proxy() const { return *proxy_; }

  /// A device for `platform` that adopts the shared stores — cheap to make
  /// per app (two shared_ptr copies instead of two root-store copies).
  [[nodiscard]] DeviceEmulator MakeDevice(appmodel::Platform platform) const;

  /// The shared chain-validation memo (thread-safe).
  [[nodiscard]] x509::ValidationCache* validation_cache() const {
    return validation_cache_.get();
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Binds both shared caches' shard locks to the `lock.forged_leaf_cache.*`
  /// and `lock.validation_cache.*` metric families (obs/mutex.h), which the
  /// run autopsy's lock-wait attribution consumes. Null-safe; call before
  /// the study fans out across workers.
  void AttachMetrics(obs::MetricsRegistry* metrics) const {
    proxy_->forged_cache()->AttachMetrics(metrics, "forged_leaf_cache");
    validation_cache_->AttachMetrics(metrics, "validation_cache");
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<net::MitmProxy> proxy_;
  /// App-visible stores (catalog roots + the proxy CA).
  std::shared_ptr<const x509::RootStore> android_system_;
  std::shared_ptr<const x509::RootStore> ios_system_;
  /// OS-service stores (catalog roots only — user CAs are ignored).
  std::shared_ptr<const x509::RootStore> android_os_service_;
  std::shared_ptr<const x509::RootStore> ios_os_service_;
  std::unique_ptr<x509::ValidationCache> validation_cache_;
};

}  // namespace pinscope::dynamicanalysis
