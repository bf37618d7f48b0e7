// Shared hand-built fixtures for dynamic-analysis and integration tests:
// a small server world plus apps with known pinning behaviour — independent
// of the corpus generator, so unit tests do not depend on calibration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "appmodel/app.h"
#include "appmodel/server_world.h"
#include "staticanalysis/scanner.h"
#include "store/generator.h"
#include "tls/pinning.h"
#include "util/bytes.h"

namespace pinscope::testing {

/// The shared small-corpus builder every study-level suite uses: a generated
/// ecosystem of roughly `n_apps` apps spanning both platforms and all six
/// datasets, built by the real calibrated generator. Cached per (seed,
/// n_apps) for the process lifetime so a suite shares one generation instead
/// of each test regenerating an ecosystem. Not thread-safe to *populate*:
/// call first from a single-threaded context (gtest runs tests serially).
inline const store::Ecosystem& MakeStudyCorpus(std::uint64_t seed,
                                               std::size_t n_apps = 16) {
  static std::map<std::pair<std::uint64_t, std::size_t>, store::Ecosystem>
      cache;
  const auto key = std::make_pair(seed, n_apps);
  auto it = cache.find(key);
  if (it == cache.end()) {
    store::EcosystemConfig config;
    config.seed = seed;
    // The paper-scale corpus holds ≈5.3k apps, so scale ≈ n_apps / 5333.
    // The default 16 reproduces the classic 0.3% mini corpus: 1-2 common
    // pairs plus a few popular and random apps per platform — the smallest
    // scale at which every dataset is still populated.
    config.scale = static_cast<double>(n_apps) / 5333.0;
    it = cache.emplace(key, store::Ecosystem::Generate(config)).first;
  }
  return it->second;
}

/// The classic 16-app mini corpus (kept as a named shorthand; see
/// MakeStudyCorpus for the cache semantics).
inline const store::Ecosystem& MiniCorpus(std::uint64_t seed = 7) {
  return MakeStudyCorpus(seed, 16);
}

/// `text` plus a newline and evidence-free lines (no `sha`, no PEM marker),
/// at least staticanalysis::kScanCacheMinBytes long: the scan cache admits
/// the file, and every match and offset in `text` stays where it was.
inline std::string Cacheable(std::string text) {
  text += '\n';
  while (text.size() < staticanalysis::kScanCacheMinBytes) {
    text += "padding, no evidence here\n";
  }
  return text;
}

/// `bytes` followed by NULs, which join no printable run, up to
/// staticanalysis::kScanCacheMinBytes.
inline util::Bytes Cacheable(util::Bytes bytes) {
  if (bytes.size() < staticanalysis::kScanCacheMinBytes) {
    bytes.resize(staticanalysis::kScanCacheMinBytes, 0);
  }
  return bytes;
}

/// A world with a handful of servers an app under test can contact.
inline appmodel::ServerWorld MakeWorld(std::uint64_t seed = 99) {
  appmodel::ServerWorld world(seed);
  world.EnsureDefaultPki("api.fixture.com", "fixture");
  world.EnsureDefaultPki("www.fixture.com", "fixture");
  world.EnsureDefaultPki("tracker.ads.com", "adcorp");
  world.EnsureDefaultPki("cdn.assets.net", "assetco");
  return world;
}

/// A pin for the root of `host`'s served chain.
inline tls::Pin RootPinFor(const appmodel::ServerWorld& world,
                           const std::string& host) {
  return tls::Pin::ForCertificate(world.Find(host)->endpoint.chain.back(),
                                  tls::PinForm::kSpkiSha256);
}

/// Base metadata for a fixture app.
inline appmodel::AppMetadata FixtureMeta(appmodel::Platform platform) {
  appmodel::AppMetadata meta;
  meta.platform = platform;
  meta.app_id = platform == appmodel::Platform::kAndroid ? "com.fixture.app"
                                                         : "com.fixture.ios";
  meta.display_name = "Fixture";
  meta.category = "Finance";
  meta.developer_org = "fixture";
  return meta;
}

/// An app that pins api.fixture.com (hookable stack) and talks, unpinned,
/// to tracker.ads.com.
inline appmodel::App MakePinningApp(const appmodel::ServerWorld& world,
                                    appmodel::Platform platform) {
  appmodel::App app;
  app.meta = FixtureMeta(platform);

  appmodel::DestinationBehavior pinned;
  pinned.hostname = "api.fixture.com";
  pinned.pinned = true;
  pinned.pins = {RootPinFor(world, "api.fixture.com")};
  pinned.stack = platform == appmodel::Platform::kAndroid
                     ? tls::TlsStack::kOkHttp
                     : tls::TlsStack::kNsUrlSession;
  pinned.payload_template = "POST /login token={{ad_id}}";
  app.behavior.destinations.push_back(pinned);

  appmodel::DestinationBehavior tracker;
  tracker.hostname = "tracker.ads.com";
  tracker.payload_template = "GET /pixel?id={{ad_id}}";
  app.behavior.destinations.push_back(tracker);

  return app;
}

/// An app with no pinning at all.
inline appmodel::App MakePlainApp(const appmodel::ServerWorld& world,
                                  appmodel::Platform platform) {
  (void)world;
  appmodel::App app;
  app.meta = FixtureMeta(platform);
  appmodel::DestinationBehavior d;
  d.hostname = "www.fixture.com";
  d.payload_template = "GET / HTTP/1.1";
  app.behavior.destinations.push_back(d);
  return app;
}

}  // namespace pinscope::testing
