#include "core/synthetic_corpus.h"

#include <string>
#include <utility>

#include "appmodel/android_package.h"
#include "appmodel/ios_package.h"
#include "tls/pinning.h"
#include "x509/pem.h"

namespace pinscope::core {

SyntheticCorpusSource::SyntheticCorpusSource(const SyntheticCorpusConfig& config)
    : config_(config), world_(config.seed) {
  const std::size_t hosts = config_.hosts == 0 ? 1 : config_.hosts;
  hostnames_.reserve(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    const std::string hostname = "svc" + std::to_string(h) + ".stream.test";
    world_.EnsureDefaultPki(hostname, "org-stream-" + std::to_string(h));
    hostnames_.push_back(hostname);
  }
  world_.ExportToCtLog(ct_log_);
  if (config_.pem_certs_in_payload > 0 || config_.cert_files_per_app > 0) {
    pem_block_ =
        x509::PemEncode(world_.Find(hostnames_[0])->endpoint.chain[0]) + "\n";
  }
}

std::vector<std::size_t> SyntheticCorpusSource::Indices(
    appmodel::Platform) const {
  std::vector<std::size_t> indices(config_.apps_per_platform);
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  return indices;
}

const std::string& SyntheticCorpusSource::HostFor(std::size_t index) const {
  return hostnames_[index % hostnames_.size()];
}

std::string SyntheticCorpusSource::PayloadFor(std::size_t index) const {
  std::string payload;
  if (config_.unique_payload) {
    // A distinct first line gives every index a distinct content digest.
    // Both platforms' apps of one index share it, so the in-run cache dedups
    // only that pair; across indices only a *persisted* cache can.
    payload += "corpus-" + std::to_string(index) + "\n";
  }
  for (std::size_t c = 0; c < config_.pem_certs_in_payload; ++c) {
    payload += pem_block_;
  }
  // Distinct, well-formed pins: cheap to emit, expensive to re-parse.
  tls::Pin pin;
  pin.form = tls::PinForm::kSpkiSha256;
  pin.material.resize(32);
  for (std::size_t n = 0; n < config_.pin_strings_in_payload; ++n) {
    std::uint64_t x = (static_cast<std::uint64_t>(index) << 24) ^ n;
    for (std::size_t b = 0; b < pin.material.size(); ++b) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      pin.material[b] = static_cast<std::uint8_t>(x >> 56);
    }
    payload += pin.ToPinString();
    payload += "\n";
  }
  while (payload.size() < config_.payload_bytes) {
    payload += "stream-filler-payload-0123456789abcdef\n";
  }
  return payload;
}

appmodel::App SyntheticCorpusSource::Hydrate(appmodel::Platform p,
                                             std::size_t index) const {
  const bool android = p == appmodel::Platform::kAndroid;
  util::Rng rng = util::Rng(config_.seed)
                      .Fork("stream:" + std::string(PlatformName(p)) + ":" +
                            std::to_string(index));

  appmodel::App app;
  app.meta.app_id = (android ? "stream.android.a" : "com.stream.ios.a") +
                    std::to_string(index);
  app.meta.display_name = "Stream App " + std::to_string(index);
  app.meta.platform = p;
  app.meta.category = "Tools";
  app.meta.developer_org = "org-stream-" + std::to_string(index % hostnames_.size());
  app.meta.popularity_rank = static_cast<int>(index) + 1;

  const std::string& host = HostFor(index);
  const bool pinned = index % 2 == 0;
  const tls::Pin pin = tls::Pin::ForCertificate(
      world_.Find(host)->endpoint.chain[0], tls::PinForm::kSpkiSha256);

  appmodel::DestinationBehavior dest;
  dest.hostname = host;
  dest.pinned = pinned;
  if (pinned) dest.pins = {pin};
  dest.stack = android ? tls::TlsStack::kOkHttp : tls::TlsStack::kNsUrlSession;
  app.behavior.destinations.push_back(std::move(dest));

  const std::string payload = PayloadFor(index);
  // Each cert file's digest is unique to (platform, index, file) via the
  // comment line PemDecode skips over, so only a persisted scan cache can
  // dedup the parses across runs.
  auto cert_file = [&](std::size_t c) {
    return "# stream-" + std::string(PlatformName(p)) + "-" +
           std::to_string(index) + "-cert-" + std::to_string(c) + "\n" +
           pem_block_;
  };
  if (android) {
    appmodel::AndroidPackageBuilder builder(app.meta);
    if (pinned) {
      appmodel::NscDomainConfig nsc;
      nsc.domain = host;
      nsc.pin_strings = {pin.ToPinString()};
      builder.WithNsc({std::move(nsc)});
    }
    builder.AddSmaliString("com/stream/net", "HttpClient.smali", host);
    builder.AddAsset("assets/payload.bin", payload);
    for (std::size_t c = 0; c < config_.cert_files_per_app; ++c) {
      builder.AddAsset("assets/certs/c" + std::to_string(c) + ".pem",
                       cert_file(c));
    }
    app.package = builder.Build();
  } else {
    appmodel::IosPackageBuilder builder(app.meta);
    builder.AddMainBinaryString(host);
    if (pinned) builder.AddMainBinaryString(pin.ToPinString());
    builder.AddResource("payload.bin", payload);
    for (std::size_t c = 0; c < config_.cert_files_per_app; ++c) {
      builder.AddResource("certs/c" + std::to_string(c) + ".pem",
                          cert_file(c));
    }
    app.package = builder.Build(rng);
  }
  return app;
}

}  // namespace pinscope::core
