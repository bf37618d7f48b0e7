#include "tls/pinning.h"

#include <algorithm>

#include "util/base64.h"
#include "util/error.h"
#include "util/strings.h"

namespace pinscope::tls {

std::string_view PinFormName(PinForm f) {
  switch (f) {
    case PinForm::kSpkiSha256: return "spki-sha256";
    case PinForm::kSpkiSha1: return "spki-sha1";
    case PinForm::kCertificate: return "certificate";
    case PinForm::kPublicKey: return "public-key";
  }
  throw util::Error("unknown PinForm");
}

bool Pin::Matches(const x509::Certificate& cert) const {
  switch (form) {
    case PinForm::kSpkiSha256: {
      const auto d = cert.SpkiSha256();
      return material == util::Bytes(d.begin(), d.end());
    }
    case PinForm::kSpkiSha1: {
      const auto d = cert.SpkiSha1();
      return material == util::Bytes(d.begin(), d.end());
    }
    case PinForm::kCertificate: {
      const auto d = cert.FingerprintSha256();
      return material == util::Bytes(d.begin(), d.end());
    }
    case PinForm::kPublicKey:
      return material == cert.spki();
  }
  return false;
}

Pin Pin::ForCertificate(const x509::Certificate& cert, PinForm form) {
  Pin pin;
  pin.form = form;
  switch (form) {
    case PinForm::kSpkiSha256: {
      const auto d = cert.SpkiSha256();
      pin.material.assign(d.begin(), d.end());
      break;
    }
    case PinForm::kSpkiSha1: {
      const auto d = cert.SpkiSha1();
      pin.material.assign(d.begin(), d.end());
      break;
    }
    case PinForm::kCertificate: {
      const auto d = cert.FingerprintSha256();
      pin.material.assign(d.begin(), d.end());
      break;
    }
    case PinForm::kPublicKey:
      pin.material = cert.spki();
      break;
  }
  return pin;
}

std::string Pin::ToPinString() const {
  switch (form) {
    case PinForm::kSpkiSha1:
      return "sha1/" + util::Base64Encode(material);
    case PinForm::kSpkiSha256:
      return "sha256/" + util::Base64Encode(material);
    case PinForm::kCertificate:
      return "sha256/" + util::Base64Encode(material);
    case PinForm::kPublicKey: {
      const auto d = crypto::Sha256(material);
      return "sha256/" + util::Base64Encode(util::Bytes(d.begin(), d.end()));
    }
  }
  throw util::Error("unknown PinForm");
}

PinDigest DecodePinString(std::string_view s) {
  PinDigest digest;
  std::string_view body;
  if (util::StartsWith(s, "sha256/")) {
    digest.form = PinForm::kSpkiSha256;
    body = s.substr(7);
  } else if (util::StartsWith(s, "sha1/")) {
    digest.form = PinForm::kSpkiSha1;
    body = s.substr(5);
  } else {
    return digest;
  }
  const std::size_t want = digest.form == PinForm::kSpkiSha256 ? 32 : 20;
  // A body longer than 32 bytes does not fit and is rejected unwritten; a
  // malformed pin carries no partial digest.
  if (util::Base64DecodeTo(body, digest.bytes) != want) return {};
  digest.size = static_cast<std::uint8_t>(want);
  return digest;
}

std::optional<Pin> Pin::FromPinString(std::string_view s) {
  const PinDigest digest = DecodePinString(s);
  if (!digest.ok()) return std::nullopt;
  Pin pin;
  pin.form = digest.form;
  pin.material.assign(digest.material().begin(), digest.material().end());
  return pin;
}

bool DomainPinRule::AppliesTo(std::string_view hostname) const {
  if (x509::HostnameMatchesPattern(hostname, pattern)) return true;
  if (include_subdomains) {
    // NSC semantics: the rule domain itself plus any depth of subdomains.
    if (hostname == pattern) return true;
    return util::EndsWith(hostname, "." + pattern);
  }
  return false;
}

void PinPolicy::AddRule(DomainPinRule rule) {
  // Dedupe within the rule once at insertion (first occurrence kept), so
  // per-connection evaluation never re-runs the quadratic scan.
  std::vector<Pin> unique;
  unique.reserve(rule.pins.size());
  for (Pin& pin : rule.pins) {
    if (std::find(unique.begin(), unique.end(), pin) == unique.end()) {
      unique.push_back(std::move(pin));
    }
  }
  rule.pins = std::move(unique);
  rules_.push_back(std::move(rule));
}

std::vector<Pin> PinPolicy::PinsFor(std::string_view hostname) const {
  // Fast path: a single applicable rule needs no cross-rule union — its pin
  // list is already deduplicated (AddRule). This is the overwhelmingly
  // common shape: one DomainPinRule per pinned destination.
  const DomainPinRule* only = nullptr;
  bool multiple = false;
  for (const DomainPinRule& rule : rules_) {
    if (!rule.AppliesTo(hostname)) continue;
    if (only != nullptr) {
      multiple = true;
      break;
    }
    only = &rule;
  }
  if (!multiple) return only != nullptr ? only->pins : std::vector<Pin>{};

  std::vector<Pin> out;
  for (const DomainPinRule& rule : rules_) {
    if (!rule.AppliesTo(hostname)) continue;
    for (const Pin& pin : rule.pins) {
      if (std::find(out.begin(), out.end(), pin) == out.end()) out.push_back(pin);
    }
  }
  return out;
}

bool PinPolicy::IsPinned(std::string_view hostname) const {
  // No pin-set materialization: pinned iff some applicable rule carries pins.
  for (const DomainPinRule& rule : rules_) {
    if (!rule.pins.empty() && rule.AppliesTo(hostname)) return true;
  }
  return false;
}

bool PinPolicy::Evaluate(std::string_view hostname,
                         const x509::CertificateChain& chain) const {
  // Match straight off the rules — no union vector per connection. A pin
  // duplicated across rules is matched at most twice, which is cheaper than
  // deduplicating on every evaluation.
  bool pinned = false;
  for (const DomainPinRule& rule : rules_) {
    if (rule.pins.empty() || !rule.AppliesTo(hostname)) continue;
    pinned = true;
    for (const Pin& pin : rule.pins) {
      for (const x509::Certificate& cert : chain) {
        if (pin.Matches(cert)) return true;
      }
    }
  }
  return !pinned;
}

}  // namespace pinscope::tls
