// Pin representation and evaluation.
//
// §2.1: a pinned certificate is a developer-specified certificate that must be
// present in the served chain. Pins come in several on-disk forms (whole
// certificate, SPKI SHA-1/SHA-256 hash, raw public key); all are matched
// against *any* element of the chain (leaf, intermediate, or root).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "util/bytes.h"
#include "x509/certificate.h"

namespace pinscope::tls {

/// How a pin is expressed in app code/metadata.
enum class PinForm {
  kSpkiSha256,   ///< "sha256/<base64>" — NSC, OkHttp, HPKP syntax.
  kSpkiSha1,     ///< "sha1/<base64>" — legacy syntax.
  kCertificate,  ///< Full certificate embedded (DER/PEM fingerprint match).
  kPublicKey,    ///< Raw SubjectPublicKeyInfo comparison.
};

/// Name of a pin form (for reports).
[[nodiscard]] std::string_view PinFormName(PinForm f);

/// The digest a "sha256/<base64>" or "sha1/<base64>" pin string decodes to,
/// held inline: a flat value that records can embed and copy without a heap
/// buffer.
struct PinDigest {
  std::array<std::uint8_t, 32> bytes{};
  /// 32 for sha256/, 20 for sha1/; 0 when the string does not decode.
  std::uint8_t size = 0;
  PinForm form = PinForm::kSpkiSha256;  ///< kSpkiSha256 or kSpkiSha1.

  [[nodiscard]] bool ok() const { return size != 0; }
  /// The decoded digest: the `material` of the equivalent Pin.
  [[nodiscard]] std::span<const std::uint8_t> material() const {
    return {bytes.data(), size};
  }
};

/// The one pin-string decoder: parses "sha256/<base64>" / "sha1/<base64>"
/// without allocating. The result is not ok() on any malformed input
/// (unknown prefix, bad base64, wrong digest length).
[[nodiscard]] PinDigest DecodePinString(std::string_view s);

/// A single pin.
struct Pin {
  PinForm form = PinForm::kSpkiSha256;
  /// Digest or raw bytes, depending on `form`:
  /// kSpkiSha256→32B, kSpkiSha1→20B, kCertificate→32B DER fingerprint,
  /// kPublicKey→SPKI bytes.
  util::Bytes material;

  friend bool operator==(const Pin&, const Pin&) = default;

  /// True if `cert` satisfies this pin.
  [[nodiscard]] bool Matches(const x509::Certificate& cert) const;

  /// Builds a pin of the given form from a certificate.
  [[nodiscard]] static Pin ForCertificate(const x509::Certificate& cert, PinForm form);

  /// The "sha256/AAAA..." (or "sha1/...") textual spelling used in configs and
  /// code. kCertificate/kPublicKey forms render as sha256 of their material.
  [[nodiscard]] std::string ToPinString() const;

  /// Parses "sha256/<base64>" / "sha1/<base64>" through DecodePinString.
  /// Returns nullopt on any malformed input (wrong digest length, bad base64).
  [[nodiscard]] static std::optional<Pin> FromPinString(std::string_view s);
};

/// Pins that apply to one domain pattern.
struct DomainPinRule {
  std::string pattern;          ///< Exact host or "*.example.com".
  bool include_subdomains = false;  ///< NSC-style subtree flag.
  std::vector<Pin> pins;

  /// True if this rule covers `hostname`.
  [[nodiscard]] bool AppliesTo(std::string_view hostname) const;
};

/// The pinning policy a client (app) carries: an ordered rule list.
class PinPolicy {
 public:
  /// Adds a rule. Later rules do not override earlier ones; a host is pinned
  /// if *any* rule that applies carries pins (matching the conservative union
  /// semantics real stacks implement when multiple pinning layers coexist).
  void AddRule(DomainPinRule rule);

  [[nodiscard]] const std::vector<DomainPinRule>& rules() const { return rules_; }
  [[nodiscard]] bool empty() const { return rules_.empty(); }

  /// All pins applicable to `hostname` (empty ⇒ host not pinned).
  [[nodiscard]] std::vector<Pin> PinsFor(std::string_view hostname) const;

  /// True if `hostname` has at least one applicable pin.
  [[nodiscard]] bool IsPinned(std::string_view hostname) const;

  /// Pin check: passes iff the host is unpinned, or some chain element
  /// satisfies some applicable pin.
  [[nodiscard]] bool Evaluate(std::string_view hostname,
                              const x509::CertificateChain& chain) const;

 private:
  std::vector<DomainPinRule> rules_;
};

}  // namespace pinscope::tls
