// Simulated Certificate Transparency log (crt.sh substitute).
//
// §4.1.3: the paper resolves SPKI hashes found in app binaries to the
// certificates they pin by querying crt.sh. We model the same query surface:
// an index from SPKI digest (SHA-1 or SHA-256) to every logged certificate
// carrying that key. The corpus generator logs the certificates of all
// simulated public endpoints; private/staging certificates stay unlogged —
// reproducing the paper's ~50% hash-resolution rate.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "x509/certificate.h"

namespace pinscope::x509 {

/// An append-only certificate transparency log with SPKI-hash search.
class CtLog {
 public:
  /// Logs a certificate (idempotent per fingerprint).
  void Add(const Certificate& cert);

  /// Number of logged certificates.
  [[nodiscard]] std::size_t size() const { return certs_.size(); }

  /// The certificate logged at `index` (an index from SpkiDigestIndices).
  [[nodiscard]] const Certificate& certificate(std::size_t index) const {
    return certs_[index];
  }

  /// Indices of the certificates whose SPKI digest is `digest`, given as raw
  /// bytes: the 32 of a SHA-256 or the 20 of a SHA-1 hash, as a parsed pin
  /// carries them. In logging order; empty when unknown. The span views the
  /// log's own index, so a lookup neither decodes nor allocates; it is valid
  /// until the next Add.
  [[nodiscard]] std::span<const std::size_t> SpkiDigestIndices(
      std::span<const std::uint8_t> digest) const;

  /// Looks up certificates whose SPKI digest matches `digest`, where `digest`
  /// is hex or (un)padded base64 of a SHA-1 or SHA-256 SPKI hash — the forms
  /// found in app binaries. Unknown digests yield an empty vector.
  [[nodiscard]] std::vector<Certificate> FindBySpkiDigest(std::string_view digest) const;

  /// Looks up certificates by exact subject common name.
  [[nodiscard]] std::vector<Certificate> FindBySubjectCn(std::string_view cn) const;

 private:
  // Keys are raw digest bytes. They are already uniformly distributed, so
  // the hash is their first eight bytes; lookups take a string_view, so a
  // span of digest bytes is looked up without building a key.
  struct DigestHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view digest) const;
  };
  using DigestIndex = std::unordered_map<std::string, std::vector<std::size_t>,
                                         DigestHash, std::equal_to<>>;

  std::vector<Certificate> certs_;
  DigestIndex by_spki_;  // key: raw SPKI SHA-256 and SHA-1 digests
  std::unordered_set<std::string, DigestHash, std::equal_to<>> fingerprints_;
  std::map<std::string, std::vector<std::size_t>> by_cn_;
};

}  // namespace pinscope::x509
