// The certificate model.
//
// Certificates here carry the fields the paper's analyses depend on: subject /
// issuer names, validity window, SubjectAltNames, basicConstraints (CA flag),
// the SubjectPublicKeyInfo blob whose hash forms a pin, and a structural
// signature binding the to-be-signed body to the issuer's key. Signatures are
// verifiable from public material alone (see issuer.h); trust is anchored
// exclusively in root stores, exactly as in the real PKI.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "x509/distinguished_name.h"

namespace pinscope::x509 {

/// Plain data carried by a certificate.
struct CertificateData {
  std::string serial_hex;              ///< Unique serial, lowercase hex.
  DistinguishedName subject;           ///< Subject name.
  DistinguishedName issuer;            ///< Issuer name.
  util::SimTime not_before = 0;        ///< Validity start (sim ms).
  util::SimTime not_after = 0;         ///< Validity end (sim ms).
  std::vector<std::string> san_dns;    ///< SubjectAltName dNSName entries.
  bool is_ca = false;                  ///< basicConstraints CA bit.
  /// basicConstraints pathLenConstraint: maximum number of *intermediate* CA
  /// certificates allowed below this CA. Unset ⇒ unlimited.
  std::optional<int> path_len;
  util::Bytes spki;                    ///< SubjectPublicKeyInfo encoding.
  util::Bytes signature;               ///< Issuer signature over the TBS body.
};

/// An immutable certificate. Value semantics; cheap to copy relative to the
/// corpus sizes involved.
class Certificate {
 public:
  Certificate() = default;
  explicit Certificate(CertificateData data);

  // The digest cache is allocated lazily (see Cache()), so copies must read
  // the slot atomically: a copy may race with another thread's first digest
  // computation on the same source object. Copies share the cache through
  // its reference count; a move hands the source's reference over.
  Certificate(const Certificate& other)
      : data_(other.data_), digests_(Share(other.digests_)) {}
  Certificate(Certificate&& other) noexcept
      : data_(std::move(other.data_)),
        digests_(other.digests_.exchange(nullptr, std::memory_order_acq_rel)) {}
  Certificate& operator=(const Certificate& other) {
    if (this != &other) {
      data_ = other.data_;
      Release(digests_.exchange(Share(other.digests_),
                                std::memory_order_acq_rel));
    }
    return *this;
  }
  Certificate& operator=(Certificate&& other) noexcept {
    if (this != &other) {
      data_ = std::move(other.data_);
      Release(digests_.exchange(
          other.digests_.exchange(nullptr, std::memory_order_acq_rel),
          std::memory_order_acq_rel));
    }
    return *this;
  }
  ~Certificate() { Release(digests_.load(std::memory_order_acquire)); }

  [[nodiscard]] const CertificateData& data() const { return data_; }
  [[nodiscard]] const std::string& serial() const { return data_.serial_hex; }
  [[nodiscard]] const DistinguishedName& subject() const { return data_.subject; }
  [[nodiscard]] const DistinguishedName& issuer() const { return data_.issuer; }
  [[nodiscard]] util::SimTime not_before() const { return data_.not_before; }
  [[nodiscard]] util::SimTime not_after() const { return data_.not_after; }
  [[nodiscard]] const std::vector<std::string>& san_dns() const { return data_.san_dns; }
  [[nodiscard]] bool is_ca() const { return data_.is_ca; }
  [[nodiscard]] std::optional<int> path_len() const { return data_.path_len; }
  [[nodiscard]] const util::Bytes& spki() const { return data_.spki; }
  [[nodiscard]] const util::Bytes& signature() const { return data_.signature; }

  /// Subject and issuer names are equal. (Self-signedness additionally
  /// requires the signature to verify under the cert's own key; validation
  /// checks that.)
  [[nodiscard]] bool IsSelfIssued() const { return data_.subject == data_.issuer; }

  /// Validity duration in days.
  [[nodiscard]] std::int64_t ValidityDays() const {
    return (data_.not_after - data_.not_before) / util::kMillisPerDay;
  }

  /// True if `now` falls inside [not_before, not_after].
  [[nodiscard]] bool InValidityWindow(util::SimTime now) const {
    return now >= data_.not_before && now <= data_.not_after;
  }

  /// The canonical to-be-signed serialization: every field except the
  /// signature. This is what issuers sign. Serialized once per certificate
  /// and cached; copies share the cached bytes (the data is immutable).
  [[nodiscard]] const util::Bytes& TbsBytes() const;

  /// DER-like serialization of the whole certificate (TBS + signature).
  /// Round-trips through ParseDer().
  [[nodiscard]] util::Bytes DerBytes() const;

  /// Exact byte length of DerBytes(), without materializing it. The record
  /// simulator sizes certificate messages per connection; this keeps that
  /// a constant-time read off the cached TBS serialization.
  [[nodiscard]] std::size_t DerSize() const;

  /// Parses the serialization produced by DerBytes(). Returns std::nullopt on
  /// malformed input.
  [[nodiscard]] static std::optional<Certificate> ParseDer(const util::Bytes& der);

  /// SHA-256 fingerprint of the DER encoding (identifies the certificate).
  /// Computed once per certificate and reused; copies share the cached value
  /// (the underlying data is immutable after construction).
  [[nodiscard]] const crypto::Sha256Digest& FingerprintSha256() const;

  /// SHA-256 of the SubjectPublicKeyInfo — the modern pin digest. Cached like
  /// FingerprintSha256().
  [[nodiscard]] const crypto::Sha256Digest& SpkiSha256() const;

  /// SHA-1 of the SubjectPublicKeyInfo — the legacy pin digest. Cached like
  /// FingerprintSha256().
  [[nodiscard]] const crypto::Sha1Digest& SpkiSha1() const;

  /// True if `hostname` matches any SAN entry (or the subject CN when no SANs
  /// are present), honoring single-label `*.` wildcards.
  [[nodiscard]] bool MatchesHostname(std::string_view hostname) const;

  friend bool operator==(const Certificate& a, const Certificate& b) {
    // Fingerprints identify certificates; comparing them reuses the cached
    // digests instead of re-serializing both DER encodings per comparison.
    return a.FingerprintSha256() == b.FingerprintSha256();
  }

 private:
  /// Lazily-computed digests and serializations, shared by copies taken
  /// after the first computation (all copies carry identical immutable data,
  /// so one computation serves them). call_once makes concurrent first use
  /// from parallel study workers safe. The TBS bytes have their own flag:
  /// issuance needs them on not-yet-signed certificates whose digests would
  /// be meaningless.
  struct DigestCache {
    /// Certificates holding this cache; the last one to let go deletes it.
    std::atomic<std::size_t> refs{1};
    std::once_flag tbs_once;
    util::Bytes tbs;
    std::once_flag once;
    crypto::Sha256Digest fingerprint{};
    crypto::Sha256Digest spki_sha256{};
    crypto::Sha1Digest spki_sha1{};
  };

  /// Returns the digest cache, allocating it on first use. Most certificates
  /// a scan parses are never digested, so the allocation (and its ~150-byte
  /// zeroing) stays off the parse path; a lock-free CAS converges concurrent
  /// first users onto one cache.
  DigestCache& Cache() const;

  const DigestCache& Digests() const;

  /// A new reference to the cache in `slot` (nullptr while unallocated).
  static DigestCache* Share(const std::atomic<DigestCache*>& slot);
  /// Drops one reference to `cache` (nullptr is a no-op).
  static void Release(DigestCache* cache);

  CertificateData data_;
  /// A raw pointer with an intrusive count rather than
  /// std::atomic<std::shared_ptr>: libstdc++ 12's atomic shared_ptr unlocks
  /// its load() with a relaxed store, so a load racing with the first-use
  /// CAS is a data race under the C++ memory model (and ThreadSanitizer
  /// reports it).
  mutable std::atomic<DigestCache*> digests_{nullptr};
};

/// An ordered certificate chain, leaf first (as servers send it).
using CertificateChain = std::vector<Certificate>;

/// Wildcard-aware single-pattern hostname match, exposed for reuse by NSC
/// domain rules: `*.example.com` matches exactly one extra label.
[[nodiscard]] bool HostnameMatchesPattern(std::string_view hostname,
                                          std::string_view pattern);

}  // namespace pinscope::x509
