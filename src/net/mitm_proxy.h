// Monkey-in-the-middle proxy (mitmproxy substitute).
//
// The proxy terminates the client's TLS connection with a chain it forges on
// the fly for the requested SNI, signed by its own CA. Test devices have that
// CA installed in their OS store, so unpinned apps accept the forged chain and
// the proxy observes plaintext; pinned (or custom-PKI) connections abort —
// exactly the differential the §4.2.2 detector keys on.
//
// Forged-leaf determinism: the leaf key for a hostname is drawn from a stream
// forked per hostname off a base seeded by (study seed, CA label) — never
// from the caller's rng. Forged bytes therefore depend only on (CA label,
// seed, hostname), not on app order, thread interleaving, or how many
// interceptions came first, which is what lets one forged-leaf cache be
// shared across every app and worker of a study (see forged_leaf_cache.h and
// DESIGN.md §10).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/forged_leaf_cache.h"
#include "tls/handshake.h"
#include "util/rng.h"
#include "x509/issuer.h"

namespace pinscope::net {

/// Result of proxying one connection.
struct InterceptResult {
  tls::ConnectionOutcome outcome;  ///< Client-side connection as captured.
  bool decrypted = false;          ///< Proxy observed application plaintext.
};

/// An intercepting TLS proxy with a deterministic CA identity.
class MitmProxy {
 public:
  /// Default leaf-issuance seed; matches DynamicOptions::seed so standalone
  /// proxies forge the same bytes as a default-configured pipeline.
  static constexpr std::uint64_t kDefaultSeed = 0x9e3779b9;

  /// Creates a proxy whose CA key derives from `ca_label` (stable across
  /// runs) and whose forged-leaf keys derive from (`seed`, `ca_label`,
  /// hostname). When `forged` is non-null the proxy shares that forged-leaf
  /// cache (the study-scoped fixture); otherwise it owns a private one.
  explicit MitmProxy(std::string ca_label = "mitmproxy",
                     std::uint64_t seed = kDefaultSeed,
                     std::shared_ptr<ForgedLeafCache> forged = nullptr);

  /// The proxy's CA certificate — install this in a device's root store to
  /// emulate the paper's test-device setup.
  [[nodiscard]] const x509::Certificate& CaCertificate() const;

  /// Intercepts a connection from `client` to `server`: forges a leaf for the
  /// server's hostname, presents [forged-leaf, proxy-CA], and reports whether
  /// plaintext was recovered. Forged leaves are cached per hostname, like
  /// mitmproxy's certificate cache; the cache is internally synchronized, so
  /// a shared proxy may intercept from many threads at once. `rng` only
  /// jitters the simulated wire trace — it never feeds issuance. Interception
  /// counters are recorded against `client.metrics` (when set) rather than
  /// proxy state, so one shared proxy can serve studies with different
  /// observers.
  [[nodiscard]] InterceptResult Intercept(const tls::ClientTlsConfig& client,
                                          const tls::ServerEndpoint& server,
                                          const tls::AppPayload& payload,
                                          util::SimTime now,
                                          util::Rng& rng) const;

  /// The forged chain this proxy presents for `hostname` (forging it now if
  /// never intercepted). Exposed for the determinism regression tests.
  [[nodiscard]] std::shared_ptr<const x509::CertificateChain> ForgedChainFor(
      const std::string& hostname) const;

  /// The (possibly shared) forged-leaf cache — exposed so study-level owners
  /// can read its counters and bind its shard locks to contention metrics.
  [[nodiscard]] ForgedLeafCache* forged_cache() const { return forged_.get(); }

 private:
  x509::CertificateIssuer ca_;
  /// Base stream for leaf keys; Fork(hostname) (a const operation) yields
  /// the per-hostname issuance stream.
  util::Rng leaf_rng_;
  std::shared_ptr<ForgedLeafCache> forged_;
};

}  // namespace pinscope::net
