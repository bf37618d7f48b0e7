#include "net/mitm_proxy.h"

#include "obs/log.h"
#include "obs/metrics.h"

namespace pinscope::net {
namespace {

x509::DistinguishedName ProxyCaName() {
  x509::DistinguishedName dn;
  dn.set_common_name("mitmproxy");
  dn.set_organization("mitmproxy");
  dn.set_country("US");
  return dn;
}

util::Rng LeafBaseRng(std::uint64_t seed, const std::string& ca_label) {
  return util::Rng(seed).Fork("mitm.forged-leaf|" + ca_label);
}

}  // namespace

MitmProxy::MitmProxy(std::string ca_label, std::uint64_t seed,
                     std::shared_ptr<ForgedLeafCache> forged)
    : ca_(x509::CertificateIssuer::SelfSignedRoot(
          ca_label, ProxyCaName(), util::kStudyEpoch - util::kMillisPerYear,
          util::kStudyEpoch + 10 * util::kMillisPerYear)),
      leaf_rng_(LeafBaseRng(seed, ca_label)),
      forged_(forged != nullptr ? std::move(forged)
                                : std::make_shared<ForgedLeafCache>()) {}

const x509::Certificate& MitmProxy::CaCertificate() const {
  return ca_.certificate();
}

std::shared_ptr<const x509::CertificateChain> MitmProxy::ForgedChainFor(
    const std::string& hostname) const {
  if (auto cached = forged_->Find(hostname)) return *cached;

  x509::IssueSpec spec;
  spec.subject.set_common_name(hostname);
  spec.subject.set_organization("mitmproxy");
  spec.san_dns = {hostname};
  spec.not_before = util::kStudyEpoch - util::kMillisPerDay;
  spec.not_after = util::kStudyEpoch + util::kMillisPerYear;
  // The leaf key comes from a per-hostname fork of the proxy's base stream,
  // so the forged bytes are identical no matter which app, thread, or
  // interception ordering triggers this miss.
  util::Rng leaf_rng = leaf_rng_.Fork(hostname);
  auto forged = std::make_shared<const x509::CertificateChain>(
      x509::CertificateChain{ca_.Issue(spec, leaf_rng), ca_.certificate()});
  return forged_->Insert(hostname, std::move(forged));
}

InterceptResult MitmProxy::Intercept(const tls::ClientTlsConfig& client,
                                     const tls::ServerEndpoint& server,
                                     const tls::AppPayload& payload,
                                     util::SimTime now, util::Rng& rng) const {
  const std::shared_ptr<const x509::CertificateChain> forged =
      ForgedChainFor(server.hostname);

  InterceptResult result;
  result.outcome =
      tls::SimulateConnection(client, server, *forged, payload, now, rng);
  result.decrypted = result.outcome.application_data_sent;
  obs::CounterOrNull(client.metrics, "net.intercepts").Increment();
  if (result.decrypted) {
    obs::CounterOrNull(client.metrics, "net.intercepts_decrypted").Increment();
  }
  // Per-flow intercept outcome for the decision journal — the MITM half of
  // the differential evidence. Attributed to the intercepted client's scope
  // (the proxy itself is a study-wide shared fixture).
  obs::EmitTo(client.log, obs::Severity::kDecision, "mitm.intercept",
              {{"host", server.hostname},
               {"decrypted", result.decrypted},
               {"failure", tls::FailureReasonName(result.outcome.failure)}});
  return result;
}

}  // namespace pinscope::net
