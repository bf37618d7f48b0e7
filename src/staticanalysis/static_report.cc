#include "staticanalysis/static_report.h"

#include <set>
#include <string_view>
#include <unordered_set>

#include "crypto/sha256.h"

namespace pinscope::staticanalysis {

bool StaticReport::PotentialPinning() const { return scan.HasPinningEvidence(); }

bool StaticReport::ConfigPinning() const {
  return platform == appmodel::Platform::kAndroid ? nsc.PinsViaNsc()
                                                  : ats.PinsViaAts();
}

std::vector<std::string> StaticReport::EvidencePaths() const {
  std::set<std::string> paths;
  for (const FoundCertificate& c : scan.certificates) paths.insert(c.path);
  for (const FoundPin& p : scan.pins) {
    if (p.parsed.has_value()) paths.insert(p.path);
  }
  return std::vector<std::string>(paths.begin(), paths.end());
}

namespace {

// Decision events for the static layer, derived from the finished report so
// they are identical with the scan cache on or off (DESIGN.md §12). Without
// a journal there is nothing to number, so the per-pin field vectors are not
// built at all; with one, every event is emitted, because the scope's
// sequence numbers are allocated before the severity filter.
void EmitStaticEvents(const StaticReport& report, obs::EventScope& log) {
  if (log.log() == nullptr) return;
  if (!report.decryption_ok) {
    log.Emit(obs::Severity::kWarn, "static.decrypt_failed",
             {{"app", report.app_id}});
  }
  for (const FoundPin& pin : report.scan.pins) {
    log.Emit(obs::Severity::kDecision, "static.pin_found",
             {{"path", pin.path},
              {"offset", static_cast<std::uint64_t>(pin.offset)},
              {"rule", kPinRule},
              {"pin", pin.pin_string},
              {"well_formed", pin.parsed.has_value()}});
  }
  for (const FoundCertificate& cert : report.scan.certificates) {
    log.Emit(obs::Severity::kDecision, "static.cert_found",
             {{"path", cert.path},
              {"source", cert.from_pem ? "pem" : "der"},
              {"subject", cert.cert.subject().common_name()}});
  }
  for (const NscDomainResult& d : report.nsc.domains) {
    if (d.pin_strings.empty()) continue;
    std::string digests;
    for (const std::string& p : d.pin_strings) {
      if (!digests.empty()) digests += ',';
      digests += p;
    }
    log.Emit(obs::Severity::kDecision, "nsc.pin_set",
             {{"domain", d.domain},
              {"source", report.nsc.nsc_path},
              {"include_subdomains", d.include_subdomains},
              {"pins", static_cast<std::uint64_t>(d.pin_strings.size())},
              {"well_formed", static_cast<std::uint64_t>(d.parsed_pins.size())},
              {"digests", digests},
              {"expiration", d.pin_expiration},
              {"override_pins", d.override_pins}});
  }
  for (const std::string& domain : report.nsc.MisconfiguredDomains()) {
    log.Emit(obs::Severity::kWarn, "nsc.pins_overridden",
             {{"domain", domain}, {"source", report.nsc.nsc_path}});
  }
  for (const AtsPinnedDomainResult& d : report.ats.pinned_domains) {
    std::string digests;
    for (const tls::Pin& p : d.pins) {
      if (!digests.empty()) digests += ',';
      digests += p.ToPinString();
    }
    log.Emit(obs::Severity::kDecision, "ats.pinned_domain",
             {{"domain", d.domain},
              {"source", report.ats.info_plist_path},
              {"include_subdomains", d.include_subdomains},
              {"pins", static_cast<std::uint64_t>(d.pins.size())},
              {"digests", digests}});
  }
}

}  // namespace

StaticReport AnalyzeStatically(const appmodel::App& app,
                               const StaticAnalysisOptions& options) {
  StaticReport report;
  report.app_id = app.meta.app_id;
  report.platform = app.meta.platform;

  static const Scanner scanner;  // stateless; its prefilter is built once

  const obs::Span span = obs::SpanFor(options.observer, "static.scan", "phase",
                                      {{"app", app.meta.app_id}});
  obs::MetricsRegistry* metrics = obs::MetricsOf(options.observer);
  obs::EventScope log =
      obs::ScopeFor(options.observer, std::string(PlatformName(app.meta.platform)),
                    app.meta.app_id, "static");

  if (app.meta.platform == appmodel::Platform::kAndroid) {
    // Apktool step: our APK trees are stored decoded; scanning is direct.
    report.scan = scanner.Scan(app.package, options.scan_cache, metrics);
    report.nsc = AnalyzeNsc(app.package);
  } else {
    const DecryptResult dec = DecryptIpa(app.package, app.meta.app_id,
                                         options.device, options.decrypt_tool);
    report.decryption_ok = dec.ok;
    // On failure, scan what is readable (plaintext resources) anyway.
    const appmodel::PackageFiles& tree = dec.ok ? dec.files : app.package;
    report.scan = scanner.Scan(tree, options.scan_cache, metrics);
    report.ats = AnalyzeAts(tree);
  }
  EmitStaticEvents(report, log);

  // §4.1.3: resolve found pin hashes against the CT log.
  if (options.ct_log != nullptr) {
    // Views into report.scan.pins (stable for the loop's lifetime): a
    // pin-dense file would otherwise pay one heap string per dedup insert.
    // Each pin is looked up by the digest bytes Pin::FromPinString already
    // decoded, and the log hands back indices, not certificate copies.
    const x509::CtLog& ct_log = *options.ct_log;
    std::unordered_set<std::string_view> seen_pins;
    seen_pins.reserve(report.scan.pins.size());
    std::set<crypto::Sha256Digest> seen_fingerprints;
    for (const FoundPin& pin : report.scan.pins) {
      if (!pin.parsed.has_value()) continue;
      if (!seen_pins.insert(pin.pin_string).second) continue;
      ++report.pins_total;
      const auto indices = ct_log.SpkiDigestIndices(pin.parsed->material);
      if (!indices.empty()) ++report.pins_resolved;
      for (const std::size_t idx : indices) {
        const x509::Certificate& cert = ct_log.certificate(idx);
        if (seen_fingerprints.insert(cert.FingerprintSha256()).second) {
          report.ct_resolved.push_back(cert);
        }
      }
    }
    if (report.pins_total > 0) {
      log.Emit(obs::Severity::kInfo, "static.ct_resolution",
               {{"pins_total", static_cast<std::uint64_t>(report.pins_total)},
                {"pins_resolved",
                 static_cast<std::uint64_t>(report.pins_resolved)},
                {"certificates",
                 static_cast<std::uint64_t>(report.ct_resolved.size())}});
    }
  }

  log.Emit(obs::Severity::kDecision, "static.verdict",
           {{"potential_pinning", report.PotentialPinning()},
            {"config_pinning", report.ConfigPinning()},
            {"certificates",
             static_cast<std::uint64_t>(report.scan.certificates.size())},
            {"pins", static_cast<std::uint64_t>(report.scan.pins.size())}});

  return report;
}

}  // namespace pinscope::staticanalysis
