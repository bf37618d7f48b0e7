// audit_app: a single-app security audit, the workflow an app-security
// auditor (e.g. working against OWASP MASVS) would run with this toolkit:
//
//   1. download the app from its store,
//   2. static analysis — embedded certificates, pin hashes, NSC/ATS configs,
//   3. dynamic differential analysis — which destinations actually pin,
//   4. instrumented re-run — can the pinned traffic be inspected at all,
//   5. verdict: what the pinning protects and what it hides.
#include <cstdio>
#include <string_view>

#include "dynamicanalysis/pipeline.h"
#include "report/table.h"
#include "staticanalysis/static_report.h"
#include "store/crawler.h"
#include "store/generator.h"

int main() {
  using namespace pinscope;

  store::EcosystemConfig config;
  config.seed = 77;
  config.scale = 0.05;
  const store::Ecosystem eco = store::Ecosystem::Generate(config);

  // Pick a finance-style pinning app to audit (ground truth only used to
  // choose an interesting target; the audit itself is pure measurement).
  const appmodel::App* target = nullptr;
  const auto& apps = eco.apps(appmodel::Platform::kAndroid);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (eco.truth(appmodel::Platform::kAndroid, i).runtime_pinning) {
      target = &apps[i];
      break;
    }
  }
  if (target == nullptr) {
    std::printf("no pinning app in this corpus\n");
    return 1;
  }

  // 1. Acquire the APK.
  store::GPlayCli cli(eco);
  const auto downloaded = cli.Download(target->meta.app_id);
  std::printf("== Auditing %s (%s, category %s) ==\n\n",
              target->meta.display_name.c_str(), target->meta.app_id.c_str(),
              target->meta.category.c_str());

  // 2. Static analysis.
  staticanalysis::StaticAnalysisOptions sopts;
  sopts.ct_log = &eco.ct_log();
  const auto sreport = staticanalysis::AnalyzeStatically(**downloaded, sopts);
  std::printf("[static] %zu files scanned (%zu bytes)\n",
              sreport.scan.files_scanned, sreport.scan.bytes_scanned);
  std::printf("[static] embedded certificates: %zu, pin hashes: %zu "
              "(%zu resolved via CT log)\n",
              sreport.scan.certificates.size(), sreport.pins_total,
              sreport.pins_resolved);
  for (const auto& cert : sreport.scan.certificates) {
    std::printf("         cert '%.*s' at %s\n",
                static_cast<int>(cert.cert.subject().common_name().size()),
                cert.cert.subject().common_name().data(), cert.path.c_str());
  }
  for (const auto& pin : sreport.scan.pins) {
    if (pin.well_formed()) {
      const std::string_view text = pin.pin_string();
      std::printf("         pin  %.*s at %s\n", static_cast<int>(text.size()),
                  text.data(), sreport.scan.PathOf(pin).c_str());
    }
  }
  if (sreport.nsc.uses_nsc) {
    std::printf("[static] Network Security Config present (%s pins)\n",
                sreport.nsc.PinsViaNsc() ? "with" : "without");
    for (const std::string& domain : sreport.nsc.MisconfiguredDomains()) {
      std::printf("         WARNING: overridePins neutralizes pins for %s\n",
                  domain.c_str());
    }
  }

  // 3-4. Dynamic differential + circumvention.
  const auto dreport = dynamicanalysis::RunDynamicAnalysis(**downloaded, eco.world());
  std::printf("\n[dynamic] app %s at run time\n",
              dreport.AppPins() ? "PINS" : "does not pin");
  report::TextTable table;
  table.SetHeader({"Destination", "Pinned", "Circumvented", "Weak ciphers",
                   "PII observed"});
  for (const auto& dest : dreport.destinations) {
    std::string pii;
    for (const auto t : dest.pii) {
      if (!pii.empty()) pii += ", ";
      pii += appmodel::PiiTypeName(t);
    }
    table.AddRow({dest.hostname, dest.pinned ? "yes" : "no",
                  dest.pinned ? (dest.circumvented ? "yes" : "NO — opaque") : "-",
                  dest.weak_cipher ? "yes" : "no", pii.empty() ? "-" : pii});
  }
  std::printf("%s\n", table.Render().c_str());

  // 5. Verdict.
  int opaque = 0;
  for (const auto& dest : dreport.destinations) {
    if (dest.pinned && !dest.circumvented) ++opaque;
  }
  std::printf("[verdict] %zu pinned destination(s); %d resist instrumentation "
              "(custom TLS stack) and stay opaque to this audit.\n",
              dreport.PinnedDestinations().size(), opaque);
  return 0;
}
