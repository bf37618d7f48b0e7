// Integration: single-app end-to-end walks of the whole toolchain — package
// bytes in, measurement verdicts out — plus cross-layer invariants the
// module-level tests cannot see.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/analyses.h"
#include "core/study.h"
#include "dynamicanalysis/pipeline.h"
#include "staticanalysis/static_report.h"
#include "store/crawler.h"
#include "store/generator.h"

namespace pinscope {
namespace {

using appmodel::Platform;

const store::Ecosystem& Eco() {
  static const store::Ecosystem eco = [] {
    store::EcosystemConfig config;
    config.seed = 13;
    config.scale = 0.04;
    return store::Ecosystem::Generate(config);
  }();
  return eco;
}

TEST(EndToEndTest, CrawlThenAnalyzeOneAndroidApp) {
  store::GPlayCli cli(Eco());
  // Pick a runtime-pinning app from ground truth.
  const appmodel::App* pinning_app = nullptr;
  const auto& apps = Eco().apps(Platform::kAndroid);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (Eco().truth(Platform::kAndroid, i).runtime_pinning) {
      pinning_app = &apps[i];
      break;
    }
  }
  ASSERT_NE(pinning_app, nullptr);

  const auto downloaded = cli.Download(pinning_app->meta.app_id);
  ASSERT_TRUE(downloaded.has_value());

  staticanalysis::StaticAnalysisOptions static_opts;
  static_opts.ct_log = &Eco().ct_log();
  const auto static_report = staticanalysis::AnalyzeStatically(**downloaded, static_opts);
  // Some pinning apps carry their pins only in the NSC (the paper's
  // "Configuration Files" column); either static signal counts.
  EXPECT_TRUE(static_report.PotentialPinning() || static_report.ConfigPinning());

  const auto dynamic_report =
      dynamicanalysis::RunDynamicAnalysis(**downloaded, Eco().world());
  EXPECT_TRUE(dynamic_report.AppPins());
}

TEST(EndToEndTest, IosAppRequiresDecryptionForBinaryEvidence) {
  // An iOS pinning app whose pin material lives in the encrypted main binary
  // must yield no pin evidence without decryption and full evidence with it.
  const appmodel::App* target = nullptr;
  const auto& apps = Eco().apps(Platform::kIos);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!Eco().truth(Platform::kIos, i).runtime_pinning) continue;
    // Needs first-party pinning (pin string in the main binary).
    for (const auto& dest : apps[i].behavior.destinations) {
      if (dest.pinned && dest.owning_sdk.empty()) {
        target = &apps[i];
        break;
      }
    }
    if (target != nullptr) break;
  }
  ASSERT_NE(target, nullptr);

  staticanalysis::StaticAnalysisOptions no_jailbreak;
  no_jailbreak.device.jailbroken = false;
  const auto locked = staticanalysis::AnalyzeStatically(*target, no_jailbreak);
  EXPECT_FALSE(locked.decryption_ok);

  const auto unlocked = staticanalysis::AnalyzeStatically(*target);
  EXPECT_TRUE(unlocked.decryption_ok);
  EXPECT_TRUE(unlocked.PotentialPinning());
}

TEST(EndToEndTest, CtResolutionEnrichesStaticPins) {
  // Default-PKI pins found in packages should resolve to certificates via
  // the CT log for a substantial fraction of apps.
  staticanalysis::StaticAnalysisOptions opts;
  opts.ct_log = &Eco().ct_log();
  int apps_with_pins = 0, apps_with_resolution = 0;
  for (const auto& app : Eco().apps(Platform::kAndroid)) {
    const auto report = staticanalysis::AnalyzeStatically(app, opts);
    if (report.pins_total == 0) continue;
    ++apps_with_pins;
    if (report.pins_resolved > 0) ++apps_with_resolution;
  }
  ASSERT_GT(apps_with_pins, 0);
  EXPECT_GT(apps_with_resolution, 0);
}

TEST(EndToEndTest, CtResolutionMatchesTheDigestStringLookup) {
  // AnalyzeStatically resolves each distinct well-formed pin by its decoded
  // digest bytes; resolving the pin's text after the '/' through
  // FindBySpkiDigest must give the same counts and certificates, in order.
  staticanalysis::StaticAnalysisOptions opts;
  opts.ct_log = &Eco().ct_log();
  int checked = 0;
  for (Platform p : {Platform::kAndroid, Platform::kIos}) {
    for (const auto& app : Eco().apps(p)) {
      const auto report = staticanalysis::AnalyzeStatically(app, opts);
      std::set<std::string> seen_pins;
      std::set<std::string> seen_fingerprints;
      std::size_t pins_total = 0, pins_resolved = 0;
      std::vector<x509::Certificate> resolved;
      for (const auto& pin : report.scan.pins) {
        const std::string_view text = pin.pin_string();
        if (!pin.well_formed() || !seen_pins.insert(std::string(text)).second) {
          continue;
        }
        ++pins_total;
        const auto certs = Eco().ct_log().FindBySpkiDigest(
            text.substr(text.find('/') + 1));
        if (!certs.empty()) ++pins_resolved;
        for (const auto& cert : certs) {
          const auto fp = cert.FingerprintSha256();
          if (seen_fingerprints.insert(std::string(fp.begin(), fp.end())).second) {
            resolved.push_back(cert);
          }
        }
      }
      EXPECT_EQ(report.pins_total, pins_total) << app.meta.app_id;
      EXPECT_EQ(report.pins_resolved, pins_resolved) << app.meta.app_id;
      EXPECT_EQ(report.ct_resolved, resolved) << app.meta.app_id;
      checked += pins_resolved > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(EndToEndTest, CertMatchStatsFavorCaPins) {
  core::Study study(Eco());
  study.Run();
  int ca = 0, leaf = 0;
  for (Platform p : {Platform::kAndroid, Platform::kIos}) {
    const auto stats = core::ComputeCertMatches(study, p);
    ca += stats.ca_certs;
    leaf += stats.leaf_certs;
    EXPECT_LE(stats.apps_with_match, stats.pinning_apps);
  }
  // §5.3.2: most matched pinned certificates are CAs.
  EXPECT_GT(ca, leaf);
}

TEST(EndToEndTest, WeakCipherGapMatchesTable8Shape) {
  core::Study study(Eco());
  study.Run();
  // iOS: overall weak-cipher prevalence is much higher than Android's.
  const auto ios = core::ComputeCiphers(study, store::DatasetId::kPopular,
                                        Platform::kIos);
  const auto android = core::ComputeCiphers(study, store::DatasetId::kPopular,
                                            Platform::kAndroid);
  EXPECT_GT(ios.overall_pct, 60.0);
  EXPECT_LT(android.overall_pct, 45.0);
}

TEST(EndToEndTest, PiiAnalysisFindsAdIdOnBothSides) {
  core::Study study(Eco());
  study.Run();
  for (Platform p : {Platform::kAndroid, Platform::kIos}) {
    const auto pii = core::ComputePii(study, p);
    ASSERT_GT(pii.non_pinned_dests, 0);
    bool has_ad_id = false;
    for (const auto& row : pii.rows) {
      if (row.type == appmodel::PiiType::kAdvertisingId) {
        has_ad_id = true;
        EXPECT_GT(row.non_pinned_pct, 5.0);
      }
    }
    EXPECT_TRUE(has_ad_id) << PlatformName(p);
  }
}

}  // namespace
}  // namespace pinscope
