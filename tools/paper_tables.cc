#include "paper_tables.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/analyses.h"
#include "dynamicanalysis/detector.h"
#include "dynamicanalysis/device.h"
#include "dynamicanalysis/spinner.h"
#include "net/mitm_proxy.h"
#include "report/json_writer.h"
#include "store/generator.h"
#include "util/rng.h"

namespace pinscope::paper {
namespace {

using appmodel::Platform;
using report::JsonWriter;

constexpr Platform kPlatforms[] = {Platform::kAndroid, Platform::kIos};

/// Digits of every percentage, average and chi-square statistic; p-values
/// get more, as the paper prints them.
constexpr int kDigits = 2;
constexpr int kPValueDigits = 4;

template <typename Count>
void Int(JsonWriter& w, std::string_view key, Count value) {
  w.Key(key);
  w.Int(static_cast<std::int64_t>(value));
}

void Num(JsonWriter& w, std::string_view key, double value,
         int digits = kDigits) {
  w.Key(key);
  w.Double(value, digits);
}

void Str(JsonWriter& w, std::string_view key, std::string_view value) {
  w.Key(key);
  w.String(value);
}

/// `count` of `total` in percent; 0 for an empty total.
double Pct(int count, int total) {
  return total == 0 ? 0.0 : static_cast<double>(count) / total * 100.0;
}

/// Writes `key` and `key_pct`: a count and its share of `total`.
void CountPct(JsonWriter& w, const std::string& key, int count, int total) {
  Int(w, key, count);
  Num(w, key + "_pct", Pct(count, total));
}

/// One line of the document: an object led by its "record" key, with the
/// fields `fill` writes.
template <typename Fill>
std::string Record(std::string_view name, Fill&& fill) {
  JsonWriter w;
  w.BeginObject();
  Str(w, "record", name);
  fill(w);
  w.EndObject();
  return w.TakeString() + "\n";
}

/// `key`: an array of one object per item, with the fields `fill` writes.
template <typename Items, typename Fill>
void Objects(JsonWriter& w, std::string_view key, const Items& items,
             Fill&& fill) {
  w.Key(key);
  w.BeginArray();
  for (const auto& item : items) {
    w.BeginObject();
    fill(item);
    w.EndObject();
  }
  w.EndArray();
}

/// "platforms": one object per platform, led by its name.
template <typename Fill>
void PerPlatform(JsonWriter& w, Fill&& fill) {
  Objects(w, "platforms", kPlatforms, [&](Platform p) {
    Str(w, "platform", appmodel::PlatformName(p));
    fill(p);
  });
}

/// "rows": one object per dataset and platform, led by their names.
template <typename Fill>
void PerDatasetAndPlatform(JsonWriter& w, Fill&& fill) {
  std::vector<std::pair<store::DatasetId, Platform>> cells;
  for (const store::DatasetId id : store::AllDatasets()) {
    for (const Platform p : kPlatforms) cells.emplace_back(id, p);
  }
  Objects(w, "rows", cells, [&](const auto& cell) {
    Str(w, "dataset", store::DatasetName(cell.first));
    Str(w, "platform", appmodel::PlatformName(cell.second));
    fill(cell.first, cell.second);
  });
}

dynamicanalysis::DeviceEmulator DeviceFor(
    Platform p, const x509::Certificate* proxy_ca = nullptr) {
  return p == Platform::kAndroid
             ? dynamicanalysis::DeviceEmulator::Pixel3(proxy_ca)
             : dynamicanalysis::DeviceEmulator::IPhoneX(proxy_ca);
}

// --- §3: dataset overview ---------------------------------------------------

/// Dataset sizes, Common∩Popular and Random collisions, unique apps, and
/// §4.2.2's SNI coverage ("99% of the TLS traffic … non-empty SNI") over 150
/// sampled captures per platform.
std::string Section3(const core::Study& study) {
  const store::Ecosystem& eco = study.ecosystem();
  return Record("section3", [&](JsonWriter& w) {
    std::size_t total_unique = 0;
    PerPlatform(w, [&](Platform p) {
      const auto& common =
          eco.dataset(store::DatasetId::kCommon, p).app_indices;
      const auto& popular =
          eco.dataset(store::DatasetId::kPopular, p).app_indices;
      const auto& random =
          eco.dataset(store::DatasetId::kRandom, p).app_indices;
      const std::set<std::size_t> common_set(common.begin(), common.end());
      const std::set<std::size_t> popular_set(popular.begin(), popular.end());
      int cp_collisions = 0;
      for (std::size_t idx : popular) {
        if (common_set.contains(idx)) ++cp_collisions;
      }
      int random_collisions = 0;
      for (std::size_t idx : random) {
        if (common_set.contains(idx) || popular_set.contains(idx)) {
          ++random_collisions;
        }
      }
      std::set<std::size_t> unique(common.begin(), common.end());
      unique.insert(popular.begin(), popular.end());
      unique.insert(random.begin(), random.end());
      total_unique += unique.size();

      Int(w, "common", common.size());
      Int(w, "popular", popular.size());
      Int(w, "random", random.size());
      Int(w, "common_popular_collisions", cp_collisions);
      Int(w, "random_collisions", random_collisions);
      Int(w, "unique_apps", unique.size());
    });
    Int(w, "unique_apps", total_unique);

    constexpr std::size_t kSampledApps = 150;
    int flows = 0;
    int with_sni = 0;
    util::Rng rng(808);
    for (const Platform p : kPlatforms) {
      const dynamicanalysis::DeviceEmulator device = DeviceFor(p);
      const auto& apps = eco.apps(p);
      for (std::size_t idx : rng.SampleIndices(apps.size(), kSampledApps)) {
        util::Rng run_rng(1000 + idx);
        const net::Capture cap = device.RunApp(
            apps[idx], eco.world(), dynamicanalysis::RunOptions{}, run_rng);
        for (const net::Flow& f : cap.flows) {
          ++flows;
          if (!f.sni.empty()) ++with_sni;
        }
      }
    }
    w.Key("sni");
    w.BeginObject();
    Int(w, "sampled_apps_per_platform", kSampledApps);
    Int(w, "flows", flows);
    Int(w, "flows_with_sni", with_sni);
    Num(w, "pct", flows == 0 ? 0.0 : 100.0 * with_sni / flows);
    w.EndObject();
  });
}

// --- Tables 1–9 --------------------------------------------------------------

/// Table 1: each dataset's categories by app count, most apps first (the
/// paper prints the top 10).
std::string Table1(const core::Study& study) {
  return Record("table1", [&](JsonWriter& w) {
    PerDatasetAndPlatform(w, [&](store::DatasetId id, Platform p) {
      std::map<std::string, int> counts;
      int total = 0;
      for (const core::AppResult* r : study.DatasetResults(id, p)) {
        ++counts[r->app->meta.category];
        ++total;
      }
      std::vector<std::pair<std::string, int>> sorted(counts.begin(),
                                                      counts.end());
      std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
      });
      Int(w, "apps", total);
      Objects(w, "categories", sorted, [&](const auto& category) {
        Str(w, "category", category.first);
        CountPct(w, "apps", category.second, total);
      });
    });
  });
}

/// Table 2's measured half: the prior-work technique (NSC-only static)
/// against the dynamic differential on the Android corpora. The literature
/// rows are constants of the paper, not measurements, so they are not here.
std::string Table2(const core::Study& study) {
  return Record("table2", [&](JsonWriter& w) {
    Str(w, "platform", appmodel::PlatformName(Platform::kAndroid));
    Objects(w, "rows", store::AllDatasets(), [&](store::DatasetId id) {
      const core::PrevalenceRow row =
          core::ComputePrevalence(study, id, Platform::kAndroid);
      Str(w, "dataset", store::DatasetName(id));
      Int(w, "apps", row.total);
      CountPct(w, "nsc_static", row.config_pinning, row.total);
      CountPct(w, "dynamic", row.dynamic_pinning, row.total);
    });
  });
}

/// Table 3: prevalence by technique. NSC pinning is Android-only; the
/// headline ratio is dynamic over NSC detection on Popular Android.
std::string Table3(const core::Study& study) {
  return Record("table3", [&](JsonWriter& w) {
    PerDatasetAndPlatform(w, [&](store::DatasetId id, Platform p) {
      const core::PrevalenceRow row = core::ComputePrevalence(study, id, p);
      Int(w, "apps", row.total);
      CountPct(w, "dynamic", row.dynamic_pinning, row.total);
      CountPct(w, "static", row.embedded_static, row.total);
      if (p == Platform::kAndroid) {
        CountPct(w, "nsc", row.config_pinning, row.total);
      }
    });
    const core::PrevalenceRow popular = core::ComputePrevalence(
        study, store::DatasetId::kPopular, Platform::kAndroid);
    w.Key("popular_android_dynamic_per_nsc");
    if (popular.config_pinning > 0) {
      w.Double(static_cast<double>(popular.dynamic_pinning) /
                   popular.config_pinning,
               kDigits);
    } else {
      w.Null();
    }
  });
}

/// Tables 4 and 5: the top-10 pinning categories of one platform.
std::string CategoryTable(const core::Study& study, std::string_view record,
                          Platform p) {
  return Record(record, [&](JsonWriter& w) {
    Str(w, "platform", appmodel::PlatformName(p));
    Objects(w, "rows", core::ComputePinningByCategory(study, p),
            [&](const core::CategoryPinningRow& row) {
              Str(w, "category", row.category);
              Int(w, "popularity_rank", row.popularity_rank);
              Num(w, "pinning_pct", row.pinning_pct);
              Int(w, "pinning_apps", row.pinning_apps);
            });
  });
}

/// Table 6 and §5.3.1: the PKI of pinned destinations and the validity of
/// self-signed pinned certificates.
std::string Table6(const core::Study& study) {
  return Record("table6", [&](JsonWriter& w) {
    PerPlatform(w, [&](Platform p) {
      const core::PkiCounts counts = core::ComputePkiCounts(study, p);
      Int(w, "default_pki", counts.default_pki);
      Int(w, "custom_pki", counts.custom_pki);
      Int(w, "unavailable", counts.unavailable);
      Int(w, "self_signed", counts.self_signed);
      w.Key("self_signed_validity_years");
      w.BeginArray();
      for (const std::int64_t days : counts.self_signed_validity_days) {
        w.Double(static_cast<double>(days) / 365.0, kDigits);
      }
      w.EndArray();
    });
  });
}

/// Table 7: every framework whose code path carries certificate or pin
/// evidence in more than 5 apps, most apps first.
std::string Table7(const core::Study& study) {
  return Record("table7", [&](JsonWriter& w) {
    PerPlatform(w, [&](Platform p) {
      Objects(w, "frameworks", core::ComputeFrameworks(study, p),
              [&](const staticanalysis::FrameworkAttribution& fw) {
                Str(w, "framework", fw.framework);
                Int(w, "apps", fw.app_count);
                Str(w, "path", fw.path_key);
              });
    });
  });
}

/// Table 8: apps with a weak-cipher connection, against pinning apps with a
/// weak-cipher pinned connection.
std::string Table8(const core::Study& study) {
  return Record("table8", [&](JsonWriter& w) {
    PerDatasetAndPlatform(w, [&](store::DatasetId id, Platform p) {
      const core::CipherRow row = core::ComputeCiphers(study, id, p);
      Num(w, "overall_pct", row.overall_pct);
      Num(w, "pinning_apps_pct", row.pinning_apps_pct);
    });
  });
}

/// Table 9: PII in decrypted pinned vs non-pinned traffic, with the
/// chi-square test of each row.
std::string Table9(const core::Study& study) {
  return Record("table9", [&](JsonWriter& w) {
    PerPlatform(w, [&](Platform p) {
      const core::PiiAnalysis pii = core::ComputePii(study, p);
      Int(w, "pinned_dests", pii.pinned_dests);
      Int(w, "non_pinned_dests", pii.non_pinned_dests);
      Objects(w, "rows", pii.rows, [&](const core::PiiRow& row) {
        Str(w, "pii", appmodel::PiiTypeName(row.type));
        Num(w, "pinned_pct", row.pinned_pct);
        Num(w, "non_pinned_pct", row.non_pinned_pct);
        Num(w, "chi2", row.test.statistic);
        Num(w, "p", row.test.p_value, kPValueDigits);
        w.Key("significant");
        w.Bool(row.test.Significant());
      });
    });
  });
}

// --- §5.3.2/§5.3.3 and §4.3 -----------------------------------------------

/// §5.3.2: certificates found both statically and dynamically, CA vs leaf;
/// §5.3.3: leaves pinned by SPKI hash vs embedded whole, and renewed leaves
/// that stayed pinned.
std::string Section5_3(const core::Study& study) {
  return Record("section5_3", [&](JsonWriter& w) {
    core::CertMatchStats total;
    PerPlatform(w, [&](Platform p) {
      const core::CertMatchStats stats = core::ComputeCertMatches(study, p);
      Int(w, "pinning_apps", stats.pinning_apps);
      Int(w, "apps_with_match", stats.apps_with_match);
      Int(w, "ca_certs", stats.ca_certs);
      Int(w, "leaf_certs", stats.leaf_certs);
      Int(w, "leaf_spki_pinned", stats.leaf_spki_pinned);
      Int(w, "leaf_raw_embedded", stats.leaf_raw_embedded);
      Int(w, "rotated_still_pinned", stats.rotated_still_pinned);
      total.ca_certs += stats.ca_certs;
      total.leaf_certs += stats.leaf_certs;
      total.leaf_spki_pinned += stats.leaf_spki_pinned;
      total.leaf_raw_embedded += stats.leaf_raw_embedded;
      total.rotated_still_pinned += stats.rotated_still_pinned;
    });
    w.Key("total");
    w.BeginObject();
    Int(w, "ca_certs", total.ca_certs);
    Int(w, "leaf_certs", total.leaf_certs);
    Num(w, "ca_share_pct",
        Pct(total.ca_certs, total.ca_certs + total.leaf_certs));
    Int(w, "leaf_spki_pinned", total.leaf_spki_pinned);
    Int(w, "leaf_raw_embedded", total.leaf_raw_embedded);
    Int(w, "rotated_still_pinned", total.rotated_still_pinned);
    w.EndObject();
  });
}

/// §4.3: unique pinned destinations whose traffic instrumentation decrypted.
std::string Circumvention(const core::Study& study) {
  return Record("circumvention", [&](JsonWriter& w) {
    PerPlatform(w, [&](Platform p) {
      const core::CircumventionStats stats =
          core::ComputeCircumvention(study, p);
      Int(w, "pinned_unique", stats.pinned_unique);
      Int(w, "circumvented_unique", stats.circumvented_unique);
      Num(w, "pct", 100.0 * stats.Rate());
    });
  });
}

// --- Figures 2–5 -------------------------------------------------------------

using Mode = core::PairAnalysis::Mode;
using Verdict = core::PairAnalysis::Verdict;

/// Figure 2: Common pairs pinning on both platforms or on one, by
/// consistency verdict; only a pair pinning on both can be consistent.
std::string Fig2(const std::vector<core::PairAnalysis>& pairs) {
  struct Group {
    int apps = 0, consistent = 0, identical = 0, inconsistent = 0,
        inconclusive = 0;
  };
  std::map<Mode, Group> groups;
  for (const core::PairAnalysis& pa : pairs) {
    if (pa.mode == Mode::kNone) continue;
    Group& g = groups[pa.mode];
    ++g.apps;
    if (pa.verdict == Verdict::kInconsistent) {
      ++g.inconsistent;
    } else if (pa.mode == Mode::kBoth && pa.verdict == Verdict::kConsistent) {
      ++g.consistent;
      g.identical += pa.identical_sets;
    } else {
      ++g.inconclusive;
    }
  }
  return Record("fig2", [&](JsonWriter& w) {
    Int(w, "pinning_apps", groups[Mode::kBoth].apps +
                               groups[Mode::kAndroidOnly].apps +
                               groups[Mode::kIosOnly].apps);
    for (const auto& [key, mode] :
         {std::pair{"both", Mode::kBoth},
          std::pair{"android_only", Mode::kAndroidOnly},
          std::pair{"ios_only", Mode::kIosOnly}}) {
      const Group& g = groups[mode];
      w.Key(key);
      w.BeginObject();
      Int(w, "apps", g.apps);
      if (mode == Mode::kBoth) {
        Int(w, "consistent", g.consistent);
        Int(w, "identical", g.identical);
      }
      Int(w, "inconsistent", g.inconsistent);
      Int(w, "inconclusive", g.inconclusive);
      w.EndObject();
    }
  });
}

/// Figure 3: the inconsistent both-platform pinners, with the overlap of
/// their pinned sets and each side's pinned domains seen unpinned opposite.
std::string Fig3(const std::vector<core::PairAnalysis>& pairs) {
  std::vector<const core::PairAnalysis*> rows;
  for (const core::PairAnalysis& pa : pairs) {
    if (pa.mode == Mode::kBoth && pa.verdict == Verdict::kInconsistent) {
      rows.push_back(&pa);
    }
  }
  return Record("fig3", [&](JsonWriter& w) {
    Objects(w, "apps", rows, [&](const core::PairAnalysis* pa) {
      Str(w, "app", pa->name);
      Num(w, "jaccard", pa->jaccard);
      Num(w, "android_pinned_unpinned_on_ios_pct",
          100.0 * pa->android_pinned_unpinned_on_ios);
      Num(w, "ios_pinned_unpinned_on_android_pct",
          100.0 * pa->ios_pinned_unpinned_on_android);
    });
    Int(w, "inconsistent", rows.size());
  });
}

/// Figure 4: apps pinning on one platform only. The inconsistent ones are
/// listed with the share of their pinned domains seen unpinned on the other
/// platform; the inconclusive ones never reached those domains there.
std::string Fig4(const std::vector<core::PairAnalysis>& pairs) {
  return Record("fig4", [&](JsonWriter& w) {
    for (const auto& [key, mode] :
         {std::pair{"android_only", Mode::kAndroidOnly},
          std::pair{"ios_only", Mode::kIosOnly}}) {
      std::vector<const core::PairAnalysis*> inconsistent;
      int inconclusive = 0;
      for (const core::PairAnalysis& pa : pairs) {
        if (pa.mode != mode) continue;
        if (pa.verdict == Verdict::kInconsistent) {
          inconsistent.push_back(&pa);
        } else {
          ++inconclusive;
        }
      }
      w.Key(key);
      w.BeginObject();
      Objects(w, "apps", inconsistent, [&](const core::PairAnalysis* pa) {
        Str(w, "app", pa->name);
        Num(w, "unpinned_on_other_pct",
            100.0 * (mode == Mode::kAndroidOnly
                         ? pa->android_pinned_unpinned_on_ios
                         : pa->ios_pinned_unpinned_on_android));
      });
      Int(w, "inconsistent", inconsistent.size());
      Int(w, "inconclusive", inconclusive);
      w.EndObject();
    }
  });
}

/// Figure 5: each Popular and Random pinning app's pinned and unpinned
/// domains by party, and the tallies §5.2 draws from them.
std::string Fig5(const core::Study& study) {
  return Record("fig5", [&](JsonWriter& w) {
    PerPlatform(w, [&](Platform p) {
      const auto profiles = core::ComputeDomainProfiles(study, p);
      int fp_pinners = 0, fp_contacting = 0, tp_pinners = 0, tp_all_pinned = 0,
          pins_all = 0;
      long pinned_first = 0, pinned_third = 0;
      Int(w, "pinning_apps", profiles.size());
      Objects(w, "apps", profiles, [&](const core::AppDomainProfile& prof) {
        if (prof.first_party_pinned + prof.first_party_unpinned > 0) {
          ++fp_contacting;
        }
        if (prof.first_party_pinned > 0) ++fp_pinners;
        if (prof.third_party_pinned > 0) {
          ++tp_pinners;
          if (prof.third_party_unpinned == 0) ++tp_all_pinned;
        }
        if (prof.PinsAll()) ++pins_all;
        pinned_first += prof.first_party_pinned;
        pinned_third += prof.third_party_pinned;

        const int total = prof.Total();
        Str(w, "app", prof.app_id);
        Str(w, "dataset", store::DatasetName(prof.dataset));
        Int(w, "first_pinned", prof.first_party_pinned);
        Int(w, "third_pinned", prof.third_party_pinned);
        Int(w, "first_unpinned", prof.first_party_unpinned);
        Int(w, "third_unpinned", prof.third_party_unpinned);
        Num(w, "pinned_pct",
            total == 0 ? 0.0
                       : 100.0 *
                             (prof.first_party_pinned +
                              prof.third_party_pinned) /
                             total);
      });
      Int(w, "first_party_pinners", fp_pinners);
      Int(w, "first_party_contacting", fp_contacting);
      Int(w, "third_party_pinners", tp_pinners);
      Int(w, "third_party_all_pinned", tp_all_pinned);
      Int(w, "pins_all", pins_all);
      Int(w, "pinned_first_party", pinned_first);
      Int(w, "pinned_third_party", pinned_third);
    });
  });
}

// --- Experiments beyond the study ------------------------------------------

/// §4.2.1: average TLS handshakes a capture records at 15, 30 and 60 s over
/// 40 sampled apps per platform (the paper measured 20.78, 23.5 and 24.62).
std::string SleepTime(const core::Study& study) {
  constexpr std::size_t kSampledApps = 40;
  constexpr int kCaptureSeconds[] = {15, 30, 60};
  const store::Ecosystem& eco = study.ecosystem();
  return Record("sleep_time", [&](JsonWriter& w) {
    Int(w, "sampled_apps_per_platform", kSampledApps);
    w.Key("capture_seconds");
    w.BeginArray();
    for (const int seconds : kCaptureSeconds) w.Int(seconds);
    w.EndArray();
    util::Rng sample_rng(2021);
    PerPlatform(w, [&](Platform p) {
      const auto& apps = eco.apps(p);
      const auto indices = sample_rng.SampleIndices(apps.size(), kSampledApps);
      const dynamicanalysis::DeviceEmulator device = DeviceFor(p);
      w.Key("avg_handshakes");
      w.BeginArray();
      for (const int seconds : kCaptureSeconds) {
        double total = 0;
        for (std::size_t idx : indices) {
          dynamicanalysis::RunOptions opts;
          opts.capture_seconds = seconds;
          util::Rng rng(900 + idx);
          total += static_cast<double>(
              device.RunApp(apps[idx], eco.world(), opts, rng).flows.size());
        }
        w.Double(total / static_cast<double>(indices.size()), kDigits);
      }
      w.EndArray();
    });
  });
}

/// §2.2 ablation: the differential detector against the Spinner baseline
/// (Stone et al.), which sees only CA and intermediate pins. Spinner's
/// hostname-validation probe doubles as §5.3.4's check.
std::string AblationDetectors(const core::Study& study) {
  return Record("ablation_detectors", [&](JsonWriter& w) {
    PerPlatform(w, [&](Platform p) {
      int differential_apps = 0;
      int spinner_apps = 0;
      int both = 0;
      int diff_only = 0;
      int vulnerable = 0;
      std::set<std::string> diff_dests, spinner_dests;

      util::Rng rng(99);
      for (const core::AppResult* r : study.AllResults(p)) {
        const bool diff_pins = r->dynamic_report.AppPins();
        for (const std::string& host : r->dynamic_report.PinnedDestinations()) {
          diff_dests.insert(host);
        }
        bool spinner_pins = false;
        for (const auto& probe : dynamicanalysis::RunSpinnerProbes(
                 *r->app, study.ecosystem().world(), rng)) {
          if (probe.verdict ==
              dynamicanalysis::SpinnerVerdict::kCaPinningDetected) {
            spinner_pins = true;
            spinner_dests.insert(probe.hostname);
          }
          if (probe.verdict == dynamicanalysis::SpinnerVerdict::kVulnerable) {
            ++vulnerable;
          }
        }
        differential_apps += diff_pins;
        spinner_apps += spinner_pins;
        both += diff_pins && spinner_pins;
        diff_only += diff_pins && !spinner_pins;
      }

      Int(w, "differential_apps", differential_apps);
      Int(w, "spinner_apps", spinner_apps);
      Int(w, "both_apps", both);
      Int(w, "differential_only_apps", diff_only);
      Int(w, "differential_dests", diff_dests.size());
      Int(w, "spinner_dests", spinner_dests.size());
      Int(w, "spinner_vulnerable", vulnerable);
    });
  });
}

/// §4.2.1/§5.6 ablation: domains contacted with and without random UI
/// interaction over 120 sampled apps per platform, and the pinned
/// destinations (generator ground truth, whole corpus) that only an
/// interaction reaches.
std::string AblationInteraction(const core::Study& study) {
  constexpr std::size_t kSampledApps = 120;
  const store::Ecosystem& eco = study.ecosystem();
  return Record("ablation_interaction", [&](JsonWriter& w) {
    Int(w, "sampled_apps_per_platform", kSampledApps);
    PerPlatform(w, [&](Platform p) {
      const auto& apps = eco.apps(p);
      const dynamicanalysis::DeviceEmulator device = DeviceFor(p);
      util::Rng sample_rng(4242);
      const auto indices = sample_rng.SampleIndices(apps.size(), kSampledApps);
      double domains_plain = 0, domains_interact = 0;
      for (std::size_t idx : indices) {
        dynamicanalysis::RunOptions plain;
        dynamicanalysis::RunOptions interactive;
        interactive.interact = true;
        util::Rng r1(500 + idx), r2(500 + idx);
        const auto cap_plain = device.RunApp(apps[idx], eco.world(), plain, r1);
        const auto cap_inter =
            device.RunApp(apps[idx], eco.world(), interactive, r2);
        domains_plain += static_cast<double>(cap_plain.Destinations().size());
        domains_interact +=
            static_cast<double>(cap_inter.Destinations().size());
      }
      int missed_pinned = 0;
      for (const auto& app : apps) {
        for (const auto& dest : app.behavior.destinations) {
          if (dest.pinned && dest.requires_interaction) ++missed_pinned;
        }
      }
      const double n = static_cast<double>(indices.size());
      Num(w, "avg_domains", domains_plain / n);
      Num(w, "avg_domains_interacting", domains_interact / n);
      Int(w, "pinned_dests_behind_interaction", missed_pinned);
    });
  });
}

/// The TLS 1.2 rule applied to TLS 1.3 too: any application-data record
/// means the connection was used, so a pin-failure alert reads as usage.
bool NaiveIsUsed(const net::Flow& flow) {
  for (const tls::Record& r : flow.records) {
    if (r.wire_type == tls::ContentType::kApplicationData) return true;
  }
  return false;
}

/// The per-destination differential of DetectPinning over a pluggable
/// used-connection classifier: does some destination used in the baseline
/// run go unused, and never stay open, under MITM?
template <typename UsedFn>
bool DifferentialPins(const net::Capture& baseline, const net::Capture& mitm,
                      Platform p,
                      const dynamicanalysis::ExclusionRules& exclusions,
                      UsedFn&& used) {
  struct Agg {
    bool used_baseline = false;
    bool seen_mitm = false;
    bool any_mitm_used_or_open = false;
  };
  std::map<std::string, Agg> by_host;
  const auto skipped = [&](const net::Flow& f) {
    return f.sni.empty() ||
           (p == Platform::kIos && exclusions.IsExcluded(f.sni));
  };
  for (const net::Flow& f : baseline.flows) {
    if (skipped(f)) continue;
    if (used(f)) by_host[f.sni].used_baseline = true;
  }
  for (const net::Flow& f : mitm.flows) {
    if (skipped(f)) continue;
    Agg& agg = by_host[f.sni];
    agg.seen_mitm = true;
    if (used(f) || f.closure == tls::Closure::kOpen) {
      agg.any_mitm_used_or_open = true;
    }
  }
  return std::ranges::any_of(by_host, [](const auto& entry) {
    const Agg& agg = entry.second;
    return agg.used_baseline && agg.seen_mitm && !agg.any_mitm_used_or_open;
  });
}

/// §4.2.2 ablation: pinning apps found with the naive rule against the
/// paper's TLS 1.3 heuristics, both applied to one baseline and one MITM
/// capture per app.
std::string AblationTls13(const core::Study& study) {
  const store::Ecosystem& eco = study.ecosystem();
  return Record("ablation_tls13", [&](JsonWriter& w) {
    PerPlatform(w, [&](Platform p) {
      net::MitmProxy proxy;
      const dynamicanalysis::DeviceEmulator device =
          DeviceFor(p, &proxy.CaCertificate());
      int naive = 0;
      int heuristics = 0;
      for (const core::AppResult* r : study.AllResults(p)) {
        util::Rng rng(31337 ^ util::StableHash64(r->app->meta.app_id));
        util::Rng rng_a = rng.Fork("baseline");
        const net::Capture baseline = device.RunApp(
            *r->app, eco.world(), dynamicanalysis::RunOptions{}, rng_a);
        dynamicanalysis::RunOptions mitm_opts;
        mitm_opts.proxy = &proxy;
        util::Rng rng_b = rng.Fork("mitm");
        const net::Capture mitm =
            device.RunApp(*r->app, eco.world(), mitm_opts, rng_b);
        const auto exclusions = dynamicanalysis::ExclusionRules::ForIos(
            r->app->behavior.associated_domains);
        naive += DifferentialPins(baseline, mitm, p, exclusions, NaiveIsUsed);
        heuristics += DifferentialPins(baseline, mitm, p, exclusions,
                                       dynamicanalysis::IsUsedConnection);
      }
      Int(w, "naive_rule_apps", naive);
      Int(w, "heuristics_apps", heuristics);
    });
  });
}

}  // namespace

std::string PaperTablesJsonl(const core::Study& study) {
  const std::vector<core::PairAnalysis> pairs = core::AnalyzeCommonPairs(study);
  std::string doc;
  doc += Section3(study);
  doc += Table1(study);
  doc += Table2(study);
  doc += Table3(study);
  doc += CategoryTable(study, "table4", Platform::kAndroid);
  doc += CategoryTable(study, "table5", Platform::kIos);
  doc += Table6(study);
  doc += Table7(study);
  doc += Table8(study);
  doc += Table9(study);
  doc += Section5_3(study);
  doc += Circumvention(study);
  doc += Fig2(pairs);
  doc += Fig3(pairs);
  doc += Fig4(pairs);
  doc += Fig5(study);
  doc += SleepTime(study);
  doc += AblationDetectors(study);
  doc += AblationInteraction(study);
  doc += AblationTls13(study);
  return doc;
}

}  // namespace pinscope::paper
