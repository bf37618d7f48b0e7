// Microbenchmarks of the pipeline's hot paths (google-benchmark).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "appmodel/android_package.h"
#include "core/study.h"
#include "crypto/sha256.h"
#include "dynamicanalysis/detector.h"
#include "dynamicanalysis/pipeline.h"
#include "dynamicanalysis/sim_fixtures.h"
#include "net/mitm_proxy.h"
#include "obs/timeline.h"
#include "appmodel/ios_package.h"
#include "staticanalysis/ios_decrypt.h"
#include "staticanalysis/nsc_analyzer.h"
#include "staticanalysis/scan_cache.h"
#include "staticanalysis/scanner.h"
#include "store/generator.h"
#include "tls/handshake.h"
#include "util/rng.h"
#include "x509/issuer.h"
#include "x509/pem.h"
#include "x509/validation.h"

namespace {

using namespace pinscope;

void BM_Sha256_1KiB(benchmark::State& state) {
  const util::Bytes data(1024, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_ChainValidation(benchmark::State& state) {
  const auto& ca = x509::PublicCaCatalog::Instance().ByLabel("ca.globaltrust");
  util::Rng rng(1);
  x509::IssueSpec spec;
  spec.subject.set_common_name("bench.example.com");
  spec.san_dns = {"bench.example.com"};
  spec.not_before = -util::kMillisPerDay;
  spec.not_after = util::kMillisPerYear;
  const x509::CertificateChain chain = {ca.Issue(spec, rng), ca.certificate()};
  const x509::RootStore store = x509::PublicCaCatalog::Instance().MozillaStore();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x509::ValidateChain(chain, "bench.example.com", 0, store));
  }
}
BENCHMARK(BM_ChainValidation);

void BM_HandshakeSimulation(benchmark::State& state) {
  const auto& ca = x509::PublicCaCatalog::Instance().ByLabel("ca.digisign");
  util::Rng rng(2);
  x509::IssueSpec spec;
  spec.subject.set_common_name("hs.example.com");
  spec.san_dns = {"hs.example.com"};
  spec.not_before = -util::kMillisPerDay;
  spec.not_after = util::kMillisPerYear;
  tls::ServerEndpoint server;
  server.hostname = "hs.example.com";
  server.chain = {ca.Issue(spec, rng), ca.certificate()};
  const x509::RootStore store = x509::PublicCaCatalog::Instance().MozillaStore();
  tls::ClientTlsConfig client;
  client.root_store = &store;
  tls::AppPayload payload;
  payload.plaintext = "POST /v1/collect session=1";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tls::SimulateDirectConnection(client, server, payload, 0, rng));
  }
}
BENCHMARK(BM_HandshakeSimulation);

void BM_MitmIntercept(benchmark::State& state) {
  const auto& ca = x509::PublicCaCatalog::Instance().ByLabel("ca.nimbus");
  util::Rng rng(3);
  x509::IssueSpec spec;
  spec.subject.set_common_name("mitm.example.com");
  spec.san_dns = {"mitm.example.com"};
  spec.not_before = -util::kMillisPerDay;
  spec.not_after = util::kMillisPerYear;
  tls::ServerEndpoint server;
  server.hostname = "mitm.example.com";
  server.chain = {ca.Issue(spec, rng), ca.certificate()};
  net::MitmProxy proxy;
  x509::RootStore store = x509::PublicCaCatalog::Instance().MozillaStore();
  store.AddRoot(proxy.CaCertificate());
  tls::ClientTlsConfig client;
  client.root_store = &store;
  tls::AppPayload payload;
  payload.plaintext = "GET /";
  for (auto _ : state) {
    benchmark::DoNotOptimize(proxy.Intercept(client, server, payload, 0, rng));
  }
}
BENCHMARK(BM_MitmIntercept);

appmodel::PackageFiles BenchPackage(int smali_files) {
  appmodel::AppMetadata meta;
  meta.app_id = "com.bench.app";
  meta.display_name = "Bench";
  meta.platform = appmodel::Platform::kAndroid;
  appmodel::AndroidPackageBuilder builder(meta);
  util::Rng rng(4);
  for (int i = 0; i < smali_files; ++i) {
    builder.AddSmaliString("com/bench/pkg" + std::to_string(i), "Api.smali",
                           "https://api" + std::to_string(i) + ".bench.com/v1");
  }
  builder.AddSmaliString("com/bench/net", "Pinner.smali",
                         "sha256/" + std::string(43, 'Q') + "=");
  builder.AddNativeLib("libbench.so", {"noise", "more-noise-strings"}, rng);
  return builder.Build();
}

void BM_ScannerPackage(benchmark::State& state) {
  const appmodel::PackageFiles package =
      BenchPackage(static_cast<int>(state.range(0)));
  const staticanalysis::Scanner scanner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.Scan(package));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(package.TotalBytes()));
}
BENCHMARK(BM_ScannerPackage)->Arg(8)->Arg(64)->Arg(256);

// A duplicated-SDK corpus: every app carries the same SDK payload (smali
// pin config, API client, bundled PEM chain) plus a handful of app-unique
// files — the sharing profile the content-hash scan cache is built for.
std::vector<appmodel::PackageFiles> DuplicatedSdkCorpus(int apps) {
  const auto& ca = x509::PublicCaCatalog::Instance().ByLabel("ca.globaltrust");
  const std::string sdk_pin = "sha256/" + std::string(43, 'S') + "=";
  // The SDK's native half: one prebuilt .so, byte-identical in every app,
  // with the dense symbol/string table a real stripped library still has.
  std::vector<std::string> sdk_symbols = {sdk_pin, "https://telemetry.vendor.com"};
  for (int sym = 0; sym < 4000; ++sym) {
    sdk_symbols.push_back("_ZN6vendor9analytics" + std::to_string(sym) + "Ev");
  }
  util::Rng blob_rng(1);
  const util::Bytes sdk_blob =
      appmodel::RenderBinaryWithStrings(sdk_symbols, blob_rng, 48 * 1024);
  // And its vendored CA bundle: ~130 anchors like a real cacert.pem,
  // shipped (as SDKs tend to) under a non-certificate extension, so every
  // uncached pass PEM-decodes and parses each certificate from content.
  std::string ca_bundle;
  for (int c = 0; c < 130; ++c) {
    x509::IssueSpec spec;
    spec.subject.set_common_name("Bundle Root CA " + std::to_string(c));
    ca_bundle += x509::PemEncode(
        x509::CertificateIssuer::SelfSignedLeaf("bundle:" + std::to_string(c), spec));
  }
  std::vector<appmodel::PackageFiles> corpus;
  corpus.reserve(static_cast<std::size_t>(apps));
  for (int a = 0; a < apps; ++a) {
    appmodel::AppMetadata meta;
    meta.app_id = "com.bench.dup" + std::to_string(a);
    meta.display_name = "Dup" + std::to_string(a);
    meta.platform = appmodel::Platform::kAndroid;
    appmodel::AndroidPackageBuilder builder(meta);
    // Shared across every app: identical bytes, identical paths.
    builder.AddSmaliString("com/vendor/analytics", "PinningConfig.smali", sdk_pin);
    for (int f = 0; f < 24; ++f) {
      builder.AddSmaliString("com/vendor/analytics/impl" + std::to_string(f),
                             "Api.smali",
                             "https://telemetry.vendor.com/v2/e" + std::to_string(f));
    }
    builder.AddCertificateFile("assets/sdk", "vendor_root", ca.certificate(),
                               appmodel::CertFileFormat::kPem);
    // App-unique tail: always a cache miss.
    builder.AddSmaliString("com/bench/dup" + std::to_string(a), "Main.smali",
                           "https://api.dup" + std::to_string(a) + ".com/v1");
    builder.AddAsset("assets/config.json",
                     "{\"app\":\"dup" + std::to_string(a) + "\"}");
    appmodel::PackageFiles files = builder.Build();
    files.Add("lib/arm64-v8a/libvendorsdk.so", sdk_blob);
    files.AddText("assets/sdk/ca_bundle.dat", ca_bundle);
    corpus.push_back(std::move(files));
  }
  return corpus;
}

// The cache headline: one corpus scanned end to end, without (arg 0) and
// with (arg 1) a shared ScanCache. The cache is recreated every iteration,
// so warm-up hits inside one pass are the only hits — exactly the shape of
// a real study run.
void BM_StaticScan(benchmark::State& state) {
  static const std::vector<appmodel::PackageFiles> corpus = DuplicatedSdkCorpus(64);
  const bool use_cache = state.range(0) != 0;
  const staticanalysis::Scanner scanner;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    staticanalysis::ScanCache cache;
    bytes = 0;
    for (const auto& package : corpus) {
      const staticanalysis::ScanResult result =
          scanner.Scan(package, use_cache ? &cache : nullptr);
      bytes += static_cast<std::int64_t>(result.bytes_scanned);
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  state.SetLabel(use_cache ? "cache" : "no-cache");
}
BENCHMARK(BM_StaticScan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The pin rule on 8 KB of smali-like filler holding one pin: the scanner's
// prefilter sweep, then PinMatchLength at each `sha` hit past the
// non-overlapping cursor — the pin half of Scanner::Scan's content loop.
void BM_PinMatchFindAll(benchmark::State& state) {
  const staticanalysis::Scanner scanner;
  std::string haystack;
  for (int i = 0; i < 200; ++i) {
    haystack += "const-string v0, \"https://endpoint" + std::to_string(i) + ".com\"\n";
  }
  haystack += "sha256/" + std::string(43, 'R') + "=";
  std::vector<staticanalysis::PrefilterHit> hits;
  for (auto _ : state) {
    scanner.prefilter().FindAll(haystack, hits);
    std::size_t cursor = 0, pins = 0;
    for (const staticanalysis::PrefilterHit& hit : hits) {
      if (hit.pattern != 1 || hit.pos < cursor) continue;
      if (const std::size_t len = staticanalysis::PinMatchLength(haystack, hit.pos)) {
        ++pins;
        cursor = hit.pos + len;
      }
    }
    benchmark::DoNotOptimize(pins);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(haystack.size()));
}
BENCHMARK(BM_PinMatchFindAll);

void BM_UsedConnectionClassification(benchmark::State& state) {
  net::Flow flow;
  flow.version = tls::TlsVersion::kTls13;
  flow.sni = "x.com";
  for (int i = 0; i < 12; ++i) {
    flow.records.push_back({tls::Direction::kClientToServer,
                            tls::ContentType::kApplicationData,
                            tls::ContentType::kApplicationData, 512u, {}, i});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynamicanalysis::IsUsedConnection(flow));
  }
}
BENCHMARK(BM_UsedConnectionClassification);

void BM_ResumedHandshake(benchmark::State& state) {
  const auto& ca = x509::PublicCaCatalog::Instance().ByLabel("ca.veridian");
  util::Rng rng(5);
  x509::IssueSpec spec;
  spec.subject.set_common_name("resume.bench.com");
  spec.san_dns = {"resume.bench.com"};
  spec.not_before = -util::kMillisPerDay;
  spec.not_after = util::kMillisPerYear;
  tls::ServerEndpoint server;
  server.hostname = "resume.bench.com";
  server.chain = {ca.Issue(spec, rng), ca.certificate()};
  const x509::RootStore store = x509::PublicCaCatalog::Instance().MozillaStore();
  tls::ClientTlsConfig client;
  client.root_store = &store;
  tls::AppPayload payload;
  payload.plaintext = "GET /";
  const auto full = tls::SimulateDirectConnection(client, server, payload, 0, rng);
  const tls::SessionTicket ticket = *full.ticket;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tls::SimulateResumedConnection(client, server, ticket, payload, 0, rng));
  }
}
BENCHMARK(BM_ResumedHandshake);

void BM_NscParse(benchmark::State& state) {
  appmodel::AppMetadata meta;
  meta.app_id = "com.bench.nsc";
  meta.display_name = "Bench";
  meta.platform = appmodel::Platform::kAndroid;
  std::vector<appmodel::NscDomainConfig> configs;
  for (int i = 0; i < 8; ++i) {
    appmodel::NscDomainConfig cfg;
    cfg.domain = "host" + std::to_string(i) + ".bench.com";
    cfg.include_subdomains = true;
    cfg.pin_strings = {"sha256/" + std::string(43, 'Z') + "="};
    configs.push_back(std::move(cfg));
  }
  const appmodel::PackageFiles apk =
      appmodel::AndroidPackageBuilder(meta).WithNsc(configs).Build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(staticanalysis::AnalyzeNsc(apk));
  }
}
BENCHMARK(BM_NscParse);

void BM_IpaDecryption(benchmark::State& state) {
  appmodel::AppMetadata meta;
  meta.app_id = "com.bench.ipa";
  meta.display_name = "BenchIpa";
  meta.platform = appmodel::Platform::kIos;
  util::Rng rng(6);
  appmodel::IosPackageBuilder builder(meta);
  for (int i = 0; i < 30; ++i) {
    builder.AddMainBinaryString("string payload number " + std::to_string(i));
  }
  const appmodel::PackageFiles ipa = builder.Build(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(staticanalysis::DecryptIpa(
        ipa, "com.bench.ipa", staticanalysis::DecryptionDevice{}));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ipa.TotalBytes()));
}
BENCHMARK(BM_IpaDecryption);

// Serial-vs-parallel full-study throughput: the same ecosystem analyzed end
// to end (static scan + two dynamic runs + circumvention + PII per app) at
// thread counts 1, 4, and hardware concurrency. Results are byte-identical
// across arguments (tests/core/parallel_study_test.cc); only wall time
// changes, and only as far as the machine has cores to offer.
void BM_FullStudy(benchmark::State& state) {
  static const store::Ecosystem eco = [] {
    store::EcosystemConfig config;
    config.seed = 42;
    config.scale = 0.05;
    return store::Ecosystem::Generate(config);
  }();

  const int threads = static_cast<int>(state.range(0));
  std::size_t apps = 0;
  for (auto _ : state) {
    core::StudyOptions opts;
    opts.threads = threads;
    core::Study study(eco, opts);
    study.Run();
    apps = study.AllResults(appmodel::Platform::kAndroid).size() +
           study.AllResults(appmodel::Platform::kIos).size();
    benchmark::DoNotOptimize(apps);
  }
  state.counters["apps"] = static_cast<double>(apps);
  state.counters["apps/s"] = benchmark::Counter(
      static_cast<double>(apps * state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullStudy)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)  // 0 = hardware concurrency
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The sim-cache headline: the full dynamic pipeline over every app of a
// shared-destination ecosystem, without (arg 0) and with (arg 1) study
// fixtures. Fixtures are recreated every iteration, so the forged-leaf and
// validation caches start cold each pass — exactly a study's shape. Reports
// are identical across arguments (tests/core/sim_fixtures_equivalence_test.cc);
// only wall time changes.
void BM_DynamicPipeline(benchmark::State& state) {
  static const store::Ecosystem eco = [] {
    store::EcosystemConfig config;
    config.seed = 42;
    config.scale = 0.05;
    return store::Ecosystem::Generate(config);
  }();

  const bool use_fixtures = state.range(0) != 0;
  std::size_t pinned = 0;
  for (auto _ : state) {
    dynamicanalysis::DynamicOptions opts;
    std::unique_ptr<dynamicanalysis::SimFixtures> fixtures;
    if (use_fixtures) {
      fixtures = std::make_unique<dynamicanalysis::SimFixtures>(opts.seed);
      opts.fixtures = fixtures.get();
    }
    pinned = 0;
    for (const appmodel::Platform p :
         {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
      for (const appmodel::App& app : eco.apps(p)) {
        const dynamicanalysis::DynamicReport report =
            dynamicanalysis::RunDynamicAnalysis(app, eco.world(), opts);
        pinned += report.PinnedDestinations().size();
        benchmark::DoNotOptimize(report);
      }
    }
  }
  state.counters["pinned"] = static_cast<double>(pinned);
  state.SetLabel(use_fixtures ? "sim-cache" : "no-sim-cache");
}
BENCHMARK(BM_DynamicPipeline)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PinPolicyEvaluate(benchmark::State& state) {
  const auto& ca = x509::PublicCaCatalog::Instance().ByLabel("ca.meridian");
  util::Rng rng(7);
  x509::IssueSpec spec;
  spec.subject.set_common_name("pins.bench.com");
  spec.san_dns = {"pins.bench.com"};
  const x509::CertificateChain chain = {ca.Issue(spec, rng), ca.certificate()};
  tls::PinPolicy policy;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    policy.AddRule({"host" + std::to_string(i) + ".bench.com", true,
                    {tls::Pin::ForCertificate(chain.back(),
                                              tls::PinForm::kSpkiSha256)}});
  }
  policy.AddRule({"pins.bench.com", false,
                  {tls::Pin::ForCertificate(chain.back(),
                                            tls::PinForm::kSpkiSha256)}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Evaluate("pins.bench.com", chain));
  }
}
BENCHMARK(BM_PinPolicyEvaluate)->Arg(1)->Arg(16)->Arg(128);

// The run autopsy's record path: what one stage interval costs the worker
// that records it. Each benchmark thread records into its own lane of one
// shared Timeline, as the scheduler's workers do; past the lane's reservoir
// cap (8,192 intervals) every call is a reservoir draw, the steady state of
// a long stream. The interval bounds are counters, so no clock read is
// timed. `ns_per_interval` is CPU time per call on one recording thread.
std::unique_ptr<obs::Timeline> record_timeline;
std::uint32_t record_label = 0;

void BM_TimelineRecord(benchmark::State& state) {
  const auto worker = static_cast<std::uint32_t>(state.thread_index());
  std::int64_t now_us = 0;
  for (auto _ : state) {
    record_timeline->RecordStage(worker, static_cast<std::uint64_t>(now_us),
                                 record_label, now_us, now_us + 1);
    benchmark::ClobberMemory();
    ++now_us;
  }
  state.counters["ns_per_interval"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TimelineRecord)
    ->Setup([](const benchmark::State&) {
      record_timeline = std::make_unique<obs::Timeline>();
      record_label = record_timeline->InternStage("static");
    })
    ->Teardown([](const benchmark::State&) { record_timeline.reset(); })
    ->ThreadRange(1, 4);

}  // namespace
