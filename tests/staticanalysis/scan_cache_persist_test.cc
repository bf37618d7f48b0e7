// Persistence tests for the corpus-wide scan cache (DESIGN.md §15): a saved
// cache reloads into an equal cache (equal caches re-serialize to identical
// bytes), a fixed package set saves to golden bytes, a warm cache serves
// scans identical to cold ones, every damaged file and every record no scan
// can produce loads nothing (the cold-start path), a file of an older format
// version is replaced by the next study's save, and concurrent saves into
// one path are last-writer-wins through the atomic rename. Carries the `stream`
// ctest label so it also runs under the sanitizer presets. Every file is
// padded to at least kScanCacheMinBytes with evidence-free bytes after its
// content, so the scan cache admits it and each match and offset stays put.
#include "staticanalysis/scan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "appmodel/package.h"
#include "core/cache_persist.h"
#include "crypto/sha256.h"
#include "obs/obs.h"
#include "staticanalysis/scanner.h"
#include "testing/fixtures.h"
#include "tls/pinning.h"
#include "util/cache_file.h"
#include "util/hex.h"
#include "x509/issuer.h"
#include "x509/pem.h"

namespace pinscope::staticanalysis {
namespace {

using pinscope::testing::Cacheable;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

std::string Sha256Hex(const std::string& bytes) {
  const crypto::Sha256Digest digest = crypto::Sha256(bytes);
  return util::HexEncode(util::Bytes(digest.begin(), digest.end()));
}

x509::Certificate TestCert(const std::string& cn) {
  x509::IssueSpec spec;
  spec.subject.set_common_name(cn);
  return x509::CertificateIssuer::SelfSignedLeaf("persist:" + cn, spec);
}

// A package whose scan outcome exercises every serialized field: a PEM
// certificate, well-formed pins (parsed present), and a malformed pin
// (parsed absent).
appmodel::PackageFiles SamplePackage(const std::string& salt) {
  const x509::Certificate cert = TestCert("pem." + salt + ".example");
  const std::string pin =
      tls::Pin::ForCertificate(TestCert("pin." + salt + ".example"),
                               tls::PinForm::kSpkiSha256)
          .ToPinString();
  appmodel::PackageFiles files;
  files.AddText("assets/ca.pem", Cacheable(x509::PemEncode(cert)));
  files.AddText("smali/Pins.smali",
                Cacheable("const-string v0, \"" + pin + "\""));
  files.AddText("config/pins.json",
                Cacheable("{\"pin\": \"" + pin +
                          "\", \"bad\": \"sha256/!!notbase64such"
                          "aninvalidpinmaterialvalue!!\"}"));
  files.AddText("notes-" + salt + ".txt",
                Cacheable("no evidence here: " + salt));
  return files;
}

// One file per serialized shape, for the golden digest: a PEM certificate,
// a sha256/ and a sha1/ pin, a pin whose body runs past the 64-byte cap, a
// match that does not decode, and a pin inside a binary's printable run.
appmodel::PackageFiles GoldenPackage() {
  const std::string sha256_pin =
      tls::Pin::ForCertificate(TestCert("golden.sha256.example"),
                               tls::PinForm::kSpkiSha256)
          .ToPinString();
  const std::string sha1_pin =
      tls::Pin::ForCertificate(TestCert("golden.sha1.example"),
                               tls::PinForm::kSpkiSha1)
          .ToPinString();
  appmodel::PackageFiles files;
  files.AddText("assets/golden.pem",
                Cacheable(x509::PemEncode(TestCert("golden.pem.example"))));
  files.AddText("smali/Golden.smali",
                Cacheable("const-string v0, \"" + sha256_pin +
                          "\"\nconst-string v1, \"" + sha1_pin + "\"\n"));
  // The whole alphabet is 64 body bytes; the trailing "==" extends the run
  // past the cap. 64 bytes of base64 decode to 48, so it is malformed too.
  files.AddText("config/long.txt",
                Cacheable("pin=sha256/ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklm"
                          "nopqrstuvwxyz0123456789+/==;\n"));
  // A 40-byte body decodes to 30 bytes: a rule match, not a digest.
  files.AddText("config/malformed.txt",
                Cacheable("key: sha256/" + std::string(40, 'x') + "\n"));
  util::Bytes binary = {0x7f, 'E', 'L', 'F', 2, 1, 1, 0, 0, 0};
  util::Append(binary, std::string_view("pinner " + sha1_pin + " okhttp3"));
  for (const std::uint8_t b : {0, 0, 0x90, 0x01, 0}) binary.push_back(b);
  files.Add("lib/arm64-v8a/libgolden.so", Cacheable(std::move(binary)));
  return files;
}

class ScanCachePersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pinscope_scan_cache_persist_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string PathFor(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(ScanCachePersistTest, SaveLoadSaveIsByteStable) {
  const Scanner scanner;
  ScanCache original;
  (void)scanner.Scan(SamplePackage("one"), &original);
  (void)scanner.Scan(SamplePackage("two"), &original);
  ASSERT_GT(original.EntryCount(), 0u);

  const std::string first = PathFor("first.pscf");
  const std::string second = PathFor("second.pscf");
  ASSERT_TRUE(original.SaveToFile(first));

  ScanCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(first));
  EXPECT_EQ(reloaded.EntryCount(), original.EntryCount());
  ASSERT_TRUE(reloaded.SaveToFile(second));

  // Equal caches serialize byte-identically — the property that makes
  // concurrent last-writer-wins saves unobservable.
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(second));
}

// The .pscf bytes of a fixed package set: a rewrite of the scanner, the
// record or the codec must leave them unchanged (ScanCache::kFileVersion
// names the format).
TEST_F(ScanCachePersistTest, SavedBytesMatchTheGoldenDigest) {
  const Scanner scanner;
  ScanCache cache;
  const ScanResult scan = scanner.Scan(GoldenPackage(), &cache);
  ASSERT_EQ(scan.certificates.size(), 1u);
  ASSERT_EQ(scan.pins.size(), 5u);
  ASSERT_EQ(cache.EntryCount(), 5u);

  const std::string path = PathFor("golden.pscf");
  ASSERT_TRUE(cache.SaveToFile(path));
  EXPECT_EQ(Sha256Hex(ReadFileBytes(path)),
            "bbc53c7ac3299b36138eefef6e21fb211bdb65c48b9a1843ce775eaff9642b3f");
}

TEST_F(ScanCachePersistTest, WarmCacheServesScansIdenticalToCold) {
  const appmodel::PackageFiles files = SamplePackage("warm");
  const Scanner scanner;

  ScanCache cold_cache;
  const ScanResult cold = scanner.Scan(files, &cold_cache);
  const std::string path = PathFor("scan.pscf");
  ASSERT_TRUE(cold_cache.SaveToFile(path));

  ScanCache warm_cache;
  ASSERT_TRUE(warm_cache.LoadFromFile(path));
  const ScanResult warm = scanner.Scan(files, &warm_cache);

  // Everything is served from disk: no file is rescanned.
  EXPECT_EQ(warm.cache_hits, files.size());
  ASSERT_EQ(warm.pins.size(), cold.pins.size());
  for (std::size_t i = 0; i < cold.pins.size(); ++i) {
    EXPECT_EQ(warm.PathOf(warm.pins[i]), cold.PathOf(cold.pins[i])) << i;
    EXPECT_EQ(warm.pins[i].pin_string(), cold.pins[i].pin_string()) << i;
    EXPECT_EQ(warm.pins[i].offset, cold.pins[i].offset) << i;
    ASSERT_EQ(warm.pins[i].well_formed(), cold.pins[i].well_formed()) << i;
    if (cold.pins[i].well_formed()) {
      // The decoded digest is serialized, not recomputed — it must round
      // trip exactly.
      EXPECT_EQ(warm.pins[i].digest.form, cold.pins[i].digest.form) << i;
      EXPECT_TRUE(std::ranges::equal(warm.pins[i].digest.material(),
                                     cold.pins[i].digest.material()))
          << i;
    }
  }
  ASSERT_EQ(warm.certificates.size(), cold.certificates.size());
  for (std::size_t i = 0; i < cold.certificates.size(); ++i) {
    EXPECT_EQ(warm.certificates[i].path, cold.certificates[i].path) << i;
    EXPECT_EQ(warm.certificates[i].cert, cold.certificates[i].cert) << i;
    EXPECT_EQ(warm.certificates[i].from_pem, cold.certificates[i].from_pem)
        << i;
  }
}

TEST_F(ScanCachePersistTest, DamagedFilesLoadNothing) {
  const Scanner scanner;
  ScanCache original;
  (void)scanner.Scan(SamplePackage("victim"), &original);
  const std::string path = PathFor("scan.pscf");
  ASSERT_TRUE(original.SaveToFile(path));

  {  // Flipped payload byte: checksum rejects.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    char last = 0;
    f.seekg(-1, std::ios::end);
    f.read(&last, 1);
    f.seekp(-1, std::ios::end);
    last = static_cast<char>(last ^ 0x40);
    f.write(&last, 1);
  }
  ScanCache corrupt;
  EXPECT_FALSE(corrupt.LoadFromFile(path));
  EXPECT_EQ(corrupt.EntryCount(), 0u);

  ASSERT_TRUE(original.SaveToFile(path));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  ScanCache truncated;
  EXPECT_FALSE(truncated.LoadFromFile(path));
  EXPECT_EQ(truncated.EntryCount(), 0u);

  // A well-formed container of a foreign kind (someone pointed two caches at
  // one file) is rejected by the kind tag, not mis-decoded.
  ASSERT_TRUE(util::WriteCacheFile(path, ScanCache::kFileKind + 1,
                                   ScanCache::kFileVersion, {1, 2, 3}));
  ScanCache foreign;
  EXPECT_FALSE(foreign.LoadFromFile(path));
  EXPECT_EQ(foreign.EntryCount(), 0u);

  ScanCache missing;
  EXPECT_FALSE(missing.LoadFromFile(PathFor("never-written.pscf")));
  EXPECT_EQ(missing.EntryCount(), 0u);
}

// A version 1 file may hold entries for files below kScanCacheMinBytes that
// no lookup reaches, and a warm start would load and checksum them every
// run. It loads nothing now, and the study's save replaces it with a file
// of the current version.
TEST_F(ScanCachePersistTest, VersionOneFileLoadsNothingAndIsReplaced) {
  const Scanner scanner;
  ScanCache cold;
  (void)scanner.Scan(SamplePackage("stale"), &cold);
  ASSERT_GT(cold.EntryCount(), 0u);
  const std::string current = PathFor("current.pscf");
  ASSERT_TRUE(cold.SaveToFile(current));
  const std::optional<util::Bytes> payload = util::ReadCacheFile(
      current, ScanCache::kFileKind, ScanCache::kFileVersion);
  ASSERT_TRUE(payload.has_value());

  // The same entries under a version 1 header, where a warm start looks.
  const std::string cache_dir = PathFor("cache");
  std::filesystem::create_directories(cache_dir);
  const std::string path = core::ScanCachePathFor(cache_dir);
  ASSERT_TRUE(util::WriteCacheFile(path, ScanCache::kFileKind, 1, *payload));

  obs::Observer observer;
  ScanCache warm;
  const core::StudyCacheBaseline baseline =
      core::LoadStudyCaches(cache_dir, &warm, nullptr, &observer);
  EXPECT_EQ(observer.metrics().Snapshot().gauges.at("cache.persist.scan_loaded"),
            0u);
  EXPECT_EQ(warm.EntryCount(), 0u);

  (void)scanner.Scan(SamplePackage("stale"), &warm);
  core::SaveStudyCaches(cache_dir, &warm, nullptr, &observer, baseline);
  EXPECT_EQ(observer.metrics().Snapshot().gauges.at("cache.persist.scan_saved"),
            1u);
  EXPECT_FALSE(util::ReadCacheFile(path, ScanCache::kFileKind, 1).has_value());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(current));
}

// A one-entry payload holding one decoded pin record, laid out as SaveToFile
// writes it, so each test below can break one field.
util::Bytes OnePinPayload(const std::string& text, std::uint8_t form,
                          std::size_t digest_size,
                          std::uint32_t pin_count = 1) {
  util::Bytes payload;
  util::AppendU64(payload, 1);                   // entries
  payload.insert(payload.end(), 32, 0xab);       // key: content digest
  util::AppendU8(payload, 0);                    // key: cert-file flag
  util::AppendU32(payload, 0);                   // certificates
  util::AppendU32(payload, pin_count);           // pins
  util::AppendString(payload, text);
  util::AppendU64(payload, 0);                   // offset
  util::AppendU8(payload, 1);                    // decoded
  util::AppendU8(payload, form);
  util::AppendBlob(payload, util::Bytes(digest_size, 0x5a));
  return payload;
}

// Records no scan can produce load nothing: the cache falls back to a cold
// start instead of serving a pin text longer than a kPinRule match, or a
// digest that is not a sha256/ (32-byte) or sha1/ (20-byte) one.
TEST_F(ScanCachePersistTest, ImpossiblePinRecordsLoadNothing) {
  const std::string path = PathFor("hostile.pscf");
  const auto sha256 = static_cast<std::uint8_t>(tls::PinForm::kSpkiSha256);
  const auto sha1 = static_cast<std::uint8_t>(tls::PinForm::kSpkiSha1);
  const std::string text = "sha256/" + std::string(43, 'A') + "=";

  // The builder itself is sound: the well-formed record loads.
  ASSERT_TRUE(util::WriteCacheFile(path, ScanCache::kFileKind,
                                   ScanCache::kFileVersion,
                                   OnePinPayload(text, sha256, 32)));
  ScanCache sound;
  ASSERT_TRUE(sound.LoadFromFile(path));
  EXPECT_EQ(sound.EntryCount(), 1u);

  const struct {
    const char* what;
    util::Bytes payload;
  } hostile[] = {
      {"72-byte text", OnePinPayload("sha256/" + std::string(65, 'A'), sha256, 32)},
      {"31-byte digest", OnePinPayload(text, sha256, 31)},
      {"33-byte digest", OnePinPayload(text, sha256, 33)},
      {"sha256 form, 20 bytes", OnePinPayload(text, sha256, 20)},
      {"sha1 form, 32 bytes", OnePinPayload(text, sha1, 32)},
      {"certificate form",
       OnePinPayload(text, static_cast<std::uint8_t>(tls::PinForm::kCertificate), 32)},
      {"unknown form", OnePinPayload(text, 0x7f, 32)},
      {"pin count past the payload", OnePinPayload(text, sha256, 32, 0xffffffffu)},
  };
  for (const auto& [what, payload] : hostile) {
    ASSERT_TRUE(util::WriteCacheFile(path, ScanCache::kFileKind,
                                     ScanCache::kFileVersion, payload));
    ScanCache cache;
    EXPECT_FALSE(cache.LoadFromFile(path)) << what;
    EXPECT_EQ(cache.EntryCount(), 0u) << what;
  }
}

TEST_F(ScanCachePersistTest, ConcurrentSavesAreAtomicAndLastWriterWins) {
  // Two studies that analyzed the same corpus hold equal caches; racing
  // their saves into one --cache-dir must leave one intact, loadable file.
  const Scanner scanner;
  ScanCache a, b;
  for (const std::string salt : {"x", "y", "z"}) {
    (void)scanner.Scan(SamplePackage(salt), &a);
    (void)scanner.Scan(SamplePackage(salt), &b);
  }
  ASSERT_EQ(a.EntryCount(), b.EntryCount());

  const std::string path = PathFor("shared.pscf");
  const std::string reference = PathFor("reference.pscf");
  ASSERT_TRUE(a.SaveToFile(reference));

  for (int round = 0; round < 8; ++round) {
    std::thread ta([&] { ASSERT_TRUE(a.SaveToFile(path)); });
    std::thread tb([&] { ASSERT_TRUE(b.SaveToFile(path)); });
    ta.join();
    tb.join();
    // Whichever writer landed last, the file is whole and equal to a serial
    // save of either cache.
    EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(reference)) << round;
    ScanCache loaded;
    EXPECT_TRUE(loaded.LoadFromFile(path)) << round;
    EXPECT_EQ(loaded.EntryCount(), a.EntryCount()) << round;
  }
}

}  // namespace
}  // namespace pinscope::staticanalysis
