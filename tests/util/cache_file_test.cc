// Unit tests for the versioned on-disk cache container (DESIGN.md §15):
// header round trip, the written bytes against a golden digest, every
// rejection path (missing, foreign kind, version skew, truncation, a size
// field past the file, trailing bytes, flipped payload byte), atomic
// write-replace, and the little-endian payload codec. Carries the `stream` ctest label so it also
// runs under the sanitizer presets.
#include "util/cache_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "crypto/sha256.h"
#include "util/hex.h"

namespace pinscope::util {
namespace {

constexpr std::uint32_t kKind = 0x31545354;  // "TST1"
constexpr std::uint32_t kVersion = 3;

class CacheFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pinscope_cache_file_test_" +
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

  static Bytes SamplePayload() {
    Bytes payload;
    for (int i = 0; i < 300; ++i) {
      payload.push_back(static_cast<std::uint8_t>(i * 7));
    }
    return payload;
  }

  std::filesystem::path dir_;
};

std::string FileSha256Hex(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  const crypto::Sha256Digest digest = crypto::Sha256(bytes);
  return HexEncode(Bytes(digest.begin(), digest.end()));
}

TEST_F(CacheFileTest, RoundTripsPayloadBytes) {
  const std::string path = PathFor("cache.pscf");
  const Bytes payload = SamplePayload();
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, payload));

  const auto read = ReadCacheFile(path, kKind, kVersion);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, payload);
}

// The container's bytes are a format, not an implementation detail: a
// rewrite of the read or write path must leave them unchanged, and a change
// that means to alter them bumps the caller's version instead.
TEST_F(CacheFileTest, WrittenBytesMatchTheGoldenDigest) {
  const std::string path = PathFor("golden.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  EXPECT_EQ(std::filesystem::file_size(path), 28u + 300u);
  EXPECT_EQ(FileSha256Hex(path), "a16baf92ffe8de8fe2f0075ee5aae47f0210a2f135aadeb45db33faf0a106536");
}

TEST_F(CacheFileTest, EmptyPayloadRoundTrips) {
  const std::string path = PathFor("empty.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, {}));
  const auto read = ReadCacheFile(path, kKind, kVersion);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->empty());
}

TEST_F(CacheFileTest, MissingFileIsColdStart) {
  EXPECT_FALSE(ReadCacheFile(PathFor("absent.pscf"), kKind, kVersion)
                   .has_value());
}

TEST_F(CacheFileTest, ForeignKindIsRejected) {
  const std::string path = PathFor("kind.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  EXPECT_FALSE(ReadCacheFile(path, kKind + 1, kVersion).has_value());
}

TEST_F(CacheFileTest, VersionSkewIsRejectedBothWays) {
  const std::string path = PathFor("version.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion + 1).has_value());
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion - 1).has_value());
}

TEST_F(CacheFileTest, TruncationAnywhereIsRejected) {
  const std::string path = PathFor("trunc.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  const auto full = std::filesystem::file_size(path);
  // Cut mid-payload, mid-header, and to nothing.
  for (const std::uintmax_t keep : {full - 1, full / 2, std::uintmax_t{7},
                                    std::uintmax_t{0}}) {
    ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
    std::filesystem::resize_file(path, keep);
    EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion).has_value())
        << "kept " << keep << " of " << full << " bytes";
  }
}

// A header whose size field claims more than the file holds is rejected
// before the payload is allocated: reading it must not ask for 2^62 bytes.
TEST_F(CacheFileTest, SizeFieldPastTheFileIsRejectedBeforeAllocating) {
  const std::string path = PathFor("oversized.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    Bytes size;
    AppendU64(size, std::uint64_t{1} << 62);
    f.seekp(12);  // magic, kind, version, then the payload size
    f.write(reinterpret_cast<const char*>(size.data()),
            static_cast<std::streamsize>(size.size()));
  }
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion).has_value());
}

TEST_F(CacheFileTest, BytesAfterThePayloadAreRejected) {
  const std::string path = PathFor("trailing.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.put('\0');
  }
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion).has_value());
}

TEST_F(CacheFileTest, FlippedPayloadByteFailsTheChecksum) {
  const std::string path = PathFor("corrupt.pscf");
  const Bytes payload = SamplePayload();
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, payload));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-1, std::ios::end);  // last payload byte
    const char flipped = static_cast<char>(payload.back() ^ 0x01);
    f.write(&flipped, 1);
  }
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion).has_value());
}

TEST_F(CacheFileTest, RewriteReplacesAtomicallyAndLeavesNoTempFiles) {
  const std::string path = PathFor("replace.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  Bytes second = {1, 2, 3};
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, second));

  const auto read = ReadCacheFile(path, kKind, kVersion);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, second);

  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // the destination only; every temp was renamed away
}

TEST_F(CacheFileTest, EqualPayloadsWriteIdenticalFiles) {
  const std::string a = PathFor("a.pscf");
  const std::string b = PathFor("b.pscf");
  ASSERT_TRUE(WriteCacheFile(a, kKind, kVersion, SamplePayload()));
  ASSERT_TRUE(WriteCacheFile(b, kKind, kVersion, SamplePayload()));
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(CacheFileCodecTest, RoundTripsEveryFieldType) {
  Bytes out;
  AppendU8(out, 0xAB);
  AppendU32(out, 0xDEADBEEFu);
  AppendU64(out, 0x0123456789ABCDEFull);
  AppendI64(out, -42);
  AppendString(out, "pin-string");
  AppendBlob(out, {9, 8, 7});
  AppendString(out, "");  // empty values must survive too

  ByteReader r(out);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.String(), "pin-string");
  EXPECT_EQ(r.Blob(), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.String(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CacheFileCodecTest, OverReadTurnsStickyNotUndefined) {
  Bytes out;
  AppendU32(out, 5);
  ByteReader r(out);
  EXPECT_EQ(r.U32(), 5u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: zero value, ok() drops
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.String(), "");  // stays zero-valued afterwards
  EXPECT_FALSE(r.ok());
}

TEST(CacheFileCodecTest, BlobViewAliasesThePayload) {
  Bytes out;
  AppendBlob(out, {9, 8, 7});
  AppendString(out, "pin");
  ByteReader r(out);
  const std::span<const std::uint8_t> blob = r.BlobView();
  ASSERT_EQ(blob.size(), 3u);
  EXPECT_EQ(blob.data(), out.data() + 4);  // a view, not a copy
  EXPECT_EQ(blob[2], 7);
  EXPECT_EQ(r.BlobView().size(), 3u);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.BlobView().empty());  // past the end: empty, ok() drops
  EXPECT_FALSE(r.ok());
}

TEST(CacheFileCodecTest, TruncatedLengthPrefixedStringFailsCleanly) {
  Bytes out;
  AppendString(out, "0123456789");
  out.resize(out.size() - 4);  // length says 10, only 6 bytes remain
  ByteReader r(out);
  EXPECT_EQ(r.String(), "");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace pinscope::util
