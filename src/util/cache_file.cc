#include "util/cache_file.h"

#include <sys/stat.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>

namespace pinscope::util {

namespace {

constexpr std::uint32_t kMagic = 0x46435350;  // "PSCF" little-endian.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8;

/// FNV-1a 64-bit over the payload: an integrity (not security) check that
/// catches truncation and bit rot without pulling crypto into util.
std::uint64_t Checksum(const Bytes& payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : payload) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
T LoadLE(const std::uint8_t* src) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(src[i]) << (8 * i));
  }
  return v;
}

// The header's fields, at fixed offsets.
constexpr std::size_t kKindAt = 4;
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kSizeAt = 12;
constexpr std::size_t kChecksumAt = 20;

}  // namespace

void AppendU8(Bytes& out, std::uint8_t v) { out.push_back(v); }

void AppendU32(Bytes& out, std::uint32_t v) {
  std::array<std::uint8_t, sizeof(v)> le;
  StoreLE(le.data(), v);
  out.insert(out.end(), le.begin(), le.end());
}

void AppendU64(Bytes& out, std::uint64_t v) {
  std::array<std::uint8_t, sizeof(v)> le;
  StoreLE(le.data(), v);
  out.insert(out.end(), le.begin(), le.end());
}

void AppendI64(Bytes& out, std::int64_t v) {
  AppendU64(out, static_cast<std::uint64_t>(v));
}

void AppendString(Bytes& out, std::string_view s) {
  AppendU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void AppendBlob(Bytes& out, const Bytes& b) {
  AppendU32(out, static_cast<std::uint32_t>(b.size()));
  out.insert(out.end(), b.begin(), b.end());
}

std::uint8_t ByteReader::U8() {
  std::uint8_t v = 0;
  Raw(&v, 1);
  return v;
}

std::uint32_t ByteReader::U32() {
  std::uint8_t raw[4] = {};
  Raw(raw, sizeof(raw));
  return LoadLE<std::uint32_t>(raw);
}

std::uint64_t ByteReader::U64() {
  std::uint8_t raw[8] = {};
  Raw(raw, sizeof(raw));
  return LoadLE<std::uint64_t>(raw);
}

std::int64_t ByteReader::I64() { return static_cast<std::int64_t>(U64()); }

std::span<const std::uint8_t> ByteReader::BlobView() {
  const std::uint32_t n = U32();
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return {};
  }
  const std::span<const std::uint8_t> view(data_->data() + pos_, n);
  pos_ += n;
  return view;
}

std::string ByteReader::String() {
  const std::span<const std::uint8_t> view = BlobView();
  return std::string(view.begin(), view.end());
}

Bytes ByteReader::Blob() {
  const std::span<const std::uint8_t> view = BlobView();
  return Bytes(view.begin(), view.end());
}

bool ByteReader::Raw(std::uint8_t* dst, std::size_t n) {
  if (!ok_ || data_->size() - pos_ < n) {
    ok_ = false;
    std::memset(dst, 0, n);
    return false;
  }
  std::memcpy(dst, data_->data() + pos_, n);
  pos_ += n;
  return true;
}

bool WriteCacheFile(const std::string& path, std::uint32_t kind,
                    std::uint32_t version, const Bytes& payload) {
  std::array<std::uint8_t, kHeaderBytes> header;
  std::uint8_t* at = StoreLE(header.data(), kMagic);
  at = StoreLE(at, kind);
  at = StoreLE(at, version);
  at = StoreLE(at, static_cast<std::uint64_t>(payload.size()));
  StoreLE(at, Checksum(payload));

  // Unique temp name per writer so two studies saving into one cache dir
  // never scribble on the same in-progress file; rename() then publishes
  // whole files only.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(counter.fetch_add(1)) + "." +
                          std::to_string(reinterpret_cast<std::uintptr_t>(&counter));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  // Header and payload go out as two writes: the payload is never copied
  // behind a header.
  const bool written =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), f) == payload.size());
  const bool flushed = std::fclose(f) == 0;
  if (!written || !flushed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<Bytes> ReadCacheFile(const std::string& path, std::uint32_t kind,
                                   std::uint32_t version) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) return std::nullopt;
  std::array<std::uint8_t, kHeaderBytes> header;
  if (std::fread(header.data(), 1, header.size(), f.get()) != header.size()) {
    return std::nullopt;
  }
  if (LoadLE<std::uint32_t>(header.data()) != kMagic) return std::nullopt;
  if (LoadLE<std::uint32_t>(header.data() + kKindAt) != kind) return std::nullopt;
  if (LoadLE<std::uint32_t>(header.data() + kVersionAt) != version) {
    return std::nullopt;
  }
  // The size field must describe exactly the rest of the file — checked
  // before the payload is allocated, so a hostile header cannot ask for
  // more memory than the file holds, and trailing bytes are rejected too.
  const std::uint64_t payload_size = LoadLE<std::uint64_t>(header.data() + kSizeAt);
  struct stat st {};
  if (fstat(fileno(f.get()), &st) != 0 ||
      st.st_size < static_cast<off_t>(kHeaderBytes) ||
      static_cast<std::uint64_t>(st.st_size) - kHeaderBytes != payload_size) {
    return std::nullopt;
  }
  Bytes payload(payload_size);
  if (!payload.empty() &&
      std::fread(payload.data(), 1, payload.size(), f.get()) != payload.size()) {
    return std::nullopt;
  }
  if (Checksum(payload) != LoadLE<std::uint64_t>(header.data() + kChecksumAt)) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace pinscope::util
