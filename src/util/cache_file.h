// Versioned on-disk container for persistent caches (DESIGN.md §15).
//
// Both persistent caches (the static-scan cache and the chain-validation
// memo) serialize through this one container so the durability rules live in
// a single place:
//
//   - Header: magic, a per-cache kind tag, a format version, the payload
//     size, and an FNV-1a checksum of the payload. Any mismatch — wrong
//     kind, unknown version, truncated file, flipped payload byte — makes
//     ReadCacheFile return nullopt, and the caller starts cold. A cache
//     file can make a run slower, never wrong, and never crash it.
//   - Atomic write-replace: WriteCacheFile writes a unique temporary next
//     to the destination and std::rename()s it into place, so concurrent
//     writers into one --cache-dir are last-writer-wins and readers never
//     observe a torn file. (Callers serialize entries in sorted key order,
//     which makes equal caches produce equal bytes — so "last writer" is
//     unobservable when the writers analyzed the same corpus.)
//
// The checksum guards against corruption, not adversaries; a cache dir is
// local scratch state with the same trust level as the build tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/bytes.h"

namespace pinscope::util {

/// Writes `payload` under a versioned, checksummed header and atomically
/// replaces `path`. Returns false on any I/O failure (callers treat that as
/// "cache not persisted", never as an error).
bool WriteCacheFile(const std::string& path, std::uint32_t kind,
                    std::uint32_t version, const Bytes& payload);

/// Reads `path`, verifies magic + kind + version + size + checksum, and
/// returns the payload. nullopt on a missing, foreign, version-mismatched,
/// truncated, overlong, or corrupt file — the cold-start signal. The header's
/// payload size is checked against the file's size before anything is
/// allocated, and the payload is then read once into an exactly sized
/// buffer.
[[nodiscard]] std::optional<Bytes> ReadCacheFile(const std::string& path,
                                                 std::uint32_t kind,
                                                 std::uint32_t version);

// --- Little-endian payload codec helpers -----------------------------------
// Shared by the cache serializers so both payload formats are trivially
// byte-stable across platforms.

/// Stores `v` little-endian at `dst` and returns the byte after it, for
/// encoders that assemble a record on the stack and append it in one go.
template <typename T>
std::uint8_t* StoreLE(std::uint8_t* dst, T v) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return dst + sizeof(T);
}

void AppendU8(Bytes& out, std::uint8_t v);
void AppendU32(Bytes& out, std::uint32_t v);
void AppendU64(Bytes& out, std::uint64_t v);
void AppendI64(Bytes& out, std::int64_t v);
/// Length-prefixed (u32) string.
void AppendString(Bytes& out, std::string_view s);
/// Length-prefixed (u32) blob.
void AppendBlob(Bytes& out, const Bytes& b);

/// Sequential payload reader. Every accessor returns a zero value once a
/// read has run past the end; check ok() (and AtEnd()) after decoding.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(&data) {}

  [[nodiscard]] std::uint8_t U8();
  [[nodiscard]] std::uint32_t U32();
  [[nodiscard]] std::uint64_t U64();
  [[nodiscard]] std::int64_t I64();
  [[nodiscard]] std::string String();
  [[nodiscard]] Bytes Blob();
  /// A length-prefixed (u32) string or blob as a view into the payload, with
  /// no copy: valid while the payload lives. Empty once a read ran past the
  /// end.
  [[nodiscard]] std::span<const std::uint8_t> BlobView();
  /// Copies exactly `n` raw bytes into `dst`.
  bool Raw(std::uint8_t* dst, std::size_t n);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool AtEnd() const { return pos_ == data_->size(); }
  /// Bytes not yet read: an upper bound on what a count read from the
  /// payload can describe, for sizing before a hostile count is trusted.
  [[nodiscard]] std::size_t remaining() const { return data_->size() - pos_; }

 private:
  const Bytes* data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pinscope::util
