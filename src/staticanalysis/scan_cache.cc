#include "staticanalysis/scan_cache.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "util/cache_file.h"

namespace pinscope::staticanalysis {

ScanCache::Key ScanCache::MakeKey(const util::Bytes& content, bool cert_file) {
  return Key{crypto::Sha256(content), cert_file};
}

namespace {

// One pin's encoding, at most: u32 text size, the text, u64 offset, u8
// decoded flag, then u8 form, u32 digest size and the digest.
constexpr std::size_t kMaxPinBytes =
    4 + FoundPin::kMaxTextSize + 8 + 1 + 1 + 4 + sizeof(tls::PinDigest::bytes);
// ...and at least: an empty text, the offset and a clear flag. A pin count
// read from a file is trusted for sizing only up to remaining() / this.
constexpr std::size_t kMinPinBytes = 4 + 8 + 1;
// A certificate's at least: its PEM flag and an empty DER blob.
constexpr std::size_t kMinCertBytes = 1 + 4;
// An entry's at least: its key and two empty counts.
constexpr std::size_t kMinEntryBytes = 32 + 1 + 4 + 4;

// Assembles one pin's encoding on the stack and appends it once. The
// decoded digest is stored, not re-derived at load: pin-dense files carry
// thousands of pins per entry, and decoding each again would make loading
// as expensive as the scan the cache exists to skip.
void AppendPin(util::Bytes& out, const FoundPin& pin) {
  std::array<std::uint8_t, kMaxPinBytes> buf;
  std::uint8_t* at = util::StoreLE(buf.data(), std::uint32_t{pin.text_size});
  std::memcpy(at, pin.text.data(), pin.text_size);
  at = util::StoreLE(at + pin.text_size, std::uint64_t{pin.offset});
  *at++ = pin.well_formed() ? 1 : 0;
  if (pin.well_formed()) {
    *at++ = static_cast<std::uint8_t>(pin.digest.form);
    at = util::StoreLE(at, std::uint32_t{pin.digest.size});
    std::memcpy(at, pin.digest.bytes.data(), pin.digest.size);
    at += pin.digest.size;
  }
  out.insert(out.end(), buf.data(), at);
}

// Decodes one pin written by AppendPin into `pin`, through views into the
// payload. False on a record no scan can produce: a text longer than a
// kPinRule match, or a digest other than sha256/ with 32 bytes or sha1/
// with 20.
bool ReadPin(util::ByteReader& reader, FoundPin& pin) {
  const std::span<const std::uint8_t> text = reader.BlobView();
  if (text.size() > FoundPin::kMaxTextSize) return false;
  pin.text_size = static_cast<std::uint8_t>(text.size());
  std::copy(text.begin(), text.end(), pin.text.begin());
  pin.offset = reader.U64();
  if (reader.U8() == 0) return true;
  const std::uint8_t form = reader.U8();
  const std::span<const std::uint8_t> digest = reader.BlobView();
  const std::size_t want =
      form == static_cast<std::uint8_t>(tls::PinForm::kSpkiSha256) ? 32
      : form == static_cast<std::uint8_t>(tls::PinForm::kSpkiSha1) ? 20
                                                                    : 0;
  if (want == 0 || digest.size() != want) return false;
  pin.digest.form = static_cast<tls::PinForm>(form);
  pin.digest.size = static_cast<std::uint8_t>(digest.size());
  std::copy(digest.begin(), digest.end(), pin.digest.bytes.begin());
  return true;
}

}  // namespace

bool ScanCache::SaveToFile(const std::string& path) const {
  // Order by key: equal caches ⇒ equal bytes.
  auto entries = Entries();
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.first.digest != b.first.digest) return a.first.digest < b.first.digest;
    return a.first.cert_file < b.first.cert_file;
  });

  // Reserve an upper bound once: the payload never regrows, and the pages
  // the shorter real pins leave untouched are never resident.
  std::size_t bound = 8;
  for (const auto& [key, scan] : entries) {
    bound += kMinEntryBytes + scan->pins.size() * kMaxPinBytes;
    for (const FoundCertificate& c : scan->certificates) {
      bound += kMinCertBytes + c.cert.DerBytes().size();
    }
  }
  util::Bytes payload;
  payload.reserve(bound);
  util::AppendU64(payload, entries.size());
  for (const auto& [key, scan] : entries) {
    payload.insert(payload.end(), key.digest.begin(), key.digest.end());
    util::AppendU8(payload, key.cert_file ? 1 : 0);
    util::AppendU32(payload, static_cast<std::uint32_t>(scan->certificates.size()));
    for (const FoundCertificate& c : scan->certificates) {
      util::AppendU8(payload, c.from_pem ? 1 : 0);
      util::AppendBlob(payload, c.cert.DerBytes());
    }
    util::AppendU32(payload, static_cast<std::uint32_t>(scan->pins.size()));
    for (const FoundPin& p : scan->pins) AppendPin(payload, p);
  }
  return util::WriteCacheFile(path, kFileKind, kFileVersion, payload);
}

bool ScanCache::LoadFromFile(const std::string& path) {
  const std::optional<util::Bytes> payload =
      util::ReadCacheFile(path, kFileKind, kFileVersion);
  if (!payload.has_value()) return false;

  // Counts come from the file, so every reserve is capped by what the bytes
  // left could hold: a hostile count fails the decode, not the allocator.
  util::ByteReader reader(*payload);
  const std::uint64_t count = reader.U64();
  std::vector<std::pair<Key, std::shared_ptr<const CachedFileScan>>> loaded;
  loaded.reserve(
      std::min<std::uint64_t>(count, reader.remaining() / kMinEntryBytes));
  for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
    Key key;
    reader.Raw(key.digest.data(), key.digest.size());
    key.cert_file = reader.U8() != 0;
    auto scan = std::make_shared<CachedFileScan>();
    const std::uint32_t n_certs = reader.U32();
    scan->certificates.reserve(
        std::min<std::size_t>(n_certs, reader.remaining() / kMinCertBytes));
    for (std::uint32_t c = 0; c < n_certs && reader.ok(); ++c) {
      FoundCertificate found;
      found.from_pem = reader.U8() != 0;
      const std::optional<x509::Certificate> cert =
          x509::Certificate::ParseDer(reader.Blob());
      if (!cert.has_value()) return false;
      found.cert = *cert;
      scan->certificates.push_back(std::move(found));
    }
    // A pin count the bytes left cannot hold fails before its records are
    // allocated; the records are zeroed, as a scan builds them.
    const std::uint32_t n_pins = reader.U32();
    if (n_pins > reader.remaining() / kMinPinBytes) return false;
    scan->pins.resize(n_pins);
    for (FoundPin& pin : scan->pins) {
      if (!ReadPin(reader, pin)) return false;
    }
    loaded.emplace_back(key, std::move(scan));
  }
  if (!reader.ok() || !reader.AtEnd()) return false;

  // All-or-nothing: deposit only after the whole payload decoded cleanly.
  for (auto& [key, scan] : loaded) (void)Insert(key, std::move(scan));
  return true;
}

}  // namespace pinscope::staticanalysis
