#include "staticanalysis/scan_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/cache_file.h"

namespace pinscope::staticanalysis {

ScanCache::Key ScanCache::MakeKey(const util::Bytes& content, bool cert_file) {
  return Key{crypto::Sha256(content), cert_file};
}

bool ScanCache::SaveToFile(const std::string& path) const {
  // Order by key: equal caches ⇒ equal bytes.
  auto entries = Entries();
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.first.digest != b.first.digest) return a.first.digest < b.first.digest;
    return a.first.cert_file < b.first.cert_file;
  });

  util::Bytes payload;
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
    for (const FoundPin& p : scan->pins) {
      util::AppendString(payload, p.pin_string);
      util::AppendU64(payload, p.offset);
      // The decoded form is stored, not re-derived at load: pin-dense files
      // carry thousands of pins per entry, and re-running FromPinString on
      // each would make loading as expensive as the scan the cache exists
      // to skip.
      util::AppendU8(payload, p.parsed.has_value() ? 1 : 0);
      if (p.parsed.has_value()) {
        util::AppendU8(payload, static_cast<std::uint8_t>(p.parsed->form));
        util::AppendBlob(payload, p.parsed->material);
      }
    }
  }
  return util::WriteCacheFile(path, kFileKind, kFileVersion, payload);
}

bool ScanCache::LoadFromFile(const std::string& path) {
  const std::optional<util::Bytes> payload =
      util::ReadCacheFile(path, kFileKind, kFileVersion);
  if (!payload.has_value()) return false;

  util::ByteReader reader(*payload);
  const std::uint64_t count = reader.U64();
  std::vector<std::pair<Key, std::shared_ptr<const CachedFileScan>>> loaded;
  for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
    Key key;
    reader.Raw(key.digest.data(), key.digest.size());
    key.cert_file = reader.U8() != 0;
    CachedFileScan scan;
    const std::uint32_t n_certs = reader.U32();
    for (std::uint32_t c = 0; c < n_certs && reader.ok(); ++c) {
      FoundCertificate found;
      found.from_pem = reader.U8() != 0;
      const std::optional<x509::Certificate> cert =
          x509::Certificate::ParseDer(reader.Blob());
      if (!cert.has_value()) return false;
      found.cert = *cert;
      scan.certificates.push_back(std::move(found));
    }
    const std::uint32_t n_pins = reader.U32();
    for (std::uint32_t p = 0; p < n_pins && reader.ok(); ++p) {
      FoundPin pin;
      pin.pin_string = reader.String();
      pin.offset = reader.U64();
      if (reader.U8() != 0) {
        const std::uint8_t form = reader.U8();
        if (form > static_cast<std::uint8_t>(tls::PinForm::kPublicKey)) {
          return false;
        }
        tls::Pin parsed;
        parsed.form = static_cast<tls::PinForm>(form);
        parsed.material = reader.Blob();
        pin.parsed = std::move(parsed);
      }
      scan.pins.push_back(std::move(pin));
    }
    loaded.emplace_back(key, std::make_shared<const CachedFileScan>(std::move(scan)));
  }
  if (!reader.ok() || !reader.AtEnd()) return false;

  // All-or-nothing: deposit only after the whole payload decoded cleanly.
  for (auto& [key, scan] : loaded) (void)Insert(key, std::move(scan));
  return true;
}

}  // namespace pinscope::staticanalysis
