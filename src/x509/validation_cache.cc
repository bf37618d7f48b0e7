#include "x509/validation_cache.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "util/cache_file.h"

namespace pinscope::x509 {

ValidationCache::Key ValidationCache::MakeKey(const CertificateChain& chain,
                                              std::string_view hostname,
                                              util::SimTime now,
                                              const RootStore& store,
                                              const ValidationOptions& options) {
  Key key;
  // Chain identity: the concatenated per-certificate DER fingerprints. The
  // per-cert digests are cached on the certificates themselves, so building
  // a key costs n 32-byte copies — no serialization, no extra hashing.
  key.chain_fp.reserve(chain.size() * sizeof(crypto::Sha256Digest));
  for (const Certificate& cert : chain) {
    const crypto::Sha256Digest& fp = cert.FingerprintSha256();
    key.chain_fp.insert(key.chain_fp.end(), fp.begin(), fp.end());
  }
  key.store_token = store.ContentToken();
  key.options_token = (options.check_hostname ? 1ULL : 0ULL) |
                      (options.check_expiry ? 2ULL : 0ULL) |
                      (options.check_signatures ? 4ULL : 0ULL) |
                      (options.require_trusted_root ? 8ULL : 0ULL) |
                      (options.revoked_serials.Token() << 4);
  key.now = now;
  key.hostname.assign(hostname);
  return key;
}

bool ValidationCache::SaveToFile(const std::string& path) const {
  auto entries = Entries();
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.chain_fp, a.first.store_token, a.first.options_token,
                    a.first.now, a.first.hostname) <
           std::tie(b.first.chain_fp, b.first.store_token, b.first.options_token,
                    b.first.now, b.first.hostname);
  });

  util::Bytes payload;
  util::AppendU64(payload, entries.size());
  for (const auto& [key, result] : entries) {
    util::AppendBlob(payload, key.chain_fp);
    util::AppendU64(payload, key.store_token);
    util::AppendU64(payload, key.options_token);
    util::AppendI64(payload, key.now);
    util::AppendString(payload, key.hostname);
    util::AppendU8(payload, static_cast<std::uint8_t>(result.status));
    util::AppendU64(payload, result.failing_index);
  }
  return util::WriteCacheFile(path, kFileKind, kFileVersion, payload);
}

bool ValidationCache::LoadFromFile(const std::string& path) {
  const std::optional<util::Bytes> payload =
      util::ReadCacheFile(path, kFileKind, kFileVersion);
  if (!payload.has_value()) return false;

  util::ByteReader reader(*payload);
  const std::uint64_t count = reader.U64();
  std::vector<std::pair<Key, ValidationResult>> loaded;
  for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
    Key key;
    key.chain_fp = reader.Blob();
    key.store_token = reader.U64();
    key.options_token = reader.U64();
    key.now = reader.I64();
    key.hostname = reader.String();
    ValidationResult result;
    const std::uint8_t status = reader.U8();
    if (status > static_cast<std::uint8_t>(ValidationStatus::kPathLenExceeded)) {
      return false;
    }
    result.status = static_cast<ValidationStatus>(status);
    result.failing_index = reader.U64();
    loaded.emplace_back(std::move(key), result);
  }
  if (!reader.ok() || !reader.AtEnd()) return false;

  // All-or-nothing: deposit only after the whole payload decoded cleanly.
  for (auto& [key, result] : loaded) (void)Insert(std::move(key), result);
  return true;
}

ValidationResult CachedValidateChain(ValidationCache* cache,
                                     const CertificateChain& chain,
                                     std::string_view hostname,
                                     util::SimTime now, const RootStore& store,
                                     const ValidationOptions& options) {
  if (cache == nullptr) {
    return ValidateChain(chain, hostname, now, store, options);
  }
  ValidationCache::Key key =
      ValidationCache::MakeKey(chain, hostname, now, store, options);
  if (const std::optional<ValidationResult> hit = cache->Find(key)) {
    return *hit;
  }
  const ValidationResult result =
      ValidateChain(chain, hostname, now, store, options);
  return cache->Insert(std::move(key), result);
}

}  // namespace pinscope::x509
