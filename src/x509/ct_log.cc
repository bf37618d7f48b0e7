#include "x509/ct_log.h"

#include <cstring>
#include <functional>
#include <optional>

#include "util/base64.h"
#include "util/hex.h"

namespace pinscope::x509 {
namespace {

std::string_view AsKey(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// Decodes any accepted digest spelling to the raw 20 or 32 digest bytes.
std::optional<util::Bytes> DecodeDigest(std::string_view digest) {
  if (util::IsHexString(digest) && (digest.size() == 40 || digest.size() == 64)) {
    return util::HexDecode(digest);
  }
  if (auto raw = util::Base64Decode(digest);
      raw && (raw->size() == 20 || raw->size() == 32)) {
    return raw;
  }
  return std::nullopt;  // unknown form; never matches
}

}  // namespace

std::size_t CtLog::DigestHash::operator()(std::string_view digest) const {
  std::uint64_t h = 0;
  if (digest.size() < sizeof h) return std::hash<std::string_view>{}(digest);
  std::memcpy(&h, digest.data(), sizeof h);
  return static_cast<std::size_t>(h);
}

void CtLog::Add(const Certificate& cert) {
  if (!fingerprints_.emplace(AsKey(cert.FingerprintSha256())).second) return;
  const std::size_t idx = certs_.size();
  certs_.push_back(cert);

  by_spki_[std::string(AsKey(cert.SpkiSha256()))].push_back(idx);
  by_spki_[std::string(AsKey(cert.SpkiSha1()))].push_back(idx);
  by_cn_[std::string(cert.subject().common_name())].push_back(idx);
}

std::span<const std::size_t> CtLog::SpkiDigestIndices(
    std::span<const std::uint8_t> digest) const {
  const auto it = by_spki_.find(AsKey(digest));
  if (it == by_spki_.end()) return {};
  return it->second;
}

std::vector<Certificate> CtLog::FindBySpkiDigest(std::string_view digest) const {
  std::vector<Certificate> out;
  const auto raw = DecodeDigest(digest);
  if (!raw) return out;
  const std::span<const std::size_t> indices = SpkiDigestIndices(*raw);
  out.reserve(indices.size());
  for (std::size_t idx : indices) out.push_back(certs_[idx]);
  return out;
}

std::vector<Certificate> CtLog::FindBySubjectCn(std::string_view cn) const {
  std::vector<Certificate> out;
  const auto it = by_cn_.find(std::string(cn));
  if (it == by_cn_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t idx : it->second) out.push_back(certs_[idx]);
  return out;
}

}  // namespace pinscope::x509
