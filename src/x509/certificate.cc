#include "x509/certificate.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/error.h"
#include "util/hex.h"
#include "util/strings.h"

namespace pinscope::x509 {
namespace {

constexpr std::string_view kMagic = "PSCERT.v1";

void AppendField(std::string& out, std::string_view key, std::string_view value) {
  out.append(key);
  out.push_back('=');
  out.append(value);
  out.push_back('\n');
}

// strtoll over a view without materializing a NUL-terminated string. A stack
// buffer keeps strtoll's exact leading-whitespace / sign / overflow-clamping
// behavior; serialized timestamps are far below the buffer size.
long long ParseLongLong(std::string_view value) {
  char buf[64];
  const std::size_t n = std::min(value.size(), sizeof(buf) - 1);
  std::memcpy(buf, value.data(), n);
  buf[n] = '\0';
  return std::strtoll(buf, nullptr, 10);
}

}  // namespace

Certificate::Certificate(CertificateData data) : data_(std::move(data)) {
  if (data_.serial_hex.empty()) throw util::Error("certificate requires a serial");
}

Certificate::DigestCache& Certificate::Cache() const {
  DigestCache* cache = digests_.load(std::memory_order_acquire);
  if (cache == nullptr) {
    auto fresh = std::make_unique<DigestCache>();
    if (digests_.compare_exchange_strong(cache, fresh.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      cache = fresh.release();
    }
    // On failure `cache` was reloaded with the winning thread's cache.
  }
  return *cache;
}

Certificate::DigestCache* Certificate::Share(
    const std::atomic<DigestCache*>& slot) {
  DigestCache* cache = slot.load(std::memory_order_acquire);
  if (cache != nullptr) cache->refs.fetch_add(1, std::memory_order_relaxed);
  return cache;
}

void Certificate::Release(DigestCache* cache) {
  if (cache != nullptr &&
      cache->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete cache;
  }
}

const util::Bytes& Certificate::TbsBytes() const {
  DigestCache& digests = Cache();
  std::call_once(digests.tbs_once, [this, &digests] {
    std::string out;
    out.append(kMagic);
    out.push_back('\n');
    AppendField(out, "serial", data_.serial_hex);
    AppendField(out, "subject", data_.subject.ToString());
    AppendField(out, "issuer", data_.issuer.ToString());
    AppendField(out, "not_before", std::to_string(data_.not_before));
    AppendField(out, "not_after", std::to_string(data_.not_after));
    AppendField(out, "san", util::Join(data_.san_dns, "|"));
    AppendField(out, "ca", data_.is_ca ? "1" : "0");
    if (data_.path_len.has_value()) {
      AppendField(out, "pathlen", std::to_string(*data_.path_len));
    }
    AppendField(out, "spki", util::ToString(data_.spki));
    digests.tbs = util::ToBytes(out);
  });
  return digests.tbs;
}

util::Bytes Certificate::DerBytes() const {
  util::Bytes out = TbsBytes();
  util::Append(out, "sig=" + util::HexEncode(data_.signature) + "\n");
  return out;
}

std::size_t Certificate::DerSize() const {
  // DerBytes() is the TBS plus "sig=<hex>\n": 5 framing bytes and two hex
  // characters per signature byte.
  return TbsBytes().size() + 5 + 2 * data_.signature.size();
}

std::optional<Certificate> Certificate::ParseDer(const util::Bytes& der) {
  // Zero-copy line walk: the only allocations are the retained field values
  // themselves. This parser runs once per certificate of every bundle in
  // every scanned app, so the former ToString + Split + per-line substr
  // copies dominated uncached scan cost.
  const std::string_view text(reinterpret_cast<const char*>(der.data()),
                              der.size());
  CertificateData data;
  bool saw_serial = false;
  bool first = true;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t line_end = nl == std::string_view::npos ? text.size() : nl;
    const std::string_view line = text.substr(pos, line_end - pos);
    pos = line_end + 1;  // text.size() + 1 terminates the loop at the end
    if (first) {
      if (line != kMagic) return std::nullopt;
      first = false;
      continue;
    }
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "serial") {
      data.serial_hex = value;
      saw_serial = true;
    } else if (key == "subject") {
      data.subject = DistinguishedName::Parse(value);
    } else if (key == "issuer") {
      data.issuer = DistinguishedName::Parse(value);
    } else if (key == "not_before") {
      data.not_before = ParseLongLong(value);
    } else if (key == "not_after") {
      data.not_after = ParseLongLong(value);
    } else if (key == "san") {
      if (!value.empty()) data.san_dns = util::Split(value, '|');
    } else if (key == "ca") {
      data.is_ca = value == "1";
    } else if (key == "pathlen") {
      data.path_len = static_cast<int>(ParseLongLong(value));
    } else if (key == "spki") {
      data.spki = util::ToBytes(value);
    } else if (key == "sig") {
      const auto sig = util::HexDecode(value);
      if (!sig) return std::nullopt;
      data.signature = *sig;
    } else {
      return std::nullopt;  // unknown field: treat as corruption
    }
  }
  if (!saw_serial || data.spki.empty()) return std::nullopt;
  return Certificate(std::move(data));
}

const Certificate::DigestCache& Certificate::Digests() const {
  DigestCache& digests = Cache();
  std::call_once(digests.once, [this, &digests] {
    digests.fingerprint = crypto::Sha256(DerBytes());
    digests.spki_sha256 = crypto::Sha256(data_.spki);
    digests.spki_sha1 = crypto::Sha1(data_.spki);
  });
  return digests;
}

const crypto::Sha256Digest& Certificate::FingerprintSha256() const {
  return Digests().fingerprint;
}

const crypto::Sha256Digest& Certificate::SpkiSha256() const {
  return Digests().spki_sha256;
}

const crypto::Sha1Digest& Certificate::SpkiSha1() const {
  return Digests().spki_sha1;
}

bool HostnameMatchesPattern(std::string_view hostname, std::string_view pattern) {
  if (hostname.empty() || pattern.empty()) return false;
  if (util::StartsWith(pattern, "*.")) {
    const std::string_view suffix = pattern.substr(1);  // ".example.com"
    if (!util::EndsWith(hostname, suffix)) return false;
    const std::string_view label = hostname.substr(0, hostname.size() - suffix.size());
    // Exactly one extra, non-empty label: no dots allowed inside it.
    return !label.empty() && label.find('.') == std::string_view::npos;
  }
  return hostname == pattern;
}

bool Certificate::MatchesHostname(std::string_view hostname) const {
  if (data_.san_dns.empty()) {
    return HostnameMatchesPattern(hostname, data_.subject.common_name());
  }
  for (const std::string& san : data_.san_dns) {
    if (HostnameMatchesPattern(hostname, san)) return true;
  }
  return false;
}

}  // namespace pinscope::x509
