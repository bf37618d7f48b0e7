#include "util/base64.h"

#include <array>

namespace pinscope::util {
namespace {

constexpr std::string_view kAlphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

std::array<int, 256> BuildReverse() {
  std::array<int, 256> rev{};
  rev.fill(-1);
  for (int i = 0; i < 64; ++i) {
    rev[static_cast<unsigned char>(kAlphabet[static_cast<std::size_t>(i)])] = i;
  }
  return rev;
}

const std::array<int, 256>& Reverse() {
  static const std::array<int, 256> rev = BuildReverse();
  return rev;
}

}  // namespace

std::string Base64Encode(const Bytes& data) {
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 3 <= data.size()) {
    const std::uint32_t n = static_cast<std::uint32_t>(data[i]) << 16 |
                            static_cast<std::uint32_t>(data[i + 1]) << 8 |
                            static_cast<std::uint32_t>(data[i + 2]);
    out.push_back(kAlphabet[n >> 18 & 0x3f]);
    out.push_back(kAlphabet[n >> 12 & 0x3f]);
    out.push_back(kAlphabet[n >> 6 & 0x3f]);
    out.push_back(kAlphabet[n & 0x3f]);
    i += 3;
  }
  const std::size_t rest = data.size() - i;
  if (rest == 1) {
    const std::uint32_t n = static_cast<std::uint32_t>(data[i]) << 16;
    out.push_back(kAlphabet[n >> 18 & 0x3f]);
    out.push_back(kAlphabet[n >> 12 & 0x3f]);
    out.append("==");
  } else if (rest == 2) {
    const std::uint32_t n = static_cast<std::uint32_t>(data[i]) << 16 |
                            static_cast<std::uint32_t>(data[i + 1]) << 8;
    out.push_back(kAlphabet[n >> 18 & 0x3f]);
    out.push_back(kAlphabet[n >> 12 & 0x3f]);
    out.push_back(kAlphabet[n >> 6 & 0x3f]);
    out.push_back('=');
  }
  return out;
}

std::optional<std::size_t> Base64DecodeTo(std::string_view text,
                                          std::span<std::uint8_t> out) {
  // Strip padding.
  while (!text.empty() && text.back() == '=') text.remove_suffix(1);
  // A single leftover sextet cannot encode a byte; reject streams like "A".
  if (text.size() % 4 == 1) return std::nullopt;
  // Decoded length is exact, so check the room once and write through a raw
  // pointer — this decoder runs for every certificate of every bundle
  // scanned and every pin string matched, where per-byte capacity checks
  // were measurable.
  const std::size_t size = text.size() * 3 / 4;
  if (size > out.size()) return std::nullopt;
  const std::array<int, 256>& rev = Reverse();  // hoist the static-local guard
  const auto at = [&](std::size_t i) {
    return rev[static_cast<unsigned char>(text[i])];
  };
  std::uint8_t* dst = out.data();
  std::size_t i = 0;
  for (; i + 4 <= text.size(); i += 4) {
    const int v0 = at(i), v1 = at(i + 1), v2 = at(i + 2), v3 = at(i + 3);
    if ((v0 | v1 | v2 | v3) < 0) return std::nullopt;
    const std::uint32_t n = static_cast<std::uint32_t>(v0) << 18 |
                            static_cast<std::uint32_t>(v1) << 12 |
                            static_cast<std::uint32_t>(v2) << 6 |
                            static_cast<std::uint32_t>(v3);
    dst[0] = static_cast<std::uint8_t>(n >> 16);
    dst[1] = static_cast<std::uint8_t>(n >> 8 & 0xff);
    dst[2] = static_cast<std::uint8_t>(n & 0xff);
    dst += 3;
  }
  const std::size_t rest = text.size() - i;  // 0, 2 or 3 after the %4 check
  if (rest == 2) {
    const int v0 = at(i), v1 = at(i + 1);
    if ((v0 | v1) < 0) return std::nullopt;
    *dst = static_cast<std::uint8_t>(v0 << 2 | v1 >> 4);
  } else if (rest == 3) {
    const int v0 = at(i), v1 = at(i + 1), v2 = at(i + 2);
    if ((v0 | v1 | v2) < 0) return std::nullopt;
    dst[0] = static_cast<std::uint8_t>(v0 << 2 | v1 >> 4);
    dst[1] = static_cast<std::uint8_t>((v1 & 0xf) << 4 | v2 >> 2);
  }
  return size;
}

bool Base64DecodeInto(std::string_view text, Bytes& out) {
  // Padding only shortens the decoded length, so this bound always fits.
  out.resize(text.size() * 3 / 4);
  const std::optional<std::size_t> size = Base64DecodeTo(text, out);
  if (!size.has_value()) return false;
  out.resize(*size);
  return true;
}

std::optional<Bytes> Base64Decode(std::string_view text) {
  Bytes out;
  if (!Base64DecodeInto(text, out)) return std::nullopt;
  return out;
}

bool IsBase64String(std::string_view s) {
  if (s.empty()) return false;
  std::size_t pad = 0;
  while (!s.empty() && s.back() == '=') {
    s.remove_suffix(1);
    ++pad;
  }
  if (pad > 2) return false;
  const std::array<int, 256>& rev = Reverse();
  for (char c : s) {
    if (rev[static_cast<unsigned char>(c)] < 0) return false;
  }
  return true;
}

}  // namespace pinscope::util
