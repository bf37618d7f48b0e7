// RFC 4648 base64 encoding/decoding (standard alphabet, '=' padding).
//
// Used for PEM certificate bodies and SubjectPublicKeyInfo pin hashes, whose
// on-the-wire forms the static analyzer greps for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace pinscope::util {

/// Encodes `data` with the standard base64 alphabet and padding.
[[nodiscard]] std::string Base64Encode(const Bytes& data);

/// Decodes standard base64. Accepts unpadded input; rejects whitespace and
/// characters outside the alphabet. Returns std::nullopt on malformed input.
[[nodiscard]] std::optional<Bytes> Base64Decode(std::string_view text);

/// As above, but decodes into `out` (resized to the exact decoded length) so
/// hot loops can reuse one buffer's capacity across calls. Returns false on
/// malformed input, in which case `out` holds unspecified contents.
bool Base64DecodeInto(std::string_view text, Bytes& out);

/// As above, but decodes into caller memory without allocating: returns the
/// decoded length, or nullopt on malformed input or when the decoded bytes
/// would not fit in `out` (nothing past out.size() is written).
[[nodiscard]] std::optional<std::size_t> Base64DecodeTo(
    std::string_view text, std::span<std::uint8_t> out);

/// True if `s` consists solely of base64 alphabet characters (optionally
/// followed by '=' padding) — the character class the paper's pin regex uses.
[[nodiscard]] bool IsBase64String(std::string_view s);

}  // namespace pinscope::util
