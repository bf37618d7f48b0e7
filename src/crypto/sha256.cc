#include "crypto/sha256.h"

#include <cstring>

#include "crypto/cpu.h"

// The x86 SHA extensions path: compiled per-function via target attributes
// (no global -march requirement) and selected at runtime via the shared
// crypto/cpu dispatch helper, so one binary serves both old and new
// machines. Content-hash scan caching (see staticanalysis/scan_cache.h)
// hashes every file of at least 16 KiB (kScanCacheMinBytes), which put
// SHA-256 on the scan path; smaller files are not hashed, because there the
// hash costs more than the scan.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PINSCOPE_SHA256_X86_SHANI 1
#include <immintrin.h>
#else
#define PINSCOPE_SHA256_X86_SHANI 0
#endif

namespace pinscope::crypto {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t Rotr32(std::uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

void ProcessBlocksScalar(std::uint32_t h[8], const std::uint8_t* p,
                         std::size_t blocks) {
  for (; blocks > 0; --blocks, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(p[i * 4]) << 24 |
             static_cast<std::uint32_t>(p[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(p[i * 4 + 2]) << 8 |
             static_cast<std::uint32_t>(p[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = hh + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
  }
}

#if PINSCOPE_SHA256_X86_SHANI

// Two rounds per _mm_sha256rnds2_epu32; the working variables live in the
// (ABEF, CDGH) register split the instruction expects. Follows the layout
// of Intel's reference sequence for the SHA extensions.
__attribute__((target("sha,sse4.1,ssse3"))) void ProcessBlocksShaNi(
    std::uint32_t h[8], const std::uint8_t* p, std::size_t blocks) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1b);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);       // CDGH

  while (blocks-- > 0) {
    const __m128i save0 = state0;
    const __m128i save1 = state1;

    auto k4 = [](int i) {
      return _mm_set_epi64x(
          static_cast<long long>((static_cast<std::uint64_t>(kK[i + 3]) << 32) |
                                 kK[i + 2]),
          static_cast<long long>((static_cast<std::uint64_t>(kK[i + 1]) << 32) |
                                 kK[i]));
    };

    // m[s & 3] holds schedule words W[4s..4s+3]; each 4-round step s
    // consumes its segment, pre-expands the next one (alignr supplies the
    // W[t-7] lane, msg2 finishes it), and feeds msg1 the segment whose raw
    // value is no longer needed. msg2 must precede msg1 within a step: the
    // alignr reads m[(s-1) & 3] before msg1 overwrites it.
    __m128i m[4];
    for (int j = 0; j < 4; ++j) {
      m[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * j)),
          kShuffle);
    }
#if defined(__clang__)
#pragma unroll
#else
#pragma GCC unroll 16
#endif
    for (int s = 0; s < 16; ++s) {
      const __m128i msg = _mm_add_epi32(m[s & 3], k4(s * 4));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      state0 =
          _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0e));
      if (s >= 3 && s <= 14) {
        m[(s + 1) & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(m[(s + 1) & 3],
                          _mm_alignr_epi8(m[s & 3], m[(s + 3) & 3], 4)),
            m[s & 3]);
      }
      if (s >= 1 && s <= 12) {
        m[(s + 3) & 3] = _mm_sha256msg1_epu32(m[(s + 3) & 3], m[s & 3]);
      }
    }

    state0 = _mm_add_epi32(state0, save0);
    state1 = _mm_add_epi32(state1, save1);
    p += 64;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1b);       // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);    // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);       // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);          // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[4]), state1);
}

#endif  // PINSCOPE_SHA256_X86_SHANI

void ProcessBlocks(std::uint32_t h[8], const std::uint8_t* p,
                   std::size_t blocks) {
#if PINSCOPE_SHA256_X86_SHANI
  if (cpu::ShaNiAllowed()) {
    ProcessBlocksShaNi(h, p, blocks);
    return;
  }
#endif
  ProcessBlocksScalar(h, p, blocks);
}

using BlockFn = void (*)(std::uint32_t[8], const std::uint8_t*, std::size_t);

Sha256Digest Compute(const std::uint8_t* data, std::size_t len, BlockFn blocks) {
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t full = len / 64;
  blocks(h, data, full);
  const std::size_t i = full * 64;

  std::uint8_t block[128] = {};
  const std::size_t rest = len - i;
  if (rest > 0) std::memcpy(block, data + i, rest);
  block[rest] = 0x80;
  const std::size_t padded = rest + 1 + 8 <= 64 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
  for (int j = 0; j < 8; ++j) {
    block[padded - 8 + static_cast<std::size_t>(j)] =
        static_cast<std::uint8_t>(bits >> (56 - 8 * j));
  }
  blocks(h, block, padded / 64);

  Sha256Digest out{};
  for (int j = 0; j < 8; ++j) {
    out[static_cast<std::size_t>(j * 4)] = static_cast<std::uint8_t>(h[j] >> 24);
    out[static_cast<std::size_t>(j * 4 + 1)] = static_cast<std::uint8_t>(h[j] >> 16);
    out[static_cast<std::size_t>(j * 4 + 2)] = static_cast<std::uint8_t>(h[j] >> 8);
    out[static_cast<std::size_t>(j * 4 + 3)] = static_cast<std::uint8_t>(h[j]);
  }
  return out;
}

}  // namespace

Sha256Digest Sha256(const util::Bytes& data) {
  return Compute(data.data(), data.size(), ProcessBlocks);
}

Sha256Digest Sha256(std::string_view data) {
  return Compute(reinterpret_cast<const std::uint8_t*>(data.data()), data.size(),
                 ProcessBlocks);
}

util::Bytes ToBytes(const Sha256Digest& d) { return util::Bytes(d.begin(), d.end()); }

namespace internal {

Sha256Digest Sha256Portable(std::string_view data) {
  return Compute(reinterpret_cast<const std::uint8_t*>(data.data()), data.size(),
                 ProcessBlocksScalar);
}

bool Sha256UsesHardware() {
#if PINSCOPE_SHA256_X86_SHANI
  return cpu::ShaNiAllowed();
#else
  return false;
#endif
}

}  // namespace internal

}  // namespace pinscope::crypto
