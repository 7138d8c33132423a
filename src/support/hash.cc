#include "src/support/hash.h"

namespace noctua {
namespace {

constexpr uint64_t kC1 = 0x87c37b91114253d5ULL;
constexpr uint64_t kC2 = 0x4cf5ad432745937fULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Fmix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

// Little-endian load of `n` (<= 8) bytes; compilers fold the full-word case into one
// load on little-endian hosts.
inline uint64_t Load(const unsigned char* p, int n) {
  uint64_t v = 0;
  for (int i = n - 1; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline uint64_t MixK1(uint64_t k1) { return Rotl(k1 * kC1, 31) * kC2; }
inline uint64_t MixK2(uint64_t k2) { return Rotl(k2 * kC2, 33) * kC1; }

}  // namespace

Hash128 Murmur3x64_128(std::string_view data, uint32_t seed) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  const size_t len = data.size();
  const size_t nblocks = len / 16;
  uint64_t h1 = seed;
  uint64_t h2 = seed;

  for (size_t i = 0; i < nblocks; ++i) {
    const unsigned char* block = bytes + i * 16;
    h1 ^= MixK1(Load(block, 8));
    h1 = Rotl(h1, 27) + h2;
    h1 = h1 * 5 + 0x52dce729;
    h2 ^= MixK2(Load(block + 8, 8));
    h2 = Rotl(h2, 31) + h1;
    h2 = h2 * 5 + 0x38495ab5;
  }

  // The 0..15 trailing bytes: the first eight feed k1, the rest k2.
  const unsigned char* tail = bytes + nblocks * 16;
  const int rest = static_cast<int>(len & 15);
  if (rest > 8) {
    h2 ^= MixK2(Load(tail + 8, rest - 8));
  }
  if (rest > 0) {
    h1 ^= MixK1(Load(tail, rest > 8 ? 8 : rest));
  }

  h1 ^= len;
  h2 ^= len;
  h1 += h2;
  h2 += h1;
  h1 = Fmix(h1);
  h2 = Fmix(h2);
  h1 += h2;
  h2 += h1;
  return Hash128{h1, h2};
}

std::string Hash128::Hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  uint64_t words[2] = {h1, h2};
  for (int w = 0; w < 2; ++w) {
    uint64_t v = words[w];
    for (int i = 15; i >= 0; --i) {
      out[w * 16 + i] = kHex[v & 0xf];
      v >>= 4;
    }
  }
  return out;
}

bool Hash128::FromHex(std::string_view hex, Hash128* out) {
  if (hex.size() != 32) {
    return false;
  }
  uint64_t words[2] = {0, 0};
  for (size_t i = 0; i < 32; ++i) {
    char c = hex[i];
    int nibble;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else {
      return false;
    }
    words[i / 16] = (words[i / 16] << 4) | static_cast<uint64_t>(nibble);
  }
  *out = Hash128{words[0], words[1]};
  return true;
}

}  // namespace noctua
