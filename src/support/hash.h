// 128-bit non-cryptographic digests: MurmurHash3, the x64_128 variant (Austin Appleby's
// public-domain algorithm). It consumes its input sixteen bytes at a time as two 64-bit
// words, so digesting a key costs a few nanoseconds per word rather than per byte.
//
// Not cryptographic: it spreads honest inputs uniformly, it does not resist an adversary
// who chooses inputs to collide. The verdict cache keys on it; see verifier/cache.h for
// why that is enough there.
#ifndef SRC_SUPPORT_HASH_H_
#define SRC_SUPPORT_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace noctua {

struct Hash128 {
  uint64_t h1 = 0;
  uint64_t h2 = 0;

  bool operator==(const Hash128& o) const { return h1 == o.h1 && h2 == o.h2; }
  bool operator!=(const Hash128& o) const { return !(*this == o); }
  bool operator<(const Hash128& o) const { return h1 != o.h1 ? h1 < o.h1 : h2 < o.h2; }

  // 32 lowercase hex digits: h1 then h2, each most significant nibble first.
  std::string Hex() const;
  // Inverse of Hex. Returns false, leaving *out untouched, unless `hex` is exactly 32
  // hex digits.
  static bool FromHex(std::string_view hex, Hash128* out);
};

// MurmurHash3_x64_128 of `data`, with both lanes seeded by `seed`. Byte-order
// independent: input words are assembled little-endian on every host, so a digest
// written on one machine reads the same on another.
Hash128 Murmur3x64_128(std::string_view data, uint32_t seed = 0);

}  // namespace noctua

#endif  // SRC_SUPPORT_HASH_H_
