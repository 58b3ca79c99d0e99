#include "pdcp/cipher.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace u5g {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Per-(ctx, count) keystream base; one add + mix yields each block's word.
std::uint64_t ks_base(const CipherContext& ctx, std::uint32_t count) {
  return ctx.key ^ (static_cast<std::uint64_t>(count) << 32) ^
         (static_cast<std::uint64_t>(ctx.bearer) << 8) ^ (ctx.downlink ? 1u : 0u);
}

/// SplitMix64-based per-block keystream word.
std::uint64_t ks_word(std::uint64_t base, std::uint64_t block) {
  std::uint64_t x = base + (block + 1) * kGolden;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv_seed(const CipherContext& ctx, std::uint32_t count) {
  return 0xcbf29ce484222325ULL ^ ctx.key ^ count ^
         (static_cast<std::uint64_t>(ctx.bearer) << 40) ^ (ctx.downlink ? 2u : 0u);
}

/// Load 8 payload bytes as the little-endian word the byte-serial FNV loop
/// would consume LSB first.
std::uint64_t load_le64(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    return chunk;
  } else {
    std::uint64_t chunk = 0;
    for (std::size_t k = 8; k > 0; --k) chunk = (chunk << 8) | p[k - 1];
    return chunk;
  }
}

/// Eight byte-steps of FNV-1a fed from a register.
std::uint64_t fnv8(std::uint64_t h, std::uint64_t chunk) {
  for (std::size_t k = 0; k < 8; ++k) {
    h ^= chunk & 0xFF;
    h *= kFnvPrime;
    chunk >>= 8;
  }
  return h;
}

/// Scalar FNV over `[i, n)` of `p`, continuing hash state `h`.
std::uint64_t fnv_range(std::uint64_t h, const std::uint8_t* p, std::size_t i, std::size_t n) {
  for (; i + 8 <= n; i += 8) h = fnv8(h, load_le64(p + i));
  for (; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint32_t fnv_finish(std::uint64_t h) { return static_cast<std::uint32_t>(h ^ (h >> 32)); }

/// Scalar keystream XOR over `[i, n)` of `p` for per-packet `base`.
void ks_range(std::uint64_t base, std::uint8_t* p, std::size_t i, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= n; i += 8) {
      std::uint64_t chunk;
      std::memcpy(&chunk, p + i, 8);
      chunk ^= ks_word(base, i / 8);
      std::memcpy(p + i, &chunk, 8);
    }
  } else {
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word = ks_word(base, i / 8);
      for (std::size_t k = 0; k < 8; ++k) {
        p[i + k] ^= static_cast<std::uint8_t>(word);
        word >>= 8;
      }
    }
  }
  if (i < n) {
    std::uint64_t word = ks_word(base, i / 8);
    for (; i < n; ++i) {
      p[i] ^= static_cast<std::uint8_t>(word);
      word >>= 8;
    }
  }
}

}  // namespace

void apply_keystream(std::span<std::uint8_t> data, const CipherContext& ctx, std::uint32_t count) {
  // One keystream word covers 8 payload bytes with byte k of the word (LSB
  // first) XORed into byte 8*block + k — the word-wise body is bit-identical
  // to that per-byte definition.
  ks_range(ks_base(ctx, count), data.data(), 0, data.size());
}

std::uint32_t integrity_tag(std::span<const std::uint8_t> data, const CipherContext& ctx,
                            std::uint32_t count) {
  // FNV-1a is inherently sequential (each multiply feeds the next XOR), so
  // the single-packet win is memory traffic — load 8 bytes in one go and
  // feed the hash from a register. Cross-packet parallelism lives in the
  // batch kernels below.
  return fnv_finish(fnv_range(fnv_seed(ctx, count), data.data(), 0, data.size()));
}

void apply_keystream_batch(std::span<const CipherJob> jobs, const CipherContext& ctx) {
  std::size_t j = 0;
  for (; j + 4 <= jobs.size(); j += 4) {
    const CipherJob* q = jobs.data() + j;
    std::uint8_t* p0 = q[0].data.data();
    std::uint8_t* p1 = q[1].data.data();
    std::uint8_t* p2 = q[2].data.data();
    std::uint8_t* p3 = q[3].data.data();
    const std::uint64_t b0 = ks_base(ctx, q[0].count);
    const std::uint64_t b1 = ks_base(ctx, q[1].count);
    const std::uint64_t b2 = ks_base(ctx, q[2].count);
    const std::uint64_t b3 = ks_base(ctx, q[3].count);
    const std::size_t words =
        std::min(std::min(q[0].data.size(), q[1].data.size()),
                 std::min(q[2].data.size(), q[3].data.size())) /
        8;
    if constexpr (std::endian::native == std::endian::little) {
      for (std::size_t w = 0; w < words; ++w) {
        // Four independent mix chains per iteration: the multiplies of one
        // lane hide behind the loads and XORs of the others.
        std::uint64_t c0, c1, c2, c3;
        std::memcpy(&c0, p0 + 8 * w, 8);
        std::memcpy(&c1, p1 + 8 * w, 8);
        std::memcpy(&c2, p2 + 8 * w, 8);
        std::memcpy(&c3, p3 + 8 * w, 8);
        c0 ^= ks_word(b0, w);
        c1 ^= ks_word(b1, w);
        c2 ^= ks_word(b2, w);
        c3 ^= ks_word(b3, w);
        std::memcpy(p0 + 8 * w, &c0, 8);
        std::memcpy(p1 + 8 * w, &c1, 8);
        std::memcpy(p2 + 8 * w, &c2, 8);
        std::memcpy(p3 + 8 * w, &c3, 8);
      }
    } else {
      for (std::size_t w = 0; w < words; ++w) {
        for (int l = 0; l < 4; ++l) ks_range(ks_base(ctx, q[l].count), q[l].data.data(), 8 * w, 8 * w + 8);
      }
    }
    ks_range(b0, p0, words * 8, q[0].data.size());
    ks_range(b1, p1, words * 8, q[1].data.size());
    ks_range(b2, p2, words * 8, q[2].data.size());
    ks_range(b3, p3, words * 8, q[3].data.size());
  }
  for (; j < jobs.size(); ++j) apply_keystream(jobs[j].data, ctx, jobs[j].count);
}

void protect_payload_batch(std::span<const CipherJob> jobs, const CipherContext& ctx,
                           std::span<std::uint32_t> tags_out) {
  std::size_t j = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; j + 4 <= jobs.size(); j += 4) {
      const CipherJob* q = jobs.data() + j;
      std::uint8_t* p0 = q[0].data.data();
      std::uint8_t* p1 = q[1].data.data();
      std::uint8_t* p2 = q[2].data.data();
      std::uint8_t* p3 = q[3].data.data();
      const std::uint64_t b0 = ks_base(ctx, q[0].count);
      const std::uint64_t b1 = ks_base(ctx, q[1].count);
      const std::uint64_t b2 = ks_base(ctx, q[2].count);
      const std::uint64_t b3 = ks_base(ctx, q[3].count);
      std::uint64_t h0 = fnv_seed(ctx, q[0].count);
      std::uint64_t h1 = fnv_seed(ctx, q[1].count);
      std::uint64_t h2 = fnv_seed(ctx, q[2].count);
      std::uint64_t h3 = fnv_seed(ctx, q[3].count);
      const std::size_t words =
          std::min(std::min(q[0].data.size(), q[1].data.size()),
                   std::min(q[2].data.size(), q[3].data.size())) /
          8;
      for (std::size_t w = 0; w < words; ++w) {
        // One traversal: cipher the word, store it, hash the stored value.
        // The four lanes' FNV multiply chains are independent, so their
        // ~5-cycle multiply latencies overlap in the pipeline.
        std::uint64_t c0, c1, c2, c3;
        std::memcpy(&c0, p0 + 8 * w, 8);
        std::memcpy(&c1, p1 + 8 * w, 8);
        std::memcpy(&c2, p2 + 8 * w, 8);
        std::memcpy(&c3, p3 + 8 * w, 8);
        c0 ^= ks_word(b0, w);
        c1 ^= ks_word(b1, w);
        c2 ^= ks_word(b2, w);
        c3 ^= ks_word(b3, w);
        std::memcpy(p0 + 8 * w, &c0, 8);
        std::memcpy(p1 + 8 * w, &c1, 8);
        std::memcpy(p2 + 8 * w, &c2, 8);
        std::memcpy(p3 + 8 * w, &c3, 8);
        h0 = fnv8(h0, c0);
        h1 = fnv8(h1, c1);
        h2 = fnv8(h2, c2);
        h3 = fnv8(h3, c3);
      }
      ks_range(b0, p0, words * 8, q[0].data.size());
      ks_range(b1, p1, words * 8, q[1].data.size());
      ks_range(b2, p2, words * 8, q[2].data.size());
      ks_range(b3, p3, words * 8, q[3].data.size());
      tags_out[j + 0] = fnv_finish(fnv_range(h0, p0, words * 8, q[0].data.size()));
      tags_out[j + 1] = fnv_finish(fnv_range(h1, p1, words * 8, q[1].data.size()));
      tags_out[j + 2] = fnv_finish(fnv_range(h2, p2, words * 8, q[2].data.size()));
      tags_out[j + 3] = fnv_finish(fnv_range(h3, p3, words * 8, q[3].data.size()));
    }
  }
  for (; j < jobs.size(); ++j) {
    apply_keystream(jobs[j].data, ctx, jobs[j].count);
    tags_out[j] = integrity_tag(jobs[j].data, ctx, jobs[j].count);
  }
}

void verify_decipher_batch(std::span<const CipherJob> jobs, const CipherContext& ctx,
                           std::span<std::uint32_t> tags_out) {
  std::size_t j = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; j + 4 <= jobs.size(); j += 4) {
      const CipherJob* q = jobs.data() + j;
      std::uint8_t* p0 = q[0].data.data();
      std::uint8_t* p1 = q[1].data.data();
      std::uint8_t* p2 = q[2].data.data();
      std::uint8_t* p3 = q[3].data.data();
      const std::uint64_t b0 = ks_base(ctx, q[0].count);
      const std::uint64_t b1 = ks_base(ctx, q[1].count);
      const std::uint64_t b2 = ks_base(ctx, q[2].count);
      const std::uint64_t b3 = ks_base(ctx, q[3].count);
      std::uint64_t h0 = fnv_seed(ctx, q[0].count);
      std::uint64_t h1 = fnv_seed(ctx, q[1].count);
      std::uint64_t h2 = fnv_seed(ctx, q[2].count);
      std::uint64_t h3 = fnv_seed(ctx, q[3].count);
      const std::size_t words =
          std::min(std::min(q[0].data.size(), q[1].data.size()),
                   std::min(q[2].data.size(), q[3].data.size())) /
          8;
      for (std::size_t w = 0; w < words; ++w) {
        // Hash the ciphered word as loaded, then decipher-store it.
        std::uint64_t c0, c1, c2, c3;
        std::memcpy(&c0, p0 + 8 * w, 8);
        std::memcpy(&c1, p1 + 8 * w, 8);
        std::memcpy(&c2, p2 + 8 * w, 8);
        std::memcpy(&c3, p3 + 8 * w, 8);
        h0 = fnv8(h0, c0);
        h1 = fnv8(h1, c1);
        h2 = fnv8(h2, c2);
        h3 = fnv8(h3, c3);
        c0 ^= ks_word(b0, w);
        c1 ^= ks_word(b1, w);
        c2 ^= ks_word(b2, w);
        c3 ^= ks_word(b3, w);
        std::memcpy(p0 + 8 * w, &c0, 8);
        std::memcpy(p1 + 8 * w, &c1, 8);
        std::memcpy(p2 + 8 * w, &c2, 8);
        std::memcpy(p3 + 8 * w, &c3, 8);
      }
      // Tails: tag over the still-ciphered bytes first, then decipher them.
      tags_out[j + 0] = fnv_finish(fnv_range(h0, p0, words * 8, q[0].data.size()));
      tags_out[j + 1] = fnv_finish(fnv_range(h1, p1, words * 8, q[1].data.size()));
      tags_out[j + 2] = fnv_finish(fnv_range(h2, p2, words * 8, q[2].data.size()));
      tags_out[j + 3] = fnv_finish(fnv_range(h3, p3, words * 8, q[3].data.size()));
      ks_range(b0, p0, words * 8, q[0].data.size());
      ks_range(b1, p1, words * 8, q[1].data.size());
      ks_range(b2, p2, words * 8, q[2].data.size());
      ks_range(b3, p3, words * 8, q[3].data.size());
    }
  }
  for (; j < jobs.size(); ++j) {
    tags_out[j] = integrity_tag(jobs[j].data, ctx, jobs[j].count);
    apply_keystream(jobs[j].data, ctx, jobs[j].count);
  }
}

}  // namespace u5g
