#pragma once
// PDCP ciphering and integrity primitives.
//
// Stand-ins for NEA/NIA (the 5G AES/SNOW/ZUC suites): a counter-keyed
// xorshift keystream for confidentiality and a 32-bit FNV-style tag for
// integrity. They reproduce the *structural* properties PDCP depends on —
// same (key, count, bearer, direction) => same keystream; any bit flip
// breaks the tag — at simulator cost. Not cryptographically secure, and
// deliberately so: this library evaluates latency, not security.

#include <cstdint>
#include <span>

namespace u5g {

/// Security context: key plus the COUNT input block parameters.
struct CipherContext {
  std::uint64_t key = 0x5deece66d2b4a1c9ULL;
  std::uint32_t bearer = 0;
  bool downlink = true;
};

/// XOR `data` with the keystream for (`ctx`, `count`). Involutory: applying
/// it twice with the same parameters restores the plaintext.
void apply_keystream(std::span<std::uint8_t> data, const CipherContext& ctx, std::uint32_t count);

/// 32-bit integrity tag over `data` under (`ctx`, `count`).
[[nodiscard]] std::uint32_t integrity_tag(std::span<const std::uint8_t> data,
                                          const CipherContext& ctx, std::uint32_t count);

// -- Batch variants ---------------------------------------------------------
//
// The FNV-style tag is a sequential multiply chain: within one packet each
// step waits ~5 cycles for the previous multiply, capping the scalar kernel
// near 700 MB/s. Across packets the chains are independent, so the batch
// kernels run four packets' words per inner-loop iteration and let the four
// multiply chains overlap in the pipeline. Results are bit-identical to
// calling the scalar functions per packet — the scalar kernels stay the
// oracles, and tests assert equality on random batches.

/// One packet's slice of a batch cipher call.
struct CipherJob {
  std::span<std::uint8_t> data;
  std::uint32_t count = 0;
};

/// XOR each job's payload with its (`ctx`, job.count) keystream, four
/// packets per inner loop. Equivalent to apply_keystream() on each job.
void apply_keystream_batch(std::span<const CipherJob> jobs, const CipherContext& ctx);

/// Fused transmit kernel: cipher each job's payload in place AND compute its
/// integrity tag over the *ciphered* bytes in one traversal (per word: XOR
/// keystream, store, hash the stored word). Bit-identical to
/// apply_keystream() followed by integrity_tag() on the result, per job —
/// which is exactly PDCP's protect order — while streaming each payload
/// through the cache once instead of twice.
void protect_payload_batch(std::span<const CipherJob> jobs, const CipherContext& ctx,
                           std::span<std::uint32_t> tags_out);

/// Fused receive kernel: compute each job's integrity tag over the payload
/// as received (i.e. still ciphered) AND decipher it in place, one traversal
/// (per word: hash the loaded value, then XOR-store the keystream). Equals
/// integrity_tag() on the input followed by apply_keystream(), per job.
/// The caller compares tags afterwards; on a mismatch the mutation is undone
/// by re-applying the keystream (XOR is an involution), so speculative
/// deciphering costs nothing on the rare corrupt packet.
void verify_decipher_batch(std::span<const CipherJob> jobs, const CipherContext& ctx,
                           std::span<std::uint32_t> tags_out);

}  // namespace u5g
