// Unit tests for src/pdcp: keystream/integrity primitives, protect/receive
// round trips, reordering, duplicate/stale rejection, SN inference.

#include <gtest/gtest.h>

#include <vector>

#include "pdcp/cipher.hpp"
#include "pdcp/pdcp_entity.hpp"

namespace u5g {
namespace {

ByteBuffer payload(std::size_t n, std::uint8_t seed = 1) {
  ByteBuffer b(n);
  for (std::size_t i = 0; i < n; ++i) b.bytes()[i] = static_cast<std::uint8_t>(seed + 3 * i);
  return b;
}

bool same_bytes(const ByteBuffer& a, const ByteBuffer& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.bytes()[i] != b.bytes()[i]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Cipher primitives

TEST(CipherTest, KeystreamIsInvolutory) {
  ByteBuffer b = payload(64);
  const ByteBuffer orig = b;
  const CipherContext ctx{};
  apply_keystream(b.bytes(), ctx, 7);
  EXPECT_FALSE(same_bytes(b, orig));  // actually ciphered
  apply_keystream(b.bytes(), ctx, 7);
  EXPECT_TRUE(same_bytes(b, orig));
}

TEST(CipherTest, KeystreamDependsOnAllInputs) {
  const ByteBuffer orig = payload(32);
  auto cipher_with = [&](CipherContext ctx, std::uint32_t count) {
    ByteBuffer b = orig;
    apply_keystream(b.bytes(), ctx, count);
    return b;
  };
  const ByteBuffer base = cipher_with(CipherContext{}, 1);
  EXPECT_FALSE(same_bytes(base, cipher_with(CipherContext{}, 2)));                  // count
  EXPECT_FALSE(same_bytes(base, cipher_with(CipherContext{.key = 99}, 1)));         // key
  EXPECT_FALSE(same_bytes(base, cipher_with(CipherContext{.bearer = 5}, 1)));       // bearer
  EXPECT_FALSE(same_bytes(base, cipher_with(CipherContext{.downlink = false}, 1))); // direction
}

TEST(CipherTest, IntegrityDetectsBitFlip) {
  ByteBuffer b = payload(48);
  const CipherContext ctx{};
  const std::uint32_t tag = integrity_tag(b.bytes(), ctx, 3);
  b.bytes()[20] ^= 0x01;
  EXPECT_NE(tag, integrity_tag(b.bytes(), ctx, 3));
}

TEST(CipherTest, IntegrityBoundToCountAndDirection) {
  const ByteBuffer b = payload(16);
  const CipherContext dl{};
  CipherContext ul = dl;
  ul.downlink = false;
  EXPECT_NE(integrity_tag(b.bytes(), dl, 1), integrity_tag(b.bytes(), dl, 2));
  EXPECT_NE(integrity_tag(b.bytes(), dl, 1), integrity_tag(b.bytes(), ul, 1));
}

// ---------------------------------------------------------------------------
// Entity round trips

TEST(PdcpTest, ProtectReceiveRoundTrip) {
  PdcpTx tx;
  PdcpRx rx;
  ByteBuffer b = payload(100, 0x40);
  tx.protect(b);
  EXPECT_EQ(b.size(), 100u + 2 + 4);  // header + MAC-I

  std::vector<std::uint32_t> counts;
  ByteBuffer delivered(0);
  EXPECT_TRUE(rx.receive(std::move(b), [&](ByteBuffer&& s, const PacketMeta& m) {
    delivered = std::move(s);
    counts.push_back(m.count);
  }));
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_TRUE(same_bytes(delivered, payload(100, 0x40)));
}

TEST(PdcpTest, InOrderStreamDeliversAll) {
  PdcpTx tx;
  PdcpRx rx;
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    ByteBuffer b = payload(10, static_cast<std::uint8_t>(i));
    tx.protect(b);
    rx.receive(std::move(b), [&](ByteBuffer&&, const PacketMeta& m) {
      EXPECT_EQ(m.count, static_cast<std::uint32_t>(delivered));
      ++delivered;
    });
  }
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(rx.held_count(), 0u);
}

TEST(PdcpTest, ReordersOutOfOrderArrivals) {
  PdcpTx tx;
  PdcpRx rx;
  std::vector<ByteBuffer> pdus;
  for (int i = 0; i < 3; ++i) {
    ByteBuffer b = payload(10, static_cast<std::uint8_t>(i));
    tx.protect(b);
    pdus.push_back(std::move(b));
  }
  std::vector<std::uint32_t> order;
  auto deliver = [&](ByteBuffer&&, const PacketMeta& m) { order.push_back(m.count); };
  rx.receive(std::move(pdus[1]), deliver);  // out of order: held
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(rx.held_count(), 1u);
  rx.receive(std::move(pdus[0]), deliver);  // unblocks 0 and 1
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1}));
  rx.receive(std::move(pdus[2]), deliver);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(PdcpTest, DuplicateRejected) {
  PdcpTx tx;
  PdcpRx rx;
  ByteBuffer b = payload(10);
  tx.protect(b);
  ByteBuffer dup = b;
  int delivered = 0;
  auto deliver = [&](ByteBuffer&&, const PacketMeta&) { ++delivered; };
  EXPECT_TRUE(rx.receive(std::move(b), deliver));
  EXPECT_FALSE(rx.receive(std::move(dup), deliver));  // now stale
  EXPECT_EQ(delivered, 1);
}

TEST(PdcpTest, HeldDuplicateRejected) {
  PdcpTx tx;
  PdcpRx rx;
  ByteBuffer burn = payload(4);
  tx.protect(burn);  // burn COUNT 0 (never delivered)
  ByteBuffer b = payload(10);
  tx.protect(b);  // COUNT 1
  ByteBuffer dup = b;
  auto deliver = [](ByteBuffer&&, const PacketMeta&) {};
  EXPECT_TRUE(rx.receive(std::move(b), deliver));    // held (waiting for 0)
  EXPECT_FALSE(rx.receive(std::move(dup), deliver)); // duplicate of held
  EXPECT_EQ(rx.held_count(), 1u);
}

TEST(PdcpTest, TamperedPduDiscarded) {
  PdcpTx tx;
  PdcpRx rx;
  ByteBuffer b = payload(20);
  tx.protect(b);
  b.bytes()[5] ^= 0xFF;  // corrupt ciphered payload
  int delivered = 0;
  EXPECT_FALSE(rx.receive(std::move(b), [&](ByteBuffer&&, const PacketMeta&) { ++delivered; }));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rx.integrity_failures(), 1u);
}

TEST(PdcpTest, MismatchedSecurityContextFails) {
  PdcpTx tx{PdcpConfig{.security = CipherContext{.key = 1}}};
  PdcpRx rx{PdcpConfig{.security = CipherContext{.key = 2}}};
  ByteBuffer b = payload(20);
  tx.protect(b);
  EXPECT_FALSE(rx.receive(std::move(b), [](ByteBuffer&&, const PacketMeta&) {}));
}

TEST(PdcpTest, FlushSkipsGaps) {
  PdcpTx tx;
  PdcpRx rx;
  std::vector<ByteBuffer> pdus;
  for (int i = 0; i < 3; ++i) {
    ByteBuffer b = payload(10, static_cast<std::uint8_t>(i));
    tx.protect(b);
    pdus.push_back(std::move(b));
  }
  std::vector<std::uint32_t> order;
  auto deliver = [&](ByteBuffer&&, const PacketMeta& m) { order.push_back(m.count); };
  rx.receive(std::move(pdus[1]), deliver);
  rx.receive(std::move(pdus[2]), deliver);
  EXPECT_TRUE(order.empty());
  rx.flush(deliver);  // t-Reordering expiry: deliver 1, 2 without 0
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(rx.expected_count(), 3u);
}

TEST(PdcpTest, SnWrapAround) {
  // Push COUNT past the 12-bit SN modulus: the receiver must infer the
  // full COUNT across the wrap.
  PdcpTx tx;
  PdcpRx rx;
  int delivered = 0;
  for (int i = 0; i < 4096 + 50; ++i) {
    ByteBuffer b = payload(4);
    tx.protect(b);
    rx.receive(std::move(b), [&](ByteBuffer&&, const PacketMeta& m) {
      EXPECT_EQ(m.count, static_cast<std::uint32_t>(delivered));
      ++delivered;
    });
  }
  EXPECT_EQ(delivered, 4096 + 50);
}

TEST(PdcpTest, EighteenBitSn) {
  const PdcpConfig cfg{.sn_bits = 18};
  PdcpTx tx{cfg};
  PdcpRx rx{cfg};
  ByteBuffer b = payload(30, 0x7);
  tx.protect(b);
  EXPECT_EQ(b.size(), 30u + 3 + 4);  // 3-byte header
  ByteBuffer out(0);
  EXPECT_TRUE(rx.receive(std::move(b), [&](ByteBuffer&& s, const PacketMeta&) { out = std::move(s); }));
  EXPECT_TRUE(same_bytes(out, payload(30, 0x7)));
}

TEST(PdcpTest, IntegrityDisabledMode) {
  const PdcpConfig cfg{.integrity_enabled = false};
  PdcpTx tx{cfg};
  PdcpRx rx{cfg};
  ByteBuffer b = payload(25, 0x9);
  tx.protect(b);
  EXPECT_EQ(b.size(), 25u + 2);  // no MAC-I
  ByteBuffer out(0);
  EXPECT_TRUE(rx.receive(std::move(b), [&](ByteBuffer&& s, const PacketMeta&) { out = std::move(s); }));
  EXPECT_TRUE(same_bytes(out, payload(25, 0x9)));
}

TEST(PdcpTest, RuntPduRejected) {
  PdcpRx rx;
  ByteBuffer tiny(3);
  EXPECT_FALSE(rx.receive(std::move(tiny), [](ByteBuffer&&, const PacketMeta&) {}));
}

// ---------------------------------------------------------------------------
// Batch cipher kernels vs the scalar oracles. The scalar functions are the
// specification; every batch/fused kernel must be bit-identical to the
// corresponding composition for arbitrary lengths and lane remainders.

std::vector<std::uint8_t> random_bytes(std::uint64_t& state, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<std::uint8_t>(state >> 56);
  }
  return v;
}

// Lengths covering empty payloads, sub-word tails, exact words, and sizes
// that straddle the 4-lane grouping.
const std::size_t kBatchLens[] = {0, 1, 7, 8, 9, 15, 16, 17, 31, 64, 100, 333};

TEST(CipherBatchTest, KeystreamBatchMatchesScalar) {
  const CipherContext ctx{.key = 0xABCDEF0123456789ULL, .bearer = 3, .downlink = false};
  std::uint64_t state = 1;
  // 1..12 jobs: exercises full 4-lane groups plus every remainder count.
  for (std::size_t njobs = 1; njobs <= std::size(kBatchLens); ++njobs) {
    std::vector<std::vector<std::uint8_t>> batch_data, scalar_data;
    std::vector<CipherJob> jobs;
    for (std::size_t i = 0; i < njobs; ++i) {
      batch_data.push_back(random_bytes(state, kBatchLens[i]));
      scalar_data.push_back(batch_data.back());
    }
    for (std::size_t i = 0; i < njobs; ++i) {
      jobs.push_back(CipherJob{batch_data[i], static_cast<std::uint32_t>(100 + i)});
    }
    apply_keystream_batch(jobs, ctx);
    for (std::size_t i = 0; i < njobs; ++i) {
      apply_keystream(scalar_data[i], ctx, static_cast<std::uint32_t>(100 + i));
      EXPECT_EQ(scalar_data[i], batch_data[i]) << "njobs=" << njobs << " job=" << i;
    }
  }
}

TEST(CipherBatchTest, IntegrityBatchMatchesScalar) {
  // The tags both fused kernels compute equal the scalar integrity_tag per
  // job, whatever the job's place in its batch: the receive side's tag over
  // the ciphered bytes reproduces the transmit side's, and a job's tag is
  // the same alone as in a 12-job batch.
  const CipherContext ctx{};
  std::uint64_t state = 2;
  for (std::size_t njobs = 1; njobs <= std::size(kBatchLens); ++njobs) {
    std::vector<std::vector<std::uint8_t>> plain, data;
    for (std::size_t i = 0; i < njobs; ++i) {
      plain.push_back(random_bytes(state, kBatchLens[i]));
      data.push_back(plain.back());
    }
    std::vector<CipherJob> jobs;
    for (std::size_t i = 0; i < njobs; ++i) {
      jobs.push_back(CipherJob{data[i], static_cast<std::uint32_t>(7 * i + 1)});
    }
    std::vector<std::uint32_t> tx_tags(njobs), rx_tags(njobs);
    protect_payload_batch(jobs, ctx, tx_tags);
    for (std::size_t i = 0; i < njobs; ++i) {
      const auto count = static_cast<std::uint32_t>(7 * i + 1);
      EXPECT_EQ(integrity_tag(data[i], ctx, count), tx_tags[i]) << "njobs=" << njobs << " job=" << i;

      std::vector<std::uint8_t> alone = plain[i];
      std::uint32_t alone_tag = 0;
      const CipherJob one{alone, count};
      protect_payload_batch(std::span<const CipherJob>(&one, 1), ctx,
                            std::span<std::uint32_t>(&alone_tag, 1));
      EXPECT_EQ(alone_tag, tx_tags[i]) << "njobs=" << njobs << " job=" << i;
    }
    verify_decipher_batch(jobs, ctx, rx_tags);
    for (std::size_t i = 0; i < njobs; ++i) {
      EXPECT_EQ(rx_tags[i], tx_tags[i]) << "njobs=" << njobs << " job=" << i;
      EXPECT_EQ(data[i], plain[i]) << "njobs=" << njobs << " job=" << i;
    }
  }
}

TEST(CipherBatchTest, FusedProtectMatchesCipherThenTag) {
  // protect_payload_batch = apply_keystream then integrity_tag, per job, in
  // that order, because PDCP tags the *ciphered* bytes. The scalar kernels
  // are the oracle.
  const CipherContext ctx{.bearer = 9};
  std::uint64_t state = 3;
  for (std::size_t njobs = 1; njobs <= std::size(kBatchLens); ++njobs) {
    std::vector<std::vector<std::uint8_t>> fused_data, ref_data;
    for (std::size_t i = 0; i < njobs; ++i) {
      fused_data.push_back(random_bytes(state, kBatchLens[i]));
      ref_data.push_back(fused_data.back());
    }
    std::vector<CipherJob> fused_jobs;
    for (std::size_t i = 0; i < njobs; ++i) {
      fused_jobs.push_back(CipherJob{fused_data[i], static_cast<std::uint32_t>(i)});
    }
    std::vector<std::uint32_t> fused_tags(njobs);
    protect_payload_batch(fused_jobs, ctx, fused_tags);

    for (std::size_t i = 0; i < njobs; ++i) {
      const auto count = static_cast<std::uint32_t>(i);
      apply_keystream(ref_data[i], ctx, count);
      EXPECT_EQ(ref_data[i], fused_data[i]) << "njobs=" << njobs << " job=" << i;
      EXPECT_EQ(integrity_tag(ref_data[i], ctx, count), fused_tags[i])
          << "njobs=" << njobs << " job=" << i;
    }
  }
}

TEST(CipherBatchTest, FusedVerifyDecipherMatchesTagThenDecipher) {
  // verify_decipher_batch = integrity_tag on the received (ciphered) bytes,
  // then apply_keystream, per job — the receive order. The scalar kernels
  // are the oracle.
  const CipherContext ctx{.downlink = false};
  std::uint64_t state = 4;
  for (std::size_t njobs = 1; njobs <= std::size(kBatchLens); ++njobs) {
    std::vector<std::vector<std::uint8_t>> fused_data, ref_data;
    for (std::size_t i = 0; i < njobs; ++i) {
      fused_data.push_back(random_bytes(state, kBatchLens[i]));
      ref_data.push_back(fused_data.back());
    }
    std::vector<CipherJob> fused_jobs;
    for (std::size_t i = 0; i < njobs; ++i) {
      fused_jobs.push_back(CipherJob{fused_data[i], static_cast<std::uint32_t>(50 + i)});
    }
    std::vector<std::uint32_t> fused_tags(njobs);
    verify_decipher_batch(fused_jobs, ctx, fused_tags);

    for (std::size_t i = 0; i < njobs; ++i) {
      const auto count = static_cast<std::uint32_t>(50 + i);
      EXPECT_EQ(integrity_tag(ref_data[i], ctx, count), fused_tags[i])
          << "njobs=" << njobs << " job=" << i;
      apply_keystream(ref_data[i], ctx, count);
      EXPECT_EQ(ref_data[i], fused_data[i]) << "njobs=" << njobs << " job=" << i;
    }
  }
}

TEST(CipherBatchTest, SpeculativeDecipherUndoRestoresExactBytes) {
  // receive_batch deciphers before comparing tags; on a mismatch it undoes
  // the mutation by re-applying the keystream. That undo must restore the
  // received bytes exactly, for every length.
  const CipherContext ctx{};
  std::uint64_t state = 5;
  std::vector<std::vector<std::uint8_t>> data, pristine;
  std::vector<CipherJob> jobs;
  for (std::size_t i = 0; i < std::size(kBatchLens); ++i) {
    data.push_back(random_bytes(state, kBatchLens[i]));
    pristine.push_back(data.back());
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    jobs.push_back(CipherJob{data[i], static_cast<std::uint32_t>(i * 11)});
  }
  std::vector<std::uint32_t> tags(jobs.size());
  verify_decipher_batch(jobs, ctx, tags);
  apply_keystream_batch(jobs, ctx);  // the undo
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(pristine[i], data[i]) << "job " << i;
  }
}

// ---------------------------------------------------------------------------
// Batch entity paths vs the scalar entity paths. Two entities with the same
// configuration see the same inputs; every observable — delivered bytes,
// delivery order, counters, acceptance — must be identical.

struct Delivered {
  std::vector<std::uint32_t> counts;
  std::vector<std::vector<std::uint8_t>> sdus;
  void record(ByteBuffer&& sdu, const PacketMeta& meta) {
    counts.push_back(meta.count);
    sdus.emplace_back(sdu.bytes().begin(), sdu.bytes().end());
  }
  bool operator==(const Delivered&) const = default;
};

TEST(PdcpBatchTest, ProtectBatchMatchesScalarByteForByte) {
  for (const int sn_bits : {12, 18}) {
    for (const bool integrity : {true, false}) {
      const PdcpConfig cfg{.sn_bits = sn_bits, .integrity_enabled = integrity};
      PdcpTx batch_tx{cfg};
      PdcpTx scalar_tx{cfg};
      // 13 SDUs: one full 8-lane group plus a 5-lane remainder.
      std::vector<ByteBuffer> batch_sdus, scalar_sdus;
      std::vector<ByteBuffer*> ptrs;
      for (int i = 0; i < 13; ++i) {
        batch_sdus.push_back(payload(static_cast<std::size_t>(10 + 17 * i),
                                     static_cast<std::uint8_t>(i + 1)));
        scalar_sdus.push_back(batch_sdus.back());
      }
      for (ByteBuffer& b : batch_sdus) ptrs.push_back(&b);
      batch_tx.protect_batch(ptrs);
      for (ByteBuffer& b : scalar_sdus) scalar_tx.protect(b);
      EXPECT_EQ(scalar_tx.next_count(), batch_tx.next_count());
      for (int i = 0; i < 13; ++i) {
        EXPECT_TRUE(same_bytes(scalar_sdus[static_cast<std::size_t>(i)],
                               batch_sdus[static_cast<std::size_t>(i)]))
            << "sn_bits=" << sn_bits << " integrity=" << integrity << " sdu=" << i;
      }
    }
  }
}

TEST(PdcpBatchTest, ReceiveBatchInOrderMatchesScalar) {
  for (const bool integrity : {true, false}) {
    const PdcpConfig cfg{.integrity_enabled = integrity};
    PdcpTx tx{cfg};
    std::vector<ByteBuffer> pdus;
    std::vector<ByteBuffer*> ptrs;
    for (int i = 0; i < 13; ++i) {
      pdus.push_back(payload(static_cast<std::size_t>(20 + 9 * i),
                             static_cast<std::uint8_t>(0x30 + i)));
    }
    for (ByteBuffer& b : pdus) ptrs.push_back(&b);
    tx.protect_batch(ptrs);
    std::vector<ByteBuffer> scalar_pdus = pdus;  // pristine copies

    PdcpRx batch_rx{cfg};
    PdcpRx scalar_rx{cfg};
    Delivered batch_got, scalar_got;
    const std::size_t accepted =
        batch_rx.receive_batch(pdus, [&](ByteBuffer&& s, const PacketMeta& m) {
          batch_got.record(std::move(s), m);
        });
    std::size_t scalar_accepted = 0;
    for (ByteBuffer& b : scalar_pdus) {
      scalar_accepted += scalar_rx.receive(std::move(b), [&](ByteBuffer&& s, const PacketMeta& m) {
        scalar_got.record(std::move(s), m);
      }) ? 1u : 0u;
    }
    EXPECT_EQ(scalar_accepted, accepted);
    EXPECT_EQ(scalar_got, batch_got);
    EXPECT_EQ(scalar_rx.expected_count(), batch_rx.expected_count());
    EXPECT_EQ(scalar_rx.held_count(), batch_rx.held_count());
    EXPECT_EQ(scalar_rx.integrity_failures(), batch_rx.integrity_failures());
  }
}

TEST(PdcpBatchTest, ReceiveBatchFuzzMatchesScalarUnderDropsDupesReorderAndCorruption) {
  // Rounds of 16 protected PDUs mangled four ways; the batch path must take
  // its fallback on every deviation and end each round in exactly the state
  // the scalar oracle reaches.
  PdcpTx tx;
  PdcpRx batch_rx, scalar_rx;
  Delivered batch_got, scalar_got;
  std::uint64_t state = 0xFEEDFACE;
  auto chance = [&](int pct) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) % 100) < pct;
  };
  for (int round = 0; round < 40; ++round) {
    std::vector<ByteBuffer> pdus;
    std::vector<ByteBuffer*> ptrs;
    for (int i = 0; i < 16; ++i) {
      pdus.push_back(payload(static_cast<std::size_t>(8 + ((round * 16 + i) % 80)),
                             static_cast<std::uint8_t>(round + i)));
    }
    for (ByteBuffer& b : pdus) ptrs.push_back(&b);
    tx.protect_batch(ptrs);

    std::vector<ByteBuffer> mangled;
    for (ByteBuffer& b : pdus) {
      if (chance(10)) continue;              // drop
      if (chance(8)) mangled.push_back(b);   // duplicate
      if (chance(8) && b.size() > 3) {       // corrupt a body byte
        ByteBuffer bad = b;
        bad.bytes()[bad.size() / 2] ^= 0x40;
        mangled.push_back(std::move(bad));
        continue;
      }
      mangled.push_back(std::move(b));
    }
    // Local reorder: swap a few adjacent pairs.
    for (std::size_t i = 1; i < mangled.size(); i += 3) {
      if (chance(30)) std::swap(mangled[i - 1], mangled[i]);
    }

    std::vector<ByteBuffer> scalar_in = mangled;  // pristine copies
    const std::size_t accepted =
        batch_rx.receive_batch(mangled, [&](ByteBuffer&& s, const PacketMeta& m) {
          batch_got.record(std::move(s), m);
        });
    std::size_t scalar_accepted = 0;
    for (ByteBuffer& b : scalar_in) {
      scalar_accepted += scalar_rx.receive(std::move(b), [&](ByteBuffer&& s, const PacketMeta& m) {
        scalar_got.record(std::move(s), m);
      }) ? 1u : 0u;
    }
    ASSERT_EQ(scalar_accepted, accepted) << "round " << round;
    ASSERT_EQ(scalar_got, batch_got) << "round " << round;
    ASSERT_EQ(scalar_rx.expected_count(), batch_rx.expected_count()) << "round " << round;
    ASSERT_EQ(scalar_rx.held_count(), batch_rx.held_count()) << "round " << round;
    ASSERT_EQ(scalar_rx.integrity_failures(), batch_rx.integrity_failures()) << "round " << round;

    // End-of-round t-Reordering expiry: without it a dropped PDU stalls
    // in-order delivery for the rest of the fuzz. Also pins the flush path.
    batch_rx.flush([&](ByteBuffer&& s, const PacketMeta& m) { batch_got.record(std::move(s), m); });
    scalar_rx.flush(
        [&](ByteBuffer&& s, const PacketMeta& m) { scalar_got.record(std::move(s), m); });
    ASSERT_EQ(scalar_got, batch_got) << "round " << round << " after flush";
    ASSERT_EQ(scalar_rx.expected_count(), batch_rx.expected_count()) << "round " << round;
  }
  // The fuzz must actually have exercised both failure and success paths.
  EXPECT_GT(batch_rx.integrity_failures(), 0u);
  EXPECT_GT(batch_got.counts.size(), 100u);
}

}  // namespace
}  // namespace u5g
