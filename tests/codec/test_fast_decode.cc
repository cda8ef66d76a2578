// Unit suite for the zero-allocation fast decode path: DecodeArena slab
// reuse, the 11-bit Huffman fast table checked exhaustively against the
// canonical codes, fast-vs-reference equivalence per codec, and the
// steady-state zero-allocation guarantee — of block decode, and of block
// encode through an EncodeArena — asserted through a global operator-new
// counting hook.
#include "codec/fast_decode.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "codec/arena.h"
#include "codec/delta.h"
#include "codec/huffman.h"
#include "codec/pipeline.h"
#include "codec/registry.h"
#include "codec/snappy.h"
#include "codec/varint_delta.h"
#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"

// ---------------------------------------------------------------------------
// Global allocation-counting hook. Every heap allocation in this binary
// (gtest's included) bumps the counter; the zero-allocation tests snapshot
// it around warmed decode loops.
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace recode::codec {
namespace {

using sparse::Csr;
using sparse::ValueModel;

Bytes random_bytes(Prng& prng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(prng.next());
  return out;
}

// Skewed byte distribution: short Huffman codes dominate, so fast table
// entries routinely pack 2 symbols.
Bytes skewed_bytes(Prng& prng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) {
    const std::uint64_t r = prng.next_below(100);
    b = r < 70 ? static_cast<std::uint8_t>(prng.next_below(4))
               : static_cast<std::uint8_t>(prng.next());
  }
  return out;
}

Bytes index_words(Prng& prng, std::size_t words) {
  Bytes out(words * 4);
  std::int32_t v = 0;
  for (std::size_t i = 0; i < words; ++i) {
    v += static_cast<std::int32_t>(prng.next_below(64));
    std::memcpy(out.data() + i * 4, &v, 4);
  }
  return out;
}

TEST(DecodeArena, GrowsMonotonicallyAndReuses) {
  DecodeArena arena;
  EXPECT_EQ(arena.allocations(), 0u);
  std::uint8_t* p1 = arena.slab(DecodeArena::kScratchA, 100);
  EXPECT_EQ(arena.allocations(), 1u);
  EXPECT_GE(arena.slot_capacity(DecodeArena::kScratchA), 100u);

  // Smaller and equal requests reuse the slab.
  EXPECT_EQ(arena.slab(DecodeArena::kScratchA, 50), p1);
  EXPECT_EQ(arena.slab(DecodeArena::kScratchA, 100), p1);
  EXPECT_EQ(arena.allocations(), 1u);

  // A larger request regrows once, then holds.
  const std::size_t big = arena.slot_capacity(DecodeArena::kScratchA) + 1;
  arena.slab(DecodeArena::kScratchA, big);
  EXPECT_EQ(arena.allocations(), 2u);
  EXPECT_GE(arena.slot_capacity(DecodeArena::kScratchA), big);
  arena.slab(DecodeArena::kScratchA, big);
  EXPECT_EQ(arena.allocations(), 2u);

  // Slots are independent.
  arena.slab(DecodeArena::kValueOut, 10);
  EXPECT_EQ(arena.allocations(), 3u);
  EXPECT_GT(arena.capacity_bytes(), 0u);
}

TEST(DecodeArena, SlopIsAlwaysWritable) {
  DecodeArena arena;
  for (std::size_t size : {0u, 1u, 100u, 5000u}) {
    std::uint8_t* p = arena.slab(DecodeArena::kIndexOut, size);
    // Writing size + kArenaSlop bytes is the contract the word-wise
    // decoders rely on; ASan guards the other end.
    std::memset(p, 0xAB, size + kArenaSlop);
  }
}

// Symbol whose canonical code is a prefix of the `nbits`-bit value `bits`
// (MSB first), or -1 when no code fits in nbits. Brute force over the
// 256 codes, independent of the decode tables.
int code_prefix(const HuffmanTable& table, std::uint32_t bits, int nbits) {
  for (int s = 0; s < 256; ++s) {
    const int len = table.length(static_cast<std::uint8_t>(s));
    if (len <= nbits &&
        (bits >> (nbits - len)) == table.code(static_cast<std::uint8_t>(s))) {
      return s;
    }
  }
  return -1;
}

// Every 11-bit window's entry holds exactly the codes that fit in it: the
// first code (or count 0 when it is longer than the window) and a second
// one whenever it fits in the bits the first left over. Counts the
// long-code (fallback) windows into *fallbacks.
void check_fast_table(const HuffmanTable& table, int* fallbacks = nullptr) {
  const auto* fast = table.fast_table();
  for (std::uint32_t w = 0; w < (1u << kFastTableBits); ++w) {
    const auto& e = fast[w];
    const int first = code_prefix(table, w, kFastTableBits);
    if (first < 0) {
      ASSERT_EQ(e.count, 0) << "window " << w;
      ASSERT_EQ(e.bits, 0) << "window " << w;
      if (fallbacks != nullptr) ++*fallbacks;
      continue;
    }
    const int len1 = table.length(static_cast<std::uint8_t>(first));
    const int rest = kFastTableBits - len1;
    const int second =
        rest == 0 ? -1 : code_prefix(table, w & ((1u << rest) - 1), rest);
    ASSERT_EQ(e.symbols[0], first) << "window " << w;
    if (second < 0) {
      ASSERT_EQ(e.count, 1) << "window " << w;
      ASSERT_EQ(e.bits, len1) << "window " << w;
      ASSERT_EQ(e.symbols[1], 0) << "window " << w;
    } else {
      ASSERT_EQ(e.count, 2) << "window " << w;
      ASSERT_EQ(e.symbols[1], second) << "window " << w;
      ASSERT_EQ(e.bits, len1 + table.length(static_cast<std::uint8_t>(second)))
          << "window " << w;
    }
  }
}

TEST(FastTable, UniformTable) {
  int fallbacks = 0;
  check_fast_table(HuffmanTable(), &fallbacks);
  EXPECT_EQ(fallbacks, 0);
}

TEST(FastTable, SkewedTable) {
  Prng prng(2024);
  check_fast_table(HuffmanTable::train(skewed_bytes(prng, 1 << 16)));
}

TEST(FastTable, RandomTable) {
  Prng prng(2025);
  check_fast_table(HuffmanTable::train(random_bytes(prng, 1 << 16)));
}

TEST(FastTable, LongCodesFallBack) {
  // Geometric frequencies: the rare symbols get codes longer than the
  // window.
  std::array<std::uint64_t, 256> hist{};
  for (int s = 0; s < 32; ++s) {
    hist[static_cast<std::size_t>(s)] = 1ull << (40 - s);
  }
  int fallbacks = 0;
  check_fast_table(HuffmanTable::build(hist), &fallbacks);
  EXPECT_GT(fallbacks, 0);
}

TEST(FastHuffman, MatchesReferenceAcrossSizes) {
  Prng prng(31);
  for (const bool skewed : {false, true}) {
    Bytes sample = skewed ? skewed_bytes(prng, 1 << 15)
                          : random_bytes(prng, 1 << 15);
    const auto table = std::make_shared<const HuffmanTable>(
        HuffmanTable::train(sample));
    const HuffmanCodec codec(table);
    // Every size below 10, and 4q+1 sizes whose last lane is short or
    // empty.
    for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 13u, 64u,
                                1000u, 1025u, 8192u, 8193u, 40000u}) {
      const Bytes raw = skewed ? skewed_bytes(prng, n) : random_bytes(prng, n);
      const Bytes encoded = codec.encode(raw);
      const Bytes ref = codec.decode(encoded);
      ASSERT_EQ(ref, raw) << "n=" << n;
      DecodeArena arena;
      std::uint8_t* dst = arena.slab(
          DecodeArena::kScratchA, HuffmanCodec::decoded_length(encoded));
      // Lanes write only their own symbols: nothing lands past n.
      std::memset(dst, 0xA5, n + kArenaSlop);
      const std::size_t got = fast::huffman_decode(*table, encoded, dst);
      ASSERT_EQ(got, ref.size()) << "n=" << n;
      for (std::size_t i = n; i < n + kArenaSlop; ++i) {
        ASSERT_EQ(dst[i], 0xA5) << "n=" << n << " wrote past the end at " << i;
      }
      // ref.data() is null when n == 0; memcmp's args are declared
      // nonnull, so only compare nonempty outputs.
      if (got != 0) {
        ASSERT_EQ(std::memcmp(dst, ref.data(), got), 0) << "n=" << n;
      }
    }
  }
}

TEST(FastSnappy, MatchesReferenceAcrossShapes) {
  Prng prng(32);
  const SnappyCodec codec;
  // Compressible (copy-heavy), random (literal-heavy), runs (overlapping
  // short-offset matches), and tiny inputs.
  std::vector<Bytes> inputs;
  inputs.push_back(Bytes{});
  inputs.push_back(Bytes{0x42});
  inputs.push_back(random_bytes(prng, 100));
  inputs.push_back(random_bytes(prng, 70000));
  Bytes runs(9000, 0x7);  // off=1 copies
  inputs.push_back(runs);
  Bytes period(8192);
  for (std::size_t i = 0; i < period.size(); ++i) {
    period[i] = static_cast<std::uint8_t>((i / 7) & 0xFF);
  }
  inputs.push_back(period);
  inputs.push_back(index_words(prng, 2048));
  for (const Bytes& raw : inputs) {
    const Bytes encoded = codec.encode(raw);
    const Bytes ref = codec.decode(encoded);
    DecodeArena arena;
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA,
                                   SnappyCodec::decoded_length(encoded));
    const std::size_t got = fast::snappy_decode(encoded, dst);
    ASSERT_EQ(got, ref.size());
    if (got != 0) {
      ASSERT_EQ(std::memcmp(dst, ref.data(), got), 0);
    }
  }
}

TEST(FastTransforms, MatchReference) {
  Prng prng(33);
  const Bytes raw = index_words(prng, 4096);

  const Bytes delta = DeltaCodec().encode(raw);
  DecodeArena arena;
  std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, delta.size());
  ASSERT_EQ(fast::delta_decode(delta, dst), raw.size());
  EXPECT_EQ(std::memcmp(dst, raw.data(), raw.size()), 0);

  const Bytes vdelta = VarintDeltaCodec().encode(raw);
  std::uint8_t* dst2 = arena.slab(DecodeArena::kScratchB, raw.size());
  ASSERT_EQ(fast::varint_delta_decode(vdelta, dst2, raw.size()), raw.size());
  EXPECT_EQ(std::memcmp(dst2, raw.data(), raw.size()), 0);
}

TEST(FastTransforms, VarintDeltaOverflowParsesPastCapacity) {
  // When the stream decodes to more words than the destination holds, the
  // fast decoder must keep parsing (surfacing any parse error exactly
  // where the reference would) and report the true total for the caller's
  // size check.
  Prng prng(34);
  const Bytes raw = index_words(prng, 256);
  const Bytes encoded = VarintDeltaCodec().encode(raw);
  DecodeArena arena;
  const std::size_t cap = 100;  // < 1024 bytes of true output
  std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, cap);
  EXPECT_EQ(fast::varint_delta_decode(encoded, dst, cap), raw.size());
}

TEST(FastDecodeAlloc, BlockDecodeIsZeroAllocationOnceWarm) {
  const Csr csr =
      sparse::gen_fem_like(4000, 10, 80, ValueModel::kSmoothField, 77);
  const CompressedMatrix cm = compress(csr, PipelineConfig::udp_dsh());
  ASSERT_GT(cm.blocks.size(), 2u);

  DecodeArena scratch;
  DecodeArena out;
  // Warm pass: arenas grow to the largest block, telemetry registers.
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    (void)decompress_block_fast(cm, b, scratch, out);
  }
  const std::uint64_t arena_allocs = scratch.allocations() + out.allocations();

  const std::uint64_t heap_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  double checksum = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
      const DecodedBlock d = decompress_block_fast(cm, b, scratch, out);
      checksum += d.values[0] + static_cast<double>(d.indices[0]);
    }
  }
  const std::uint64_t heap_after =
      g_heap_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(heap_after - heap_before, 0u)
      << "steady-state block decode allocated";
  EXPECT_EQ(scratch.allocations() + out.allocations(), arena_allocs);
  EXPECT_NE(checksum, 0.0);  // keep the decode loop observable
}

TEST(EncodeArena, BlockEncodeIsZeroAllocationOnceWarm) {
  // The encode side of the contract: once an EncodeArena and a reused
  // CompressedBlock have seen the largest block, encode_block allocates
  // nothing, under every kSingle preset (the writer's per-worker path).
  const Csr csr =
      sparse::gen_fem_like(4000, 10, 80, ValueModel::kRandom, 79);
  for (const PipelineConfig& cfg :
       {PipelineConfig::udp_dsh(), PipelineConfig::udp_ds(),
        PipelineConfig::cpu_snappy(), PipelineConfig::udp_vsh()}) {
    SCOPED_TRACE("config snappy=" + std::to_string(cfg.snappy) +
                 " huffman=" + std::to_string(cfg.huffman));
    const CompressedMatrix cm = compress(csr, cfg);
    ASSERT_GT(cm.blocks.size(), 2u);
    const BlockCodec codec = codec_from_id(codec_id_for(cfg));
    const auto encode = [&](std::size_t b, EncodeArena& arena,
                            CompressedBlock& out) {
      const auto& range = cm.blocking.blocks[b];
      encode_block(sparse::block_indices(csr, range),
                   sparse::block_values(csr, range), codec,
                   cm.index_table.get(), cm.value_table.get(), arena, out);
    };
    // Warm pass: the arena's slabs and the block's buffers grow to the
    // largest block and payload; telemetry registers.
    EncodeArena arena;
    CompressedBlock out;
    for (std::size_t b = 0; b < cm.blocks.size(); ++b) encode(b, arena, out);
    const std::uint64_t arena_allocs = arena.allocations();

    const std::uint64_t heap_before =
        g_heap_allocations.load(std::memory_order_relaxed);
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        encode(b, arena, out);
        // Bytes identical to compress() (whose pass 1 stored the mids).
        ASSERT_EQ(out.index_data, cm.blocks[b].index_data) << "block " << b;
        ASSERT_EQ(out.value_data, cm.blocks[b].value_data) << "block " << b;
      }
    }
    EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed) -
                  heap_before,
              0u)
        << "steady-state block encode allocated";
    EXPECT_EQ(arena.allocations(), arena_allocs);
  }
}

TEST(FastDecodeAlloc, AllConfigsZeroAllocationOnceWarm) {
  const Csr csr =
      sparse::gen_banded(6000, 6, 0.9, ValueModel::kStencilCoeffs, 78);
  for (const PipelineConfig& cfg :
       {PipelineConfig::udp_dsh(), PipelineConfig::udp_ds(),
        PipelineConfig::cpu_snappy(), PipelineConfig::udp_vsh()}) {
    const CompressedMatrix cm = compress(csr, cfg);
    DecodeArena scratch;
    DecodeArena out;
    for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
      (void)decompress_block_fast(cm, b, scratch, out);
    }
    const std::uint64_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
      (void)decompress_block_fast(cm, b, scratch, out);
    }
    EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed) - before, 0u)
        << "config snappy=" << cfg.snappy << " huffman=" << cfg.huffman;
  }
}

}  // namespace
}  // namespace recode::codec
