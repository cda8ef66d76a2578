#include "codec/snappy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "codec/arena.h"
#include "codec/delta.h"
#include "codec/fast_decode.h"
#include "common/error.h"
#include "common/prng.h"
#include "sparse/blocked.h"
#include "sparse/generators.h"
#include "udp/lane.h"
#include "udpprog/snappy_prog.h"

namespace recode::codec {
namespace {

Bytes from_string(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

TEST(Snappy, RoundTripsSimpleText) {
  const SnappyCodec codec;
  const Bytes raw = from_string("hello hello hello hello world world world");
  const Bytes enc = codec.encode(raw);
  EXPECT_EQ(codec.decode(enc), raw);
  EXPECT_LT(enc.size(), raw.size());
}

TEST(Snappy, EmptyInput) {
  const SnappyCodec codec;
  const Bytes enc = codec.encode({});
  EXPECT_EQ(SnappyCodec::decoded_length(enc), 0u);
  EXPECT_TRUE(codec.decode(enc).empty());
}

TEST(Snappy, SingleByte) {
  const SnappyCodec codec;
  const Bytes raw = {42};
  EXPECT_EQ(codec.decode(codec.encode(raw)), raw);
}

TEST(Snappy, IncompressibleRandomData) {
  const SnappyCodec codec;
  recode::Prng prng(5);
  Bytes raw(10000);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next());
  const Bytes enc = codec.encode(raw);
  EXPECT_EQ(codec.decode(enc), raw);
  // Random bytes expand slightly (tag overhead), never by much.
  EXPECT_LT(enc.size(), raw.size() + raw.size() / 6 + 16);
}

TEST(Snappy, HighlyRepetitiveCompressesHard) {
  const SnappyCodec codec;
  Bytes raw(100000, 0xAB);
  const Bytes enc = codec.encode(raw);
  EXPECT_EQ(codec.decode(enc), raw);
  // Copy elements cap at 64 bytes / 3 stream bytes => ~21x is the format's
  // ceiling for constant input (reference snappy behaves identically).
  EXPECT_LT(enc.size(), raw.size() / 15);
}

TEST(Snappy, OverlappingCopySemantics) {
  // RLE-style pattern forces offset < length copies.
  const SnappyCodec codec;
  Bytes raw;
  for (int i = 0; i < 1000; ++i) raw.push_back(static_cast<std::uint8_t>(i % 3));
  EXPECT_EQ(codec.decode(codec.encode(raw)), raw);
}

TEST(Snappy, DecodedLengthMatchesPreamble) {
  const SnappyCodec codec;
  Bytes raw(12345, 7);
  const Bytes enc = codec.encode(raw);
  EXPECT_EQ(SnappyCodec::decoded_length(enc), 12345u);
}

TEST(Snappy, LongMatchesSplitCorrectly) {
  // > 64-byte matches exercise the copy-splitting path.
  const SnappyCodec codec;
  Bytes unit(200);
  for (std::size_t i = 0; i < unit.size(); ++i) {
    unit[i] = static_cast<std::uint8_t>(i * 37);
  }
  Bytes raw;
  for (int rep = 0; rep < 10; ++rep) raw.insert(raw.end(), unit.begin(), unit.end());
  EXPECT_EQ(codec.decode(codec.encode(raw)), raw);
}

TEST(Snappy, RejectsTruncatedStream) {
  const SnappyCodec codec;
  Bytes raw = from_string("abcabcabcabcabcabc");
  Bytes enc = codec.encode(raw);
  enc.pop_back();
  EXPECT_THROW(codec.decode(enc), Error);
}

TEST(Snappy, RejectsCopyBeforeStart) {
  // Hand-crafted: preamble len 4, then a 1-byte-offset copy with offset 1
  // at stream start (nothing decoded yet).
  Bytes bad = {4, 0b00000001, 1};
  const SnappyCodec codec;
  EXPECT_THROW(codec.decode(bad), Error);
}

TEST(Snappy, RejectsLengthMismatch) {
  // Preamble claims 100 bytes but stream holds a 3-byte literal.
  Bytes bad = {100};
  bad.push_back(static_cast<std::uint8_t>((3 - 1) << 2));
  bad.insert(bad.end(), {'a', 'b', 'c'});
  const SnappyCodec codec;
  EXPECT_THROW(codec.decode(bad), Error);
}

TEST(Snappy, KnownFormatLiteralDecode) {
  // Spec conformance: 5-byte stream "abc" as literal.
  Bytes stream = {3};  // varint uncompressed length
  stream.push_back(static_cast<std::uint8_t>((3 - 1) << 2));  // literal len 3
  stream.insert(stream.end(), {'a', 'b', 'c'});
  const SnappyCodec codec;
  EXPECT_EQ(codec.decode(stream), from_string("abc"));
}

TEST(Snappy, KnownFormatCopyDecode) {
  // "abab": literal "ab" + 2-byte-offset copy len 2 offset 2.
  Bytes stream = {4};
  stream.push_back(static_cast<std::uint8_t>((2 - 1) << 2));
  stream.insert(stream.end(), {'a', 'b'});
  stream.push_back(static_cast<std::uint8_t>(((2 - 1) << 2) | 2));  // copy2
  stream.push_back(2);
  stream.push_back(0);
  const SnappyCodec codec;
  EXPECT_EQ(codec.decode(stream), from_string("abab"));
}

class SnappyFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnappyFuzzRoundTrip, StructuredRandomBuffers) {
  const SnappyCodec codec;
  recode::Prng prng(GetParam());
  // Mix of runs, random bytes, and repeated motifs.
  Bytes raw;
  const int segments = 1 + static_cast<int>(prng.next_below(30));
  for (int s = 0; s < segments; ++s) {
    const int kind = static_cast<int>(prng.next_below(3));
    const std::size_t len = 1 + prng.next_below(3000);
    if (kind == 0) {
      raw.insert(raw.end(), len, static_cast<std::uint8_t>(prng.next()));
    } else if (kind == 1) {
      for (std::size_t i = 0; i < len; ++i) {
        raw.push_back(static_cast<std::uint8_t>(prng.next()));
      }
    } else if (!raw.empty()) {
      const std::size_t start = prng.next_below(raw.size());
      for (std::size_t i = 0; i < len; ++i) {
        raw.push_back(raw[start + (i % (raw.size() - start))]);
      }
    }
  }
  EXPECT_EQ(codec.decode(codec.encode(raw)), raw);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnappyFuzzRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 25));

// ---------------------------------------------------------------------------
// Miss acceleration: long runs of hash misses widen the scan step, every
// emitted match narrows it back to one byte.

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  recode::Prng prng(seed);
  Bytes raw(n);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next());
  return raw;
}

// Delta-coded-index-like content: little-endian words in 1..8, the
// shape of a transformed index stream (and of micro_codecs' block).
Bytes structured_block(std::size_t n, std::uint64_t seed) {
  recode::Prng prng(seed);
  Bytes raw(n);
  for (std::size_t i = 0; i < n; i += 4) {
    const std::uint32_t v = 1 + static_cast<std::uint32_t>(prng.next_below(8));
    std::memcpy(raw.data() + i, &v, std::min<std::size_t>(4, n - i));
  }
  return raw;
}

// A 256-byte random motif repeated, with one byte in every 32 overwritten,
// so the matcher must find a fresh match after every short miss run.
Bytes repetitive_block(std::size_t n, std::uint64_t seed) {
  const Bytes motif = random_bytes(256, seed);
  recode::Prng prng(seed + 1);
  Bytes raw(n);
  for (std::size_t i = 0; i < n; ++i) raw[i] = motif[i % 256];
  for (std::size_t i = 0; i < n; i += 32) {
    raw[i] = static_cast<std::uint8_t>(prng.next());
  }
  return raw;
}

Bytes concat(Bytes a, const Bytes& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// FNV-1a over `bytes`, continuing from `h` (so digests can chain).
std::uint64_t fnv1a(const Bytes& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

Bytes fast_decode(const Bytes& encoded) {
  std::vector<std::uint8_t> dst(SnappyCodec::decoded_length(encoded) +
                                kArenaSlop);
  const std::size_t got = fast::snappy_decode(encoded, dst.data());
  return Bytes(dst.begin(), dst.begin() + static_cast<std::ptrdiff_t>(got));
}

Bytes udp_decode(const Bytes& encoded) {
  const udp::Program program = udpprog::build_snappy_decode_program();
  const udp::Layout layout(program);
  udp::LaneConfig config;
  config.scratchpad_bytes = 128 * 1024;  // room for the 64 KB+ inputs
  udp::Lane lane(layout, config);
  const std::pair<int, std::uint64_t> init[] = {
      {udpprog::kSnappyOutReg, 0}, {udpprog::kSnappyBaseReg, 0}};
  lane.run(encoded, init);
  const auto scratch = lane.scratch();
  return Bytes(scratch.begin(),
               scratch.begin() + static_cast<std::ptrdiff_t>(
                                     lane.reg(udpprog::kSnappyOutReg)));
}

TEST(SnappyMissAcceleration, ThreeDecodersRoundTripEveryShape) {
  const SnappyCodec codec;
  const std::size_t sizes[] = {0,    1,    3,    4,    5,    127,  128,
                               129,  8191, 8192, 8193, 65536 + 300};
  for (const std::size_t n : sizes) {
    const std::size_t half = n / 2;
    const std::pair<const char*, Bytes> inputs[] = {
        {"random", random_bytes(n, 11 + n)},
        {"zeros", Bytes(n, 0)},
        {"structured", structured_block(n, 12 + n)},
        {"random-then-repetitive",
         concat(random_bytes(half, 13 + n), repetitive_block(n - half, 14))},
        {"repetitive-then-random",
         concat(repetitive_block(half, 15), random_bytes(n - half, 16 + n))},
    };
    for (const auto& [shape, raw] : inputs) {
      SCOPED_TRACE(std::string(shape) + " n=" + std::to_string(n));
      ASSERT_EQ(raw.size(), n);
      const Bytes enc = codec.encode(raw);
      EXPECT_EQ(codec.decode(enc), raw);
      EXPECT_EQ(fast_decode(enc), raw);
      EXPECT_EQ(udp_decode(enc), raw);
    }
  }
}

TEST(SnappyMissAcceleration, RandomBlockIsOneLiteral) {
  // 8 KB of random bytes: varint(8192) is 2 bytes, then a single literal
  // element (tag 61: two length bytes) carrying the input verbatim.
  const SnappyCodec codec;
  const Bytes raw = random_bytes(8192, 21);
  const Bytes enc = codec.encode(raw);
  ASSERT_EQ(enc.size(), 2u + 3u + raw.size());
  EXPECT_EQ(enc[2], 61u << 2);
  EXPECT_TRUE(std::equal(raw.begin(), raw.end(), enc.begin() + 5));
}

TEST(SnappyMissAcceleration, StepResetsAfterRandomPrefix) {
  // A 4 KB random prefix drives the step up; the repetitive suffix must
  // still compress as if it stood alone, because its first match resets
  // the step to one byte.
  const SnappyCodec codec;
  const Bytes prefix = random_bytes(4096, 31);
  const Bytes suffix = repetitive_block(16384, 32);
  const Bytes enc = codec.encode(concat(prefix, suffix));
  const std::size_t prefix_cost = codec.encode(prefix).size();
  ASSERT_GT(enc.size(), prefix_cost);
  EXPECT_LT(enc.size() - prefix_cost, suffix.size() / 4);
}

// One digest over the Snappy encodes of every block's streams of a mesh
// matrix, as compress() hands them to Snappy: delta-coded indices, then
// raw values.
std::uint64_t mesh_snappy_digest(sparse::ValueModel vm) {
  const sparse::Csr csr = sparse::gen_fem_like(3000, 10, 80, vm, 2019);
  const sparse::Blocking blocking =
      sparse::make_blocking(csr, sparse::kDefaultNnzPerBlock);
  const SnappyCodec codec;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& range : blocking.blocks) {
    const auto idx = sparse::block_indices(csr, range);
    const auto val = sparse::block_values(csr, range);
    const Bytes delta = DeltaCodec().encode(
        {reinterpret_cast<const std::uint8_t*>(idx.data()), idx.size_bytes()});
    h = fnv1a(codec.encode(delta), h);
    h = fnv1a(codec.encode({reinterpret_cast<const std::uint8_t*>(val.data()),
                            val.size_bytes()}),
              h);
  }
  return h;
}

TEST(SnappyMissAcceleration, CompressibleStreamsAreUnchanged) {
  // Digests of the encoder's output taken before miss acceleration
  // existed: a stream that never runs 128 probes without a match must
  // encode byte for byte as it always did.
  const SnappyCodec codec;
  EXPECT_EQ(fnv1a(codec.encode(structured_block(8192, 2021))),
            0xe8389586cad1933eull);
  EXPECT_EQ(fnv1a(codec.encode(structured_block(65536 + 300, 7))),
            0x3e7db8e5e59548d2ull);
  // Real block payloads, pinned before the encoder moved to EncodeArena.
  EXPECT_EQ(mesh_snappy_digest(sparse::ValueModel::kRandom), 0x12b4371df7907c29ull);
  EXPECT_EQ(mesh_snappy_digest(sparse::ValueModel::kSmoothField),
            0x8025280de4c4b128ull);
}

// ---------------------------------------------------------------------------
// EncodeArena's epoch-stamped match table: reused without re-zeroing, it
// must make exactly the decisions of a fresh table.

Bytes arena_encode(const Bytes& raw, EncodeArena& arena) {
  Bytes out(snappy_max_encoded_length(raw.size()));
  out.resize(snappy_encode(raw, out.data(), arena));
  return out;
}

TEST(SnappyEncodeArena, ReusedArenaMatchesFreshEncode) {
  // X after unrelated Y and Z, then X again right after itself: the last
  // encode finds every one of its hash slots stamped by the same bytes at
  // the same positions, all of which must read as empty.
  const Bytes y = repetitive_block(8192, 40);
  const Bytes z = random_bytes(3000, 41);
  const Bytes x = concat(structured_block(5000, 42), repetitive_block(3192, 43));
  const SnappyCodec fresh;
  EncodeArena arena;
  EXPECT_EQ(arena_encode(y, arena), fresh.encode(y));
  EXPECT_EQ(arena_encode(z, arena), fresh.encode(z));
  EXPECT_EQ(arena_encode(x, arena), fresh.encode(x));
  EXPECT_EQ(arena_encode(x, arena), fresh.encode(x));
  EXPECT_EQ(arena.epoch(), y.size() + z.size() + 2 * x.size() + 4);
}

TEST(SnappyEncodeArena, EpochWrapRezeroesTableAndKeepsBytes) {
  // Start 10000 stamps short of 2^32: Y fits below the limit, X would
  // pass it, so the table is re-zeroed and the epoch restarts at 0.
  const Bytes y = structured_block(4000, 50);
  const Bytes x = structured_block(8192, 51);
  const SnappyCodec fresh;
  EncodeArena arena(0xFFFFFFFFull - 10000);
  EXPECT_EQ(arena_encode(y, arena), fresh.encode(y));
  EXPECT_EQ(arena.epoch(), 0xFFFFFFFFull - 10000 + y.size() + 1);
  EXPECT_EQ(arena_encode(x, arena), fresh.encode(x));
  EXPECT_EQ(arena.epoch(), x.size() + 1);  // restarted at 0
  // No stamp of Y's survives the wrap: every entry is empty or X's.
  const EncodeArena::SnappyTable table = arena.snappy_table(0);
  EXPECT_EQ(table.base, x.size() + 1);
  const std::uint32_t* begin = table.entries;
  const std::uint32_t* end = begin + (1u << kSnappyHashBits);
  EXPECT_TRUE(std::all_of(begin, end,
                          [&](std::uint32_t e) { return e <= table.base; }));
  EXPECT_EQ(arena_encode(x, arena), fresh.encode(x));
}

}  // namespace
}  // namespace recode::codec
