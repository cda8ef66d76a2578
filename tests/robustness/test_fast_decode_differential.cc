// Fast-decode differential suite: the arena/word-wise decode path
// (codec::decompress_block_fast and the fast:: stage decoders) must be
// bitwise-identical to the reference scalar path on every valid stream,
// and throw a recode::Error with the same message on every malformed one.
// Runs across all pipeline stage combinations, hundreds of random blocks,
// and CorruptionEngine-mutated inputs; under the sanitize preset ASan
// additionally proves the word-wise loops never read or write past the
// slop margin.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "codec/arena.h"
#include "codec/fast_decode.h"
#include "codec/huffman.h"
#include "codec/pipeline.h"
#include "codec/snappy.h"
#include "common/bitio.h"
#include "common/error.h"
#include "common/prng.h"
#include "common/varint.h"
#include "sparse/generators.h"
#include "testing/corrupt.h"
#include "udpprog/huffman_prog.h"

namespace recode::testing {
namespace {

using codec::Bytes;
using codec::ByteSpan;
using codec::CompressedMatrix;
using codec::DecodeArena;
using codec::PipelineConfig;
using codec::Transform;
using sparse::Csr;
using sparse::ValueModel;

// Every stage combination the pipeline can be configured into.
std::vector<PipelineConfig> all_configs() {
  std::vector<PipelineConfig> configs;
  for (const bool huffman : {false, true}) {
    for (const bool snappy : {false, true}) {
      for (const Transform idx : {Transform::kNone, Transform::kDelta32,
                                  Transform::kVarintDelta}) {
        for (const Transform val : {Transform::kNone, Transform::kDelta32}) {
          PipelineConfig cfg;
          cfg.huffman = huffman;
          cfg.snappy = snappy;
          cfg.index_transform = idx;
          cfg.value_transform = val;
          configs.push_back(cfg);
        }
      }
    }
  }
  return configs;
}

struct DecodeOutcome {
  bool ok = false;
  std::string error;
  std::vector<sparse::index_t> indices;
  std::vector<double> values;

  bool operator==(const DecodeOutcome& other) const {
    return ok == other.ok && error == other.error &&
           indices == other.indices && values == other.values;
  }
};

DecodeOutcome run_reference(const CompressedMatrix& cm, std::size_t b) {
  DecodeOutcome out;
  try {
    codec::decompress_block_reference(cm, b, out.indices, out.values);
    out.ok = true;
  } catch (const recode::Error& e) {
    out.error = e.what();
  }
  return out;
}

DecodeOutcome run_fast(const CompressedMatrix& cm, std::size_t b,
                       DecodeArena& scratch, DecodeArena& out_arena) {
  DecodeOutcome out;
  try {
    const codec::DecodedBlock d =
        codec::decompress_block_fast(cm, b, scratch, out_arena);
    out.indices.assign(d.indices.begin(), d.indices.end());
    out.values.assign(d.values.begin(), d.values.end());
    out.ok = true;
  } catch (const recode::Error& e) {
    out.error = e.what();
  }
  return out;
}

void expect_same(const DecodeOutcome& ref, const DecodeOutcome& fast,
                 const std::string& context) {
  EXPECT_EQ(ref.ok, fast.ok) << context << " ref_err=" << ref.error
                             << " fast_err=" << fast.error;
  EXPECT_EQ(ref.error, fast.error) << context;
  EXPECT_EQ(ref.indices, fast.indices) << context;
  if (ref.values.size() == fast.values.size()) {
    // Bitwise, not numeric: NaN payloads and signed zeros must survive.
    for (std::size_t i = 0; i < ref.values.size(); ++i) {
      EXPECT_EQ(std::memcmp(&ref.values[i], &fast.values[i], sizeof(double)),
                0)
          << context << " value " << i;
    }
  } else {
    ADD_FAILURE() << context << " value sizes differ";
  }
}

TEST(FastDecodeDifferential, AllStageCombinationsBitwiseIdentical) {
  const Csr csr =
      sparse::gen_fem_like(3000, 10, 70, ValueModel::kSmoothField, 501);
  std::size_t blocks_checked = 0;
  for (const PipelineConfig& cfg : all_configs()) {
    const CompressedMatrix cm = codec::compress(csr, cfg);
    DecodeArena scratch, out;
    for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
      const DecodeOutcome ref = run_reference(cm, b);
      const DecodeOutcome fast = run_fast(cm, b, scratch, out);
      ASSERT_TRUE(ref.ok) << "clean stream must decode";
      expect_same(ref, fast,
                  "cfg huffman=" + std::to_string(cfg.huffman) +
                      " snappy=" + std::to_string(cfg.snappy) +
                      " idx_t=" + codec::transform_name(cfg.index_transform) +
                      " val_t=" + codec::transform_name(cfg.value_transform) +
                      " block=" + std::to_string(b));
      ++blocks_checked;
    }
  }
  // The acceptance floor: well over 100 distinct blocks proved identical.
  EXPECT_GE(blocks_checked, 100u);
}

TEST(FastDecodeDifferential, RandomMatricesAcrossFamilies) {
  Prng prng(502);
  const std::vector<Csr> matrices = {
      sparse::gen_random(2000, 2000, 30000, ValueModel::kRandom, 503),
      sparse::gen_banded(8000, 7, 0.85, ValueModel::kStencilCoeffs, 504),
      sparse::gen_circuit(4000, 5, ValueModel::kFewDistinct, 505),
  };
  for (const auto& csr : matrices) {
    for (const PipelineConfig& cfg :
         {PipelineConfig::udp_dsh(), PipelineConfig::udp_vsh(),
          PipelineConfig::cpu_snappy()}) {
      const CompressedMatrix cm = codec::compress(csr, cfg);
      DecodeArena scratch, out;
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        expect_same(run_reference(cm, b), run_fast(cm, b, scratch, out),
                    "family block " + std::to_string(b));
      }
    }
  }
}

// Corrupted streams: the fast path must agree with the reference on
// whether the stream is rejected AND on the exact error message — the
// corruption surface is where shortcuts in a fast decoder usually
// diverge. Arenas are reused across variants, so a poisoned decode must
// also not corrupt later decodes.
TEST(FastDecodeDifferential, CorruptionParityAllConfigs) {
  const Csr csr =
      sparse::gen_fem_like(1500, 8, 50, ValueModel::kSmoothField, 506);
  std::uint64_t seed = 507;
  int rejected = 0;
  int checked = 0;
  for (const PipelineConfig& cfg : all_configs()) {
    CompressedMatrix cm = codec::compress(csr, cfg);
    if (cm.blocks.size() < 2) continue;
    DecodeArena scratch, out;
    const Bytes clean_idx = cm.blocks[0].index_data;
    const Bytes clean_val = cm.blocks[0].value_data;
    const Bytes sibling = cm.blocks[1].index_data;

    for (const bool corrupt_values : {false, true}) {
      const Bytes& clean = corrupt_values ? clean_val : clean_idx;
      for (const Bytes& variant :
           corruption_variants(clean, sibling, ++seed, 6)) {
        if (corrupt_values) {
          cm.blocks[0].value_data = variant;
        } else {
          cm.blocks[0].index_data = variant;
        }
        const DecodeOutcome ref = run_reference(cm, 0);
        const DecodeOutcome fast = run_fast(cm, 0, scratch, out);
        expect_same(ref, fast, "corrupt stream parity");
        rejected += ref.ok ? 0 : 1;
        ++checked;
        // The arena must stay usable after a mid-decode throw: the next
        // clean block decodes bitwise-correctly through the same arenas.
        cm.blocks[0].index_data = clean_idx;
        cm.blocks[0].value_data = clean_val;
        const DecodeOutcome clean_ref = run_reference(cm, 0);
        const DecodeOutcome clean_fast = run_fast(cm, 0, scratch, out);
        ASSERT_TRUE(clean_ref.ok);
        expect_same(clean_ref, clean_fast, "post-corruption clean decode");
      }
    }
  }
  EXPECT_GT(checked, 100);
  EXPECT_GT(rejected, 0) << "corruption model never tripped the decoder";
}

// Stream-level parity for the stage decoders in isolation, on corrupted
// inputs (sized with the same untrusted-length validation the pipeline
// performs before sizing a slab).
TEST(FastDecodeDifferential, HuffmanStreamCorruptionParity) {
  Prng prng(508);
  Bytes sample(1 << 14);
  for (auto& b : sample) {
    b = prng.next_below(100) < 70
            ? static_cast<std::uint8_t>(prng.next_below(8))
            : static_cast<std::uint8_t>(prng.next());
  }
  const auto table =
      std::make_shared<const codec::HuffmanTable>(codec::HuffmanTable::train(sample));
  const codec::HuffmanCodec codec(table);
  const Bytes clean = codec.encode(sample);
  const Bytes sibling = codec.encode(Bytes(sample.begin(), sample.begin() + 512));
  DecodeArena arena;
  int rejected = 0;
  for (const Bytes& variant : corruption_variants(clean, sibling, 509, 24)) {
    std::optional<Bytes> ref;
    std::string ref_err;
    try {
      ref = codec.decode(variant);
    } catch (const recode::Error& e) {
      ref_err = e.what();
    }
    std::optional<std::size_t> fast_n;
    std::string fast_err;
    std::uint8_t* dst = nullptr;
    try {
      // The pipeline's pre-slab validation: the shared header parse.
      dst = arena.slab(DecodeArena::kScratchA,
                       codec::HuffmanCodec::decoded_length(variant));
      fast_n = codec::fast::huffman_decode(*table, variant, dst);
    } catch (const recode::Error& e) {
      fast_err = e.what();
    }
    ASSERT_EQ(ref.has_value(), fast_n.has_value()) << ref_err << " vs " << fast_err;
    ASSERT_EQ(ref_err, fast_err);
    if (ref.has_value()) {
      ASSERT_EQ(ref->size(), *fast_n);
      // ref->data() is null for an empty decode; memcmp's args are
      // declared nonnull, so only compare nonempty outputs.
      if (!ref->empty()) {
        ASSERT_EQ(std::memcmp(dst, ref->data(), ref->size()), 0);
      }
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

// --- Huffman lane frame: fast == reference == UDP ---

// One engine's result on one Huffman payload.
struct HuffmanOutcome {
  bool ok = false;
  std::string error;
  Bytes bytes;

  bool operator==(const HuffmanOutcome& other) const {
    return ok == other.ok && error == other.error && bytes == other.bytes;
  }
};

template <typename F>
HuffmanOutcome huffman_outcome(F&& decode) {
  HuffmanOutcome out;
  try {
    out.bytes = decode();
    out.ok = true;
  } catch (const recode::Error& e) {
    out.error = e.what();
  }
  return out;
}

// Decodes `payload` on the reference, fast and UDP engines, asserts they
// agree bitwise (or throw the same error), and returns the outcome.
HuffmanOutcome decode_all_engines(
    const std::shared_ptr<const codec::HuffmanTable>& table,
    ByteSpan payload) {
  const HuffmanOutcome ref = huffman_outcome(
      [&] { return codec::HuffmanCodec(table).decode(payload); });
  const HuffmanOutcome fast = huffman_outcome([&] {
    DecodeArena arena;
    const std::size_t n = codec::HuffmanCodec::decoded_length(payload);
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, n);
    const std::size_t got = codec::fast::huffman_decode(*table, payload, dst);
    return Bytes(dst, dst + got);
  });
  const HuffmanOutcome udp = huffman_outcome([&] {
    const udp::Layout layout(udpprog::build_huffman_decode_program(*table));
    const codec::HuffmanFrame frame = codec::parse_huffman_frame(payload);
    Bytes out(frame.count);
    udpprog::udp_huffman_decode(layout, frame, out.data());
    return out;
  });
  EXPECT_EQ(ref, fast) << ref.error << " vs fast " << fast.error;
  EXPECT_EQ(ref, udp) << ref.error << " vs udp " << udp.error;
  return ref;
}

std::shared_ptr<const codec::HuffmanTable> skewed_table(Prng& prng,
                                                        Bytes& sample) {
  sample.resize(1 << 14);
  for (auto& b : sample) {
    b = prng.next_below(100) < 70
            ? static_cast<std::uint8_t>(prng.next_below(8))
            : static_cast<std::uint8_t>(prng.next());
  }
  return std::make_shared<const codec::HuffmanTable>(
      codec::HuffmanTable::train(sample));
}

// A payload in the single-stream form v1/v2 containers hold:
// varint(n) followed by one MSB-first bit stream.
Bytes legacy_payload(const codec::HuffmanTable& table, ByteSpan raw) {
  Bytes out;
  varint_append(out, raw.size());
  BitWriter writer;
  for (const std::uint8_t b : raw) writer.write(table.code(b), table.length(b));
  const Bytes bits = writer.finish();
  out.insert(out.end(), bits.begin(), bits.end());
  return out;
}

TEST(HuffmanLanes, SmallAndRaggedSizesAgreeOnEveryEngine) {
  Prng prng(520);
  Bytes sample;
  const auto table = skewed_table(prng, sample);
  const codec::HuffmanCodec codec(table);
  // n < 10, then 4q+1 sizes (the last lane short or empty).
  for (const std::size_t n :
       {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 13u, 65u, 1029u, 8193u}) {
    const Bytes raw(sample.begin(), sample.begin() + n);
    const Bytes payload = codec.encode(raw);
    const codec::HuffmanFrame frame = codec::parse_huffman_frame(payload);
    ASSERT_EQ(frame.count, n);
    ASSERT_EQ(frame.lanes, n == 0 ? 1 : codec::kHuffmanLanes);
    std::size_t next = 0;
    for (int k = 0; k < frame.lanes; ++k) {
      ASSERT_EQ(frame.lane[k].first, next) << "n=" << n << " lane " << k;
      next = frame.lane[k].end;
    }
    ASSERT_EQ(next, n);
    const HuffmanOutcome out = decode_all_engines(table, payload);
    ASSERT_TRUE(out.ok) << "n=" << n << ": " << out.error;
    ASSERT_EQ(out.bytes, raw) << "n=" << n;
  }
}

TEST(HuffmanLanes, LegacySingleStreamPayloadsStillDecode) {
  Prng prng(521);
  Bytes sample;
  const auto skewed = skewed_table(prng, sample);
  const auto uniform = std::make_shared<const codec::HuffmanTable>();
  for (const auto& table : {skewed, uniform}) {
    for (const std::size_t n : {0u, 1u, 7u, 127u, 128u, 1000u, 8192u}) {
      const Bytes raw(sample.begin(), sample.begin() + n);
      const Bytes payload = legacy_payload(*table, raw);
      ASSERT_EQ(codec::parse_huffman_frame(payload).lanes, 1);
      const HuffmanOutcome out = decode_all_engines(table, payload);
      ASSERT_TRUE(out.ok) << "n=" << n << ": " << out.error;
      ASSERT_EQ(out.bytes, raw) << "n=" << n;
    }
  }
}

TEST(HuffmanLanes, HostileFramesFailIdenticallyOnEveryEngine) {
  Prng prng(522);
  Bytes sample;
  const auto table = skewed_table(prng, sample);
  const Bytes raw(sample.begin(), sample.begin() + 4000);
  const Bytes good = codec::HuffmanCodec(table).encode(raw);
  const codec::HuffmanFrame frame = codec::parse_huffman_frame(good);
  const std::size_t body =
      good.size() - static_cast<std::size_t>(frame.lane[0].bits.data() -
                                             good.data());

  // Re-frames the valid payload's lane bits behind the given header.
  const auto reframed = [&](std::uint64_t n,
                            std::initializer_list<std::uint64_t> lens) {
    Bytes out{0x00};
    varint_append(out, n);
    for (const std::uint64_t len : lens) varint_append(out, len);
    out.insert(out.end(), good.end() - static_cast<std::ptrdiff_t>(body),
               good.end());
    return out;
  };
  const std::uint64_t len0 = frame.lane[0].bits.size();
  const std::uint64_t len1 = frame.lane[1].bits.size();
  const std::uint64_t len2 = frame.lane[2].bits.size();
  ASSERT_EQ(decode_all_engines(table, reframed(raw.size(), {len0, len1, len2}))
                .bytes,
            raw);

  struct Case {
    const char* name;
    Bytes payload;
    const char* error;
  };
  Bytes truncated_len{0x00};
  varint_append(truncated_len, raw.size());
  varint_append(truncated_len, len0);
  truncated_len.push_back(0x80);  // continuation bit, then the end
  Bytes flipped = legacy_payload(*table, raw);
  ASSERT_NE(flipped[0], 0x00);
  flipped[0] = 0x00;
  const std::vector<Case> cases = {
      {"lane past payload end", reframed(raw.size(), {len0, body, len2}),
       "huffman: lane lengths exceed payload"},
      {"lengths sum overflows",
       reframed(raw.size(), {len0, ~std::uint64_t{0} - len0 + 2, len2}),
       "huffman: lane lengths exceed payload"},
      {"truncated lengths varint", truncated_len, "varint: truncated stream"},
      {"lane count exceeds its bits", reframed(raw.size(), {1, len1, len2}),
       "huffman: declared count exceeds stream capacity"},
      {"legacy first byte flipped to 0x00", flipped, nullptr},
  };
  for (const Case& c : cases) {
    const HuffmanOutcome out = decode_all_engines(table, c.payload);
    EXPECT_FALSE(out.ok) << c.name;
    if (c.error != nullptr) {
      EXPECT_EQ(out.error, c.error) << c.name;
    }
  }
}

TEST(FastDecodeDifferential, SnappyStreamCorruptionParity) {
  Prng prng(510);
  Bytes payload(1 << 14);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>((i / 5) & 0xFF);
  }
  const codec::SnappyCodec codec;
  const Bytes clean = codec.encode(payload);
  const Bytes sibling = codec.encode(Bytes(256, 0x3C));
  DecodeArena arena;
  int rejected = 0;
  for (const Bytes& variant : corruption_variants(clean, sibling, 511, 24)) {
    std::optional<Bytes> ref;
    std::string ref_err;
    try {
      ref = codec.decode(variant);
    } catch (const recode::Error& e) {
      ref_err = e.what();
    }
    std::optional<std::size_t> fast_n;
    std::string fast_err;
    std::uint8_t* dst = nullptr;
    try {
      std::size_t pos = 0;
      const std::uint64_t n =
          varint_read(variant.data(), variant.size(), pos);
      if (n > static_cast<std::uint64_t>(variant.size() - pos) * 24 + 8) {
        fail("snappy: declared length implausible for stream size");
      }
      dst = arena.slab(DecodeArena::kScratchA, static_cast<std::size_t>(n));
      fast_n = codec::fast::snappy_decode(variant, dst);
    } catch (const recode::Error& e) {
      fast_err = e.what();
    }
    ASSERT_EQ(ref.has_value(), fast_n.has_value()) << ref_err << " vs " << fast_err;
    ASSERT_EQ(ref_err, fast_err);
    if (ref.has_value()) {
      ASSERT_EQ(ref->size(), *fast_n);
      if (!ref->empty()) {
        ASSERT_EQ(std::memcmp(dst, ref->data(), ref->size()), 0);
      }
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace recode::testing
