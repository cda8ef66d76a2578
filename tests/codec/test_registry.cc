// Codec registry unit suite (ISSUE 7): id packing is total and stable,
// unknown ids throw, byte-transposition round-trips (reference and fast
// paths), encode_block reproduces the single-pipeline encoder bit for
// bit, and the adaptive encoder's exhaustive trial never loses to the
// single-pipeline baseline on total bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "codec/arena.h"
#include "codec/fast_decode.h"
#include "codec/pipeline.h"
#include "codec/registry.h"
#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"

namespace {

using recode::codec::BlockCodec;
using recode::codec::CodecId;
using recode::codec::CodecSelection;
using recode::codec::CompressedMatrix;
using recode::codec::PipelineConfig;
using recode::codec::Transform;
using recode::sparse::Csr;
using recode::sparse::ValueModel;

TEST(CodecRegistry, IdPackingRoundTripsEveryValidId) {
  int valid = 0;
  for (int raw = 0; raw < 256; ++raw) {
    const auto id = static_cast<CodecId>(raw);
    if (recode::codec::codec_id_valid(id)) {
      const BlockCodec c = recode::codec::codec_from_id(id);
      EXPECT_EQ(id, recode::codec::codec_id(c));
      EXPECT_FALSE(recode::codec::codec_name(id).empty());
      ++valid;
    } else {
      EXPECT_THROW(recode::codec::codec_from_id(id), recode::Error);
    }
  }
  // 3 index transforms x 4 value transforms x 2 snappy x 2 huffman.
  EXPECT_EQ(48, valid);
}

TEST(CodecRegistry, UnknownIdMessageNamesTheId) {
  try {
    recode::codec::codec_from_id(0xFF);
    FAIL() << "expected recode::Error";
  } catch (const recode::Error& e) {
    EXPECT_STREQ("codec registry: unknown codec id 255", e.what());
  }
}

TEST(CodecRegistry, NamesAreStable) {
  EXPECT_EQ("i:d32.v:none+s+h",
            recode::codec::codec_name(
                recode::codec::codec_id_for(PipelineConfig::udp_dsh())));
  BlockCodec bt;
  bt.index_transform = Transform::kVarintDelta;
  bt.value_transform = Transform::kByteTranspose;
  EXPECT_EQ("i:vd.v:bt+s+h",
            recode::codec::codec_name(recode::codec::codec_id(bt)));
}

TEST(CodecRegistry, CandidateSetStartsWithBaselineAndIncludesStored) {
  const PipelineConfig cfg = PipelineConfig::udp_dsh();
  const auto ids = recode::codec::candidate_codecs(cfg);
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(recode::codec::codec_id_for(cfg), ids.front());
  const BlockCodec stored{Transform::kNone, Transform::kNone, false, false};
  EXPECT_NE(ids.end(), std::find(ids.begin(), ids.end(),
                                 recode::codec::codec_id(stored)));
  // No duplicates: each candidate trial-encodes once.
  auto sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted.end(), std::adjacent_find(sorted.begin(), sorted.end()));
}

TEST(CodecRegistry, ByteTransposeRoundTripsIncludingTails) {
  recode::Prng prng(recode::test_seed(0x7A));
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{17},
                              std::size_t{64}, std::size_t{1000},
                              std::size_t{8192}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    recode::codec::Bytes raw(n);
    for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(256));
    const recode::codec::Bytes t = recode::codec::byte_transpose(raw);
    ASSERT_EQ(raw.size(), t.size());
    EXPECT_EQ(raw, recode::codec::byte_untranspose(t));

    // Fast path parity, with the arena's slop margin honored.
    recode::codec::Bytes fast_out(n + recode::codec::kArenaSlop);
    const std::size_t got =
        recode::codec::fast::byte_untranspose(t, fast_out.data());
    EXPECT_EQ(n, got);
    if (n != 0) {
      EXPECT_EQ(0, std::memcmp(fast_out.data(), raw.data(), n));
    }
  }
}

TEST(CodecRegistry, ByteTransposeGroupsPlanes) {
  // Two 8-byte records: transposed output interleaves them plane-major.
  const recode::codec::Bytes raw = {0x10, 0x11, 0x12, 0x13, 0x14, 0x15,
                                    0x16, 0x17, 0x20, 0x21, 0x22, 0x23,
                                    0x24, 0x25, 0x26, 0x27};
  const recode::codec::Bytes want = {0x10, 0x20, 0x11, 0x21, 0x12, 0x22,
                                     0x13, 0x23, 0x14, 0x24, 0x15, 0x25,
                                     0x16, 0x26, 0x17, 0x27};
  EXPECT_EQ(want, recode::codec::byte_transpose(raw));
}

TEST(CodecRegistry, EncodeBlockReproducesSinglePipelineBlocks) {
  const Csr csr = recode::sparse::gen_stencil2d(
      40, 25, ValueModel::kStencilCoeffs, 42);
  const PipelineConfig cfg = PipelineConfig::udp_dsh();
  const CompressedMatrix cm = recode::codec::compress(csr, cfg);
  const BlockCodec baseline =
      recode::codec::codec_from_id(recode::codec::codec_id_for(cfg));
  recode::codec::EncodeArena arena;
  recode::codec::CompressedBlock block;
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    SCOPED_TRACE("block=" + std::to_string(b));
    const auto& range = cm.blocking.blocks[b];
    recode::codec::encode_block(
        recode::sparse::block_indices(csr, range),
        recode::sparse::block_values(csr, range), baseline,
        cm.index_table.get(), cm.value_table.get(), arena, block);
    EXPECT_EQ(cm.blocks[b].index_data, block.index_data);
    EXPECT_EQ(cm.blocks[b].value_data, block.value_data);
  }
}

TEST(CodecRegistry, ExhaustiveAdaptiveNeverLosesOnTotalBytes) {
  struct Case {
    const char* name;
    Csr csr;
  };
  const Case cases[] = {
      {"stencil", recode::sparse::gen_stencil2d(
                      60, 40, ValueModel::kStencilCoeffs, 1)},
      {"fem", recode::sparse::gen_fem_like(1500, 8, 90,
                                           ValueModel::kSmoothField, 2)},
      {"powerlaw", recode::sparse::gen_powerlaw(1200, 7.0, 0.9,
                                                ValueModel::kRandom, 3)},
      {"banded", recode::sparse::gen_banded(1400, 9, 0.8,
                                            ValueModel::kFewDistinct, 4)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const CompressedMatrix single =
        recode::codec::compress(c.csr, PipelineConfig::udp_dsh());
    const CompressedMatrix adaptive =
        recode::codec::compress(c.csr, PipelineConfig::udp_adaptive());
    // Identical stages and tables, so identical table overhead and the
    // same +1 id byte per block: stream_bytes compares apples to apples.
    EXPECT_LE(adaptive.stream_bytes(), single.stream_bytes());
    EXPECT_LE(adaptive.selection_stats.adaptive_bytes,
              adaptive.selection_stats.baseline_bytes);
    // The baseline accounting must agree with what kSingle really stored.
    EXPECT_EQ(adaptive.selection_stats.baseline_bytes,
              single.index_stages.after_huffman +
                  single.value_stages.after_huffman);
    // And the winners decode back to the exact input.
    const Csr got = recode::codec::decompress(adaptive);
    ASSERT_EQ(got.col_idx.size(), c.csr.col_idx.size());
    EXPECT_EQ(0, std::memcmp(got.val.data(), c.csr.val.data(),
                             c.csr.val.size() * sizeof(double)));
    EXPECT_EQ(0,
              std::memcmp(got.col_idx.data(), c.csr.col_idx.data(),
                          c.csr.col_idx.size() * sizeof(c.csr.col_idx[0])));
  }
}

TEST(CodecRegistry, AdaptiveSwitchesBlocksOnMixedStructure) {
  // Smooth-field values share exponents: the byte-transposition should
  // win at least some value blocks, so the mosaic is not degenerate.
  const Csr csr = recode::sparse::gen_fem_like(
      2000, 8, 90, ValueModel::kSmoothField, 5);
  const CompressedMatrix adaptive =
      recode::codec::compress(csr, PipelineConfig::udp_adaptive());
  EXPECT_GT(adaptive.selection_stats.switched_blocks, 0u);
  EXPECT_LT(adaptive.selection_stats.adaptive_bytes,
            adaptive.selection_stats.baseline_bytes);
  // block_codecs is fully populated and every id is valid.
  ASSERT_EQ(adaptive.blocks.size(), adaptive.block_codecs.size());
  for (const CodecId id : adaptive.block_codecs) {
    EXPECT_TRUE(recode::codec::codec_id_valid(id));
  }
}

TEST(CodecRegistry, HeuristicSelectionDecodesBitwise) {
  PipelineConfig cfg = PipelineConfig::udp_dsh();
  cfg.selection = CodecSelection::kHeuristic;
  const Csr csr = recode::sparse::gen_fem_like(
      1200, 8, 70, ValueModel::kSmoothField, 6);
  const CompressedMatrix cm = recode::codec::compress(csr, cfg);
  const Csr got = recode::codec::decompress(cm);
  ASSERT_EQ(got.col_idx.size(), csr.col_idx.size());
  EXPECT_EQ(0, std::memcmp(got.val.data(), csr.val.data(),
                           csr.val.size() * sizeof(double)));
}

}  // namespace
