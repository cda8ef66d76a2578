// Per-block codec mosaics (ISSUE 7): every decode engine must dispatch on
// the per-block CodecId, so a stream whose blocks were encoded under
// *different* registry codecs has to round-trip bitwise through
//   * the reference pipeline (decompress_block_reference),
//   * the fast arena path (decompress_block / decompress_block_fast),
//   * the UDP lane simulator (UdpPipelineDecoder),
//   * the streaming executor's decoder workers,
// and survive a container v2 write/read unchanged. Codec assignments are
// randomized per block from the registry's candidate set, seeded via
// RECODE_TEST_SEED (property-test style, reproducible on failure), and
// exercised over three matrix families ingested through CSR, BSR, and
// SELL-C-sigma.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "codec/arena.h"
#include "codec/container.h"
#include "codec/pipeline.h"
#include "codec/registry.h"
#include "common/prng.h"
#include "sparse/bsr.h"
#include "sparse/generators.h"
#include "sparse/sell.h"
#include "spmv/recoded.h"
#include "spmv/streaming_executor.h"
#include "udpprog/block_decoder.h"

namespace {

using recode::Prng;
using recode::codec::CompressedMatrix;
using recode::codec::PipelineConfig;
using recode::sparse::Csr;
using recode::sparse::ValueModel;

// Re-encodes every block of a kSingle-compressed matrix under a codec
// drawn uniformly from the registry's candidate set: the mosaic the
// adaptive encoder could produce, but with adversarially random (not
// size-optimal) assignments.
CompressedMatrix make_mosaic(const Csr& csr, const PipelineConfig& cfg,
                             Prng& prng) {
  CompressedMatrix cm = recode::codec::compress(csr, cfg);
  const std::vector<recode::codec::CodecId> candidates =
      recode::codec::candidate_codecs(cfg);
  recode::codec::EncodeArena arena;
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    const auto id = candidates[prng.next_below(candidates.size())];
    const auto& range = cm.blocking.blocks[b];
    recode::codec::encode_block(
        recode::sparse::block_indices(csr, range),
        recode::sparse::block_values(csr, range),
        recode::codec::codec_from_id(id), cm.index_table.get(),
        cm.value_table.get(), arena, cm.blocks[b]);
    cm.block_codecs[b] = id;
  }
  return cm;
}

void expect_decodes_bitwise(const CompressedMatrix& cm, const Csr& want) {
  const Csr got = recode::codec::decompress(cm);
  ASSERT_EQ(got.col_idx.size(), want.col_idx.size());
  EXPECT_EQ(0, std::memcmp(got.col_idx.data(), want.col_idx.data(),
                           want.col_idx.size() * sizeof(want.col_idx[0])));
  EXPECT_EQ(0, std::memcmp(got.val.data(), want.val.data(),
                           want.val.size() * sizeof(double)));
  EXPECT_EQ(got.row_ptr, want.row_ptr);
}

Csr family_matrix(int family, std::uint64_t seed) {
  switch (family) {
    case 0:
      return recode::sparse::gen_stencil2d(48, 30, ValueModel::kStencilCoeffs,
                                           seed);
    case 1:
      return recode::sparse::gen_fem_like(900, 7, 60,
                                          ValueModel::kSmoothField, seed);
    default:
      return recode::sparse::gen_powerlaw(700, 6.0, 0.9, ValueModel::kRandom,
                                          seed);
  }
}

// The three ingest paths all feed the same compressor; BSR and SELL
// round through their format and back so the mosaic sees their
// (re-sorted, possibly padded-then-stripped) CSR form.
Csr ingest(const Csr& csr, int path) {
  switch (path) {
    case 0: return csr;
    case 1:
      return recode::sparse::bsr_to_csr(recode::sparse::csr_to_bsr(csr, 4));
    default:
      return recode::sparse::sell_to_csr(
          recode::sparse::csr_to_sell(csr, 8, 32));
  }
}

TEST(CodecMosaic, RandomizedMosaicRoundTripsAcrossFamiliesAndFormats) {
  Prng prng(recode::test_seed(0xC0DEC1D));
  for (int family = 0; family < 3; ++family) {
    for (int path = 0; path < 3; ++path) {
      SCOPED_TRACE("family=" + std::to_string(family) +
                   " ingest=" + std::to_string(path));
      const Csr csr =
          ingest(family_matrix(family, 11 + family), path);
      const CompressedMatrix cm =
          make_mosaic(csr, PipelineConfig::udp_dsh(), prng);
      expect_decodes_bitwise(cm, csr);

      // And the mosaic survives the v2 container byte-for-byte.
      std::stringstream io;
      recode::codec::write_compressed(io, cm);
      const CompressedMatrix back = recode::codec::read_compressed(io);
      ASSERT_EQ(back.blocks.size(), cm.blocks.size());
      EXPECT_EQ(back.block_codecs, cm.block_codecs);
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        EXPECT_EQ(back.blocks[b].index_data, cm.blocks[b].index_data);
        EXPECT_EQ(back.blocks[b].value_data, cm.blocks[b].value_data);
      }
      expect_decodes_bitwise(back, csr);
    }
  }
}

TEST(CodecMosaic, MixedIdStreamsDecodeBitwiseAcrossAllThreeEngines) {
  Prng prng(recode::test_seed(0x3E2C1));
  // Small matrix: the UDP lane simulator decodes every block.
  const Csr csr = recode::sparse::gen_stencil2d(
      30, 22, ValueModel::kSmoothField, 5);
  const CompressedMatrix cm =
      make_mosaic(csr, PipelineConfig::udp_dsh(), prng);

  recode::udpprog::UdpPipelineDecoder udp(cm);
  std::vector<recode::sparse::index_t> ref_idx, fast_idx;
  std::vector<double> ref_val, fast_val;
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    SCOPED_TRACE("block=" + std::to_string(b));
    recode::codec::decompress_block_reference(cm, b, ref_idx, ref_val);
    recode::codec::decompress_block(cm, b, fast_idx, fast_val);
    const auto udp_block = udp.decode_block(b);

    ASSERT_EQ(ref_idx.size(), fast_idx.size());
    ASSERT_EQ(ref_idx.size(), udp_block.indices.size());
    EXPECT_EQ(0, std::memcmp(ref_idx.data(), fast_idx.data(),
                             ref_idx.size() * sizeof(ref_idx[0])));
    EXPECT_EQ(0, std::memcmp(ref_val.data(), fast_val.data(),
                             ref_val.size() * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(ref_idx.data(), udp_block.indices.data(),
                             ref_idx.size() * sizeof(ref_idx[0])));
    EXPECT_EQ(0, std::memcmp(ref_val.data(), udp_block.values.data(),
                             ref_val.size() * sizeof(double)));
  }
}

TEST(CodecMosaic, AdaptiveEncodingStreamsThroughSpmvAndExecutor) {
  const Csr csr = recode::sparse::gen_fem_like(
      1200, 8, 70, ValueModel::kSmoothField, 21);
  const CompressedMatrix cm =
      recode::codec::compress(csr, PipelineConfig::udp_adaptive());
  expect_decodes_bitwise(cm, csr);

  Prng prng(recode::test_seed(0xADA));
  std::vector<double> x(static_cast<std::size_t>(csr.cols));
  for (auto& v : x) v = prng.next_double() * 2.0 - 1.0;

  std::vector<double> y_serial(static_cast<std::size_t>(csr.rows));
  recode::spmv::RecodedSpmv serial(cm);
  serial.multiply(x, y_serial);

  recode::spmv::StreamingConfig scfg;
  scfg.decode_threads = 2;
  scfg.compute_threads = 2;
  recode::spmv::StreamingExecutor exec(cm, scfg);
  std::vector<double> y(y_serial.size(), -1.0);
  exec.multiply(x, y);
  EXPECT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                           y.size() * sizeof(double)));
}

}  // namespace
