#include "codec/pipeline.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "codec/container.h"
#include "codec/delta.h"
#include "codec/snappy.h"
#include "sparse/generators.h"
#include "sparse/suite.h"

namespace recode::codec {
namespace {

using sparse::Csr;
using sparse::ValueModel;

TEST(PipelineConfig, PaperPresets) {
  const auto dsh = PipelineConfig::udp_dsh();
  EXPECT_EQ(dsh.index_transform, Transform::kDelta32);
  EXPECT_TRUE(dsh.snappy && dsh.huffman);
  EXPECT_EQ(dsh.nnz_per_block * sizeof(double), 8192u);  // 8 KB value blocks

  const auto ds = PipelineConfig::udp_ds();
  EXPECT_EQ(ds.index_transform, Transform::kDelta32);
  EXPECT_TRUE(ds.snappy);
  EXPECT_FALSE(ds.huffman);

  const auto cpu = PipelineConfig::cpu_snappy();
  EXPECT_EQ(cpu.index_transform, Transform::kNone);
  EXPECT_FALSE(cpu.huffman);
  EXPECT_EQ(cpu.nnz_per_block * sizeof(double), 32768u);  // 32 KB blocks
}

class PipelineRoundTrip : public ::testing::TestWithParam<PipelineConfig> {};

TEST_P(PipelineRoundTrip, DecompressRecoversMatrix) {
  const Csr csr = sparse::gen_fem_like(2000, 10, 60, ValueModel::kSmoothField, 21);
  const CompressedMatrix cm = compress(csr, GetParam());
  const Csr back = decompress(cm);
  EXPECT_TRUE(equal(csr, back));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineRoundTrip,
    ::testing::Values(PipelineConfig::udp_dsh(), PipelineConfig::udp_ds(),
                      PipelineConfig::cpu_snappy(),
                      [] {
                        PipelineConfig c;  // delta only
                        c.snappy = false;
                        c.huffman = false;
                        return c;
                      }(),
                      [] {
                        PipelineConfig c;  // huffman only
                        c.index_transform = Transform::kNone;
                        c.snappy = false;
                        return c;
                      }(),
                      [] {
                        PipelineConfig c;  // delta on both streams
                        c.value_transform = Transform::kDelta32;
                        return c;
                      }()));

TEST(Pipeline, RoundTripsAcrossStructureFamilies) {
  sparse::SuiteOptions opts;
  opts.count = 9;  // one of each family
  opts.min_nnz = 3000;
  opts.max_nnz = 12000;
  const auto suite = synthetic_collection(opts);
  for (const auto& m : suite) {
    const CompressedMatrix cm = compress(m.csr, PipelineConfig::udp_dsh());
    EXPECT_TRUE(equal(m.csr, decompress(cm))) << m.name << " " << m.family;
  }
}

TEST(Pipeline, CompressesStructuredMatricesWell) {
  // A banded matrix with stencil values: the paper's best case. Must land
  // far below the 12 B/nnz baseline.
  const Csr csr = sparse::gen_banded(20000, 8, 0.9, ValueModel::kStencilCoeffs, 2);
  const CompressedMatrix cm = compress(csr, PipelineConfig::udp_dsh());
  EXPECT_LT(cm.bytes_per_nnz(), 4.0);
}

TEST(Pipeline, RandomMatrixStaysNearTwelveBytes) {
  const Csr csr = sparse::gen_random(3000, 3000, 40000, ValueModel::kRandom, 4);
  const CompressedMatrix cm = compress(csr, PipelineConfig::udp_dsh());
  // Index deltas still compress a bit; random values do not.
  EXPECT_GT(cm.bytes_per_nnz(), 7.0);
  EXPECT_LT(cm.bytes_per_nnz(), 13.5);
}

TEST(Pipeline, DeltaImprovesSnappyOnDiagonalStructure) {
  // The paper's §IV-B claim: delta alone no benefit, delta+snappy big win
  // on diagonal/symmetric structure.
  const Csr csr = sparse::gen_multi_diagonal(
      30000, {-1000, -1, 0, 1, 1000}, ValueModel::kStencilCoeffs, 6);
  PipelineConfig snappy_only = PipelineConfig::udp_ds();
  snappy_only.index_transform = Transform::kNone;
  const auto without = compress(csr, snappy_only);
  const auto with = compress(csr, PipelineConfig::udp_ds());
  EXPECT_LT(with.index_stages.after_snappy,
            without.index_stages.after_snappy / 2);
}

TEST(Pipeline, HuffmanStageShrinksOrHolds) {
  const Csr csr = sparse::gen_fem_like(5000, 12, 100, ValueModel::kFewDistinct, 8);
  const auto ds = compress(csr, PipelineConfig::udp_ds());
  const auto dsh = compress(csr, PipelineConfig::udp_dsh());
  EXPECT_LE(static_cast<double>(dsh.stream_bytes()),
            static_cast<double>(ds.stream_bytes()) * 1.02);
}

TEST(Pipeline, StageSizesAreMonotonelyRecorded) {
  const Csr csr = sparse::gen_stencil2d(60, 60, ValueModel::kStencilCoeffs, 9);
  const auto cm = compress(csr, PipelineConfig::udp_dsh());
  EXPECT_EQ(cm.index_stages.raw, csr.nnz() * 4);
  EXPECT_EQ(cm.value_stages.raw, csr.nnz() * 8);
  EXPECT_GT(cm.index_stages.after_snappy, 0u);
  EXPECT_GT(cm.index_stages.after_huffman, 0u);
}

TEST(Pipeline, DecompressBlockMatchesSource) {
  const Csr csr = sparse::gen_circuit(3000, 5, ValueModel::kSmoothField, 10);
  const auto cm = compress(csr, PipelineConfig::udp_dsh());
  std::vector<sparse::index_t> idx;
  std::vector<double> val;
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    decompress_block(cm, b, idx, val);
    const auto& range = cm.blocking.blocks[b];
    ASSERT_EQ(idx.size(), range.count);
    for (std::size_t i = 0; i < range.count; ++i) {
      EXPECT_EQ(idx[i], csr.col_idx[range.first_nnz + i]);
      EXPECT_EQ(val[i], csr.val[range.first_nnz + i]);
    }
  }
}

TEST(Pipeline, SampleFractionOneTrainsOnEverything) {
  const Csr csr = sparse::gen_fem_like(4000, 10, 80, ValueModel::kFewDistinct, 12);
  PipelineConfig full = PipelineConfig::udp_dsh();
  full.huffman_sample_fraction = 1.0;
  PipelineConfig sampled = PipelineConfig::udp_dsh();
  sampled.huffman_sample_fraction = 0.4;
  const auto a = compress(csr, full);
  const auto b = compress(csr, sampled);
  // Sampled tables must be close to full-data tables in achieved size
  // (the paper's sampling claim).
  EXPECT_LT(static_cast<double>(b.stream_bytes()),
            static_cast<double>(a.stream_bytes()) * 1.1);
  EXPECT_TRUE(equal(decompress(a), decompress(b)));
}

TEST(Pipeline, StageChainTapsIntermediates) {
  Bytes raw(4096);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>((i / 4) & 0xFF);
  }
  const HuffmanCodec huffman(
      std::make_shared<const HuffmanTable>(HuffmanTable::train(raw)));
  const Bytes after_transform = DeltaCodec().encode(raw);
  const Bytes after_snappy = SnappyCodec().encode(after_transform);
  const Bytes after_huffman = huffman.encode(after_snappy);
  EXPECT_EQ(after_transform.size(), raw.size());
  EXPECT_LT(after_snappy.size(), raw.size());
  EXPECT_FALSE(after_huffman.empty());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  }
  return h;
}

// Digest of the whole serialized container compress() produces.
std::uint64_t compress_digest(const Csr& csr, const PipelineConfig& cfg) {
  std::ostringstream os;
  write_compressed(os, compress(csr, cfg));
  return fnv1a(os.str());
}

TEST(Pipeline, CompressOutputMatchesPinnedDigests) {
  // Pinned before the encoder moved to EncodeArena: the arena path must
  // write exactly the bytes the allocating encoders wrote.
  const Csr random_mesh =
      sparse::gen_fem_like(3000, 10, 80, ValueModel::kRandom, 2019);
  const Csr smooth_mesh =
      sparse::gen_fem_like(3000, 10, 80, ValueModel::kSmoothField, 2020);
  EXPECT_EQ(compress_digest(random_mesh, PipelineConfig::udp_dsh()), 
            0x8e18839b18ce8f1full);
  EXPECT_EQ(compress_digest(random_mesh, PipelineConfig::udp_vsh()), 
            0x2b98c06d80bcd5a5ull);
  EXPECT_EQ(compress_digest(smooth_mesh, PipelineConfig::udp_dsh()), 
            0xbe24d06f02c27b92ull);
  EXPECT_EQ(compress_digest(smooth_mesh, PipelineConfig::udp_vsh()), 
            0x654581339f226c45ull);
}

TEST(Pipeline, EmptyMatrix) {
  sparse::Coo coo;
  coo.rows = coo.cols = 10;
  const Csr csr = coo_to_csr(coo);
  const auto cm = compress(csr, PipelineConfig::udp_dsh());
  EXPECT_EQ(cm.nnz(), 0u);
  EXPECT_TRUE(equal(csr, decompress(cm)));
}

}  // namespace
}  // namespace recode::codec
