#include "spmv/recoded.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/kernels.h"

namespace recode::spmv {
namespace {

using codec::PipelineConfig;
using sparse::Csr;
using sparse::ValueModel;

// Batch widths covering every rung of the kernel's column-tile ladder
// (16, 8, 4, 2, 1) alone and in combination.
constexpr int kBatchWidths[] = {1, 2, 3, 5, 8, 12, 16, 17, 33};

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  recode::Prng prng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

void expect_near_vec(const std::vector<double>& a,
                     const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9 * (1.0 + std::abs(a[i]))) << "at " << i;
  }
}

TEST(RecodedSpmv, SoftwareEngineMatchesPlainKernel) {
  const Csr a = sparse::gen_fem_like(3000, 10, 80, ValueModel::kSmoothField, 8);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  RecodedSpmv recoded(cm);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 2);
  std::vector<double> y_plain(static_cast<std::size_t>(a.rows));
  std::vector<double> y_recoded(y_plain.size());
  spmv_csr(a, x, y_plain);
  recoded.multiply(x, y_recoded);
  expect_near_vec(y_recoded, y_plain);
  EXPECT_EQ(recoded.blocks_decoded(), cm.blocks.size());
  EXPECT_EQ(recoded.compressed_bytes_streamed(),
            cm.stream_bytes() - 256);  // minus the two Huffman tables
}

TEST(RecodedSpmv, UdpSimulatedEngineMatchesPlainKernel) {
  const Csr a = sparse::gen_banded(2000, 8, 0.7, ValueModel::kFewDistinct, 9);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  RecodedSpmv recoded(cm, DecodeEngine::kUdpSimulated);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 3);
  std::vector<double> y_plain(static_cast<std::size_t>(a.rows));
  std::vector<double> y_recoded(y_plain.size());
  spmv_csr(a, x, y_plain);
  recoded.multiply(x, y_recoded);
  expect_near_vec(y_recoded, y_plain);
  EXPECT_GT(recoded.udp_cycles(), 0u);
}

TEST(RecodedSpmv, WorksAcrossPipelineConfigs) {
  const Csr a = sparse::gen_circuit(2500, 5, ValueModel::kRandom, 10);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 4);
  std::vector<double> y_plain(static_cast<std::size_t>(a.rows));
  spmv_csr(a, x, y_plain);
  for (const auto& cfg :
       {PipelineConfig::udp_dsh(), PipelineConfig::udp_ds(),
        PipelineConfig::cpu_snappy()}) {
    const auto cm = codec::compress(a, cfg);
    RecodedSpmv recoded(cm);
    std::vector<double> y(y_plain.size());
    recoded.multiply(x, y);
    expect_near_vec(y, y_plain);
  }
}

TEST(RecodedSpmv, RepeatedMultiplyAccumulatesStats) {
  const Csr a = sparse::gen_stencil2d(40, 40, ValueModel::kStencilCoeffs, 11);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  RecodedSpmv recoded(cm);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 5);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  recoded.multiply(x, y);
  recoded.multiply(x, y);
  EXPECT_EQ(recoded.blocks_decoded(), cm.blocks.size() * 2);
}

TEST(RecodedSpmv, MultiRhsMatchesIndependentMultiplies) {
  // SpMM mode against k independent multiply() calls: every column tile
  // runs the same expression in the same per-column order as the k = 1
  // tile, so each column is bitwise the single-vector result.
  const Csr a = sparse::gen_fem_like(2600, 9, 70, ValueModel::kSmoothField, 12);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const auto rows = static_cast<std::size_t>(a.rows);
  const auto cols = static_cast<std::size_t>(a.cols);
  for (const int k : kBatchWidths) {
    const auto ks = static_cast<std::size_t>(k);
    const auto x = random_vector(cols * ks, 31 + static_cast<std::uint64_t>(k));
    std::vector<double> y_batch(rows * ks);
    RecodedSpmv batch(cm);
    batch.multiply_batch(x, y_batch, k);
    EXPECT_EQ(batch.blocks_decoded(), cm.blocks.size());  // decoded once

    for (int j = 0; j < k; ++j) {
      std::vector<double> xj(cols), yj(rows);
      for (std::size_t i = 0; i < cols; ++i) {
        xj[i] = x[i * ks + static_cast<std::size_t>(j)];
      }
      RecodedSpmv single(cm);
      single.multiply(xj, yj);
      for (std::size_t r = 0; r < rows; ++r) {
        const double batched = y_batch[r * ks + static_cast<std::size_t>(j)];
        ASSERT_EQ(0, std::memcmp(&batched, &yj[r], sizeof(double)))
            << "k=" << k << " rhs=" << j << " row=" << r;
      }
    }
  }
}

TEST(RecodedSpmv, MultiRhsDegenerateKOneIsBitwiseMultiply) {
  // k == 1 dispatches to the same accumulate kernel as multiply(): exact.
  const Csr a = sparse::gen_circuit(2000, 5, ValueModel::kRandom, 13);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 14);
  std::vector<double> y_multiply(static_cast<std::size_t>(a.rows));
  std::vector<double> y_batch(y_multiply.size());
  RecodedSpmv r1(cm), r2(cm);
  r1.multiply(x, y_multiply);
  r2.multiply_batch(x, y_batch, 1);
  EXPECT_EQ(0, std::memcmp(y_batch.data(), y_multiply.data(),
                           y_batch.size() * sizeof(double)));
}

TEST(RecodedSpmv, MultiRhsMatchesSpmmKernel) {
  // Cross-check the recoded SpMM against the plain-CSR spmm_csr kernel.
  const Csr a = sparse::gen_banded(1500, 9, 0.6, ValueModel::kSmoothField, 15);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  for (const int k : kBatchWidths) {
    const auto x = random_vector(
        static_cast<std::size_t>(a.cols) * static_cast<std::size_t>(k), 16);
    std::vector<double> y_recoded(static_cast<std::size_t>(a.rows) *
                                  static_cast<std::size_t>(k));
    std::vector<double> y_plain(y_recoded.size());
    RecodedSpmv recoded(cm);
    recoded.multiply_batch(x, y_recoded, k);
    spmm_csr(a, x, y_plain, k);
    SCOPED_TRACE("k=" + std::to_string(k));
    expect_near_vec(y_recoded, y_plain);
  }
}

// The one-nnz-at-a-time loop the kernel must reproduce bit for bit:
// y[row][j] += v * x[col][j], the row advanced as nnz positions cross
// row_ptr boundaries.
void reference_accumulate(const sparse::BlockRange& range,
                          const std::vector<sparse::offset_t>& row_ptr,
                          const std::vector<sparse::index_t>& indices,
                          const std::vector<double>& values,
                          const std::vector<double>& x, std::vector<double>& y,
                          int k) {
  const auto ks = static_cast<std::size_t>(k);
  auto row = static_cast<std::size_t>(range.first_row);
  for (std::size_t i = 0; i < range.count; ++i) {
    const std::size_t pos = range.first_nnz + i;
    while (static_cast<sparse::offset_t>(pos) >= row_ptr[row + 1]) ++row;
    const auto col = static_cast<std::size_t>(indices[pos]);
    for (std::size_t j = 0; j < ks; ++j) {
      y[row * ks + j] += values[pos] * x[col * ks + j];
    }
  }
}

TEST(AccumulateKernel, RowSegmentsAcrossHandBuiltBlocksAreBitwise) {
  // 8 rows x 6 cols, 16 nnz: rows 1, 2, 5 and 7 are empty, row 0 is split
  // across blocks 0 and 1, block 2 lies wholly inside row 3, and block 1
  // starts row 3 after skipping the empty rows 1-2.
  const std::vector<sparse::offset_t> row_ptr = {0,  3,  3,  3, 13,
                                                 14, 14, 16, 16};
  const std::vector<sparse::index_t> cols = {0, 2, 4, 0, 1, 2, 3, 4,
                                             5, 1, 3, 0, 2, 5, 1, 4};
  const std::vector<sparse::BlockRange> blocks = {
      {0, 2, 0, 0}, {2, 4, 0, 3}, {6, 4, 3, 3}, {10, 4, 3, 4}, {14, 2, 6, 6}};
  recode::Prng prng(21);
  std::vector<double> vals(cols.size());
  for (auto& v : vals) v = prng.next_double() * 4.0 - 2.0;
  vals[13] = 2.0;  // row 4's one product is +2 * -0.0 = -0.0 (see x below)

  for (const int k : kBatchWidths) {
    const auto ks = static_cast<std::size_t>(k);
    // x has exact zeros of both signs among random entries; column 5 is
    // all -0.0, so row 4 must keep a -0.0 seed as -0.0.
    std::vector<double> x(6 * ks);
    for (auto& v : x) {
      const auto pick = prng.next_below(4);
      v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : prng.next_double() - 0.5;
    }
    for (std::size_t j = 0; j < ks; ++j) x[5 * ks + j] = -0.0;
    for (const bool negative_zero_seed : {true, false}) {
      std::vector<double> y_ref(8 * ks);
      for (auto& v : y_ref) {
        v = negative_zero_seed ? -0.0 : prng.next_double() * 2.0 - 1.0;
      }
      std::vector<double> y = y_ref;
      for (const auto& range : blocks) {
        const auto first = static_cast<std::ptrdiff_t>(range.first_nnz);
        const auto count = static_cast<std::ptrdiff_t>(range.count);
        const std::vector<sparse::index_t> idx(cols.begin() + first,
                                               cols.begin() + first + count);
        const std::vector<double> val(vals.begin() + first,
                                      vals.begin() + first + count);
        accumulate_block_batch(range, row_ptr, idx, val, x, y, k);
        reference_accumulate(range, row_ptr, cols, vals, x, y_ref, k);
      }
      ASSERT_EQ(0,
                std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(double)))
          << "k=" << k << " seed=" << (negative_zero_seed ? "-0.0" : "random");
      if (negative_zero_seed) {
        EXPECT_TRUE(std::signbit(y[4 * ks]));  // -0.0 + -0.0 stays -0.0
        EXPECT_TRUE(std::signbit(y[1 * ks]));  // empty rows are untouched
      }
    }
  }
}

TEST(RecodedSpmv, RejectsOutOfRangeDecodedIndices) {
  // check_block_indices: the consumer-side guard against corrupt streams
  // that decode to well-framed but out-of-range column indices.
  const std::vector<sparse::index_t> good = {0, 3, 7};
  EXPECT_NO_THROW(check_block_indices(good, 8));
  const std::vector<sparse::index_t> high = {0, 8};
  EXPECT_THROW(check_block_indices(high, 8), recode::Error);
  const std::vector<sparse::index_t> negative = {-1, 2};
  EXPECT_THROW(check_block_indices(negative, 8), recode::Error);
}

TEST(RecodedSpmv, RowsSpanningBlockBoundaries) {
  // A single dense row spanning many blocks stresses the row-advance walk.
  sparse::Coo coo;
  coo.rows = coo.cols = 6000;
  for (sparse::index_t c = 0; c < 6000; ++c) coo.add(3000, c, 1.0 + c % 7);
  coo.add(0, 0, 2.0);
  const Csr a = coo_to_csr(coo);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  ASSERT_GT(cm.blocks.size(), 3u);
  RecodedSpmv recoded(cm);
  const auto x = random_vector(6000, 6);
  std::vector<double> y(6000);
  recoded.multiply(x, y);
  expect_near_vec(y, sparse::spmv_reference(a, x));
}

}  // namespace
}  // namespace recode::spmv
