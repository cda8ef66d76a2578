// Differential suite for the streaming executor's determinism contract:
// for any worker count, cache budget, and band granularity,
// StreamingExecutor::multiply is BITWISE-identical to serial
// RecodedSpmv::multiply — same engine, same matrix, same x. The row-band
// partition plus the shared accumulate kernels make this exact, not
// approximate, so memcmp is the assertion.
#include "spmv/streaming_executor.h"

#include <gtest/gtest.h>

#include <cstring>

#include "codec/pipeline.h"
#include "common/prng.h"
#include "sparse/generators.h"

namespace recode::spmv {
namespace {

using codec::PipelineConfig;
using sparse::Csr;
using sparse::ValueModel;

constexpr std::size_t kThreadCounts[] = {1, 2, 7, 32};

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

// One seeded random matrix per case, cycling structure classes and value
// models so the band partitioner sees stencils, skewed graphs, long rows,
// and dense diagonals alike. `n` scales the matrix (UDP cases use small n).
Csr random_matrix(std::uint64_t seed, sparse::index_t n) {
  Prng prng(seed * 7919 + 13);
  const auto vm = static_cast<ValueModel>(prng.next_below(5));
  switch (seed % 6) {
    case 0:
      return sparse::gen_stencil2d(n / 40 + 8, 44, vm, seed);
    case 1:
      return sparse::gen_banded(n, 6 + static_cast<sparse::index_t>(
                                        prng.next_below(6)),
                                0.5 + 0.4 * prng.next_double(), vm, seed);
    case 2:
      return sparse::gen_fem_like(n, 8, n / 20 + 4, vm, seed);
    case 3:
      return sparse::gen_powerlaw(n, 6.0, 0.9, vm, seed);
    case 4:
      return sparse::gen_multi_diagonal(
          n, {0, 1, 3, n / 7 + 2, n / 3 + 1}, vm, seed);
    default:
      return sparse::gen_random(n, n, static_cast<std::size_t>(n) * 7, vm,
                                seed);
  }
}

// Pipeline config varies with the seed too: all three paper pipelines
// stream through the same executor.
PipelineConfig pipeline_for(std::uint64_t seed) {
  switch (seed % 3) {
    case 0: return PipelineConfig::udp_dsh();
    case 1: return PipelineConfig::udp_ds();
    default: return PipelineConfig::cpu_snappy();
  }
}

void expect_bitwise_equal_across_threads(const Csr& a,
                                         const PipelineConfig& pipeline,
                                         DecodeEngine engine,
                                         std::uint64_t seed) {
  const auto cm = codec::compress(a, pipeline);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 101);
  std::vector<double> y_serial(static_cast<std::size_t>(a.rows));
  RecodedSpmv serial(cm, engine);
  serial.multiply(x, y_serial);

  Prng knobs(seed);
  for (const std::size_t threads : kThreadCounts) {
    StreamingConfig cfg;
    cfg.engine = engine;
    cfg.decode_threads = threads;
    cfg.compute_threads = 1 + knobs.next_below(2);
    cfg.blocks_per_band = 1 + knobs.next_below(6);
    StreamingExecutor exec(cm, cfg);
    std::vector<double> y(y_serial.size(), -1.0);
    exec.multiply(x, y);
    ASSERT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                             y.size() * sizeof(double)))
        << "seed=" << seed << " engine=" << decode_engine_name(engine)
        << " decode_threads=" << threads
        << " compute_threads=" << cfg.compute_threads
        << " blocks_per_band=" << cfg.blocks_per_band
        << " bands=" << exec.bands().size();
    EXPECT_EQ(exec.last_stats().blocks_decoded, cm.blocks.size());
  }
}

TEST(StreamingDifferential, SoftwareEngineBitwiseAcrossThreadCounts) {
  // 24 seeded random matrices, ~10k-50k nnz each.
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const auto n = static_cast<sparse::index_t>(1200 + 150 * seed);
    const Csr a = random_matrix(seed, n);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_bitwise_equal_across_threads(a, pipeline_for(seed),
                                        DecodeEngine::kSoftware, seed);
  }
}

TEST(StreamingDifferential, UdpSimulatedEngineBitwiseAcrossThreadCounts) {
  // The lane simulator is slower per block, so the 20 UDP matrices stay
  // small (a handful of blocks each) — enough to cover band/claim
  // interleavings while the cycle-level decode stays tractable.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto n = static_cast<sparse::index_t>(400 + 40 * seed);
    const Csr a = random_matrix(seed, n);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_bitwise_equal_across_threads(a, pipeline_for(seed),
                                        DecodeEngine::kUdpSimulated, seed);
  }
}

TEST(StreamingDifferential, MultiRhsBitwiseMatchesSerialBatch) {
  // SpMM mode: parallel multiply_batch ≡ serial multiply_batch, bitwise,
  // across thread counts.
  const Csr a = random_matrix(3, 2200);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  for (const int k : {1, 4, 8, 16, 17}) {
    const auto x = random_vector(
        static_cast<std::size_t>(a.cols) * static_cast<std::size_t>(k), 55);
    std::vector<double> y_serial(static_cast<std::size_t>(a.rows) *
                                 static_cast<std::size_t>(k));
    RecodedSpmv serial(cm);
    serial.multiply_batch(x, y_serial, k);
    for (const std::size_t threads : kThreadCounts) {
      StreamingConfig cfg;
      cfg.decode_threads = threads;
      cfg.blocks_per_band = 2;
      StreamingExecutor exec(cm, cfg);
      std::vector<double> y(y_serial.size());
      exec.multiply_batch(x, y, k);
      ASSERT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                               y.size() * sizeof(double)))
          << "k=" << k << " threads=" << threads;
    }
  }
}

TEST(StreamingDifferential, RepeatedCallsAreDeterministic) {
  // Same executor, repeated calls: identical bits every time (arena reuse
  // must not leak state between passes).
  const Csr a = random_matrix(7, 2600);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 77);
  StreamingConfig cfg;
  cfg.decode_threads = 4;
  cfg.compute_threads = 2;
  cfg.blocks_per_band = 1;
  StreamingExecutor exec(cm, cfg);
  std::vector<double> first(static_cast<std::size_t>(a.rows));
  exec.multiply(x, first);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<double> y(first.size());
    exec.multiply(x, y);
    ASSERT_EQ(0,
              std::memcmp(y.data(), first.data(), y.size() * sizeof(double)))
        << "rep " << rep;
  }
  EXPECT_EQ(exec.blocks_decoded(), cm.blocks.size() * 6);
}

// The fan-out contract: bitwise parallel ≡ serial for every
// combination of thread count × engine × cache budget, warm and cold.
// Every run of a combination must agree with serial exactly — cache
// hits, claim order and serpentine order included.
TEST(StreamingDifferential, BitwiseAcrossThreadsEnginesAndCacheBudgets) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    // UDP's cycle-level sim is slow; alternate engines across seeds and
    // keep UDP matrices small.
    const auto engine = seed % 2 == 0 ? DecodeEngine::kSoftware
                                      : DecodeEngine::kUdpSimulated;
    const auto n = static_cast<sparse::index_t>(
        engine == DecodeEngine::kSoftware ? 1600 + 180 * seed
                                          : 500 + 40 * seed);
    const Csr a = random_matrix(seed, n);
    const auto cm = codec::compress(a, pipeline_for(seed));
    const auto x =
        random_vector(static_cast<std::size_t>(a.cols), seed + 707);
    std::vector<double> y_serial(static_cast<std::size_t>(a.rows));
    RecodedSpmv serial(cm, engine);
    serial.multiply(x, y_serial);

    // Budget sweep: disabled, half the matrix (hits + misses + LRU
    // churn), unlimited (fully warm after pass 1).
    std::size_t decoded_total = 0;
    for (const auto& range : cm.blocking.blocks) {
      decoded_total += decoded_band_bytes(range.count);
    }
    const std::size_t budgets[] = {0, decoded_total / 2, SIZE_MAX};

    for (const std::size_t threads : kThreadCounts) {
      for (const std::size_t budget : budgets) {
        StreamingConfig cfg;
        cfg.engine = engine;
        cfg.decode_threads = threads;
        cfg.compute_threads = 1 + threads % 2;
        cfg.blocks_per_band = 1 + seed % 3;
        cfg.fused_inline_blocks = 0;  // force the threaded path
        cfg.cache_budget_bytes = budget;
        StreamingExecutor exec(cm, cfg);
        for (int pass = 0; pass < 3; ++pass) {
          std::vector<double> y(y_serial.size(), -1.0);
          exec.multiply(x, y);
          ASSERT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                                   y.size() * sizeof(double)))
              << "seed=" << seed << " engine=" << decode_engine_name(engine)
              << " threads=" << threads << " budget=" << budget
              << " pass=" << pass;
        }
        if (exec.bands().size() > 1) {
          EXPECT_FALSE(exec.last_stats().inline_run);
        }
        if (budget == SIZE_MAX) {
          // Fully warm: the last pass decoded nothing.
          EXPECT_EQ(exec.last_stats().blocks_decoded, 0u);
          EXPECT_EQ(exec.last_stats().cache_hit_bands, exec.bands().size());
        }
      }
    }
  }
}

// Dynamic band splitting: oversized bands are re-cut at interior
// row-aligned boundaries and the split partition must still produce
// bitwise-serial output at any thread count.
TEST(StreamingDifferential, DynamicallySplitBandsBitwise) {
  std::size_t total_splits = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Csr a = random_matrix(seed, 2400);
    const auto cm = codec::compress(a, pipeline_for(seed));
    const auto x =
        random_vector(static_cast<std::size_t>(a.cols), seed + 909);
    std::vector<double> y_serial(static_cast<std::size_t>(a.rows));
    RecodedSpmv serial(cm);
    serial.multiply(x, y_serial);

    const auto unsplit = make_row_bands(cm.blocking, 64);
    std::size_t want_splits = 0;
    const auto want =
        split_row_bands(cm.blocking, unsplit, 2, &want_splits);
    total_splits += want_splits;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
      StreamingConfig cfg;
      cfg.decode_threads = threads;
      cfg.blocks_per_band = 64;        // force huge bands...
      cfg.split_blocks_threshold = 2;  // ...then split them hard
      cfg.fused_inline_blocks = 0;
      StreamingExecutor exec(cm, cfg);
      EXPECT_EQ(exec.bands().size(), want.size());
      std::vector<double> y(y_serial.size(), -1.0);
      exec.multiply(x, y);
      ASSERT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                               y.size() * sizeof(double)))
          << "seed=" << seed << " threads=" << threads
          << " tasks=" << exec.bands().size()
          << " split_bands=" << exec.last_stats().split_bands;
      EXPECT_EQ(exec.last_stats().split_bands, want_splits);
    }
  }
  // The seed set must actually exercise splitting, not just tolerate it.
  EXPECT_GT(total_splits, 0u);
}

TEST(StreamingDifferential, SplitRowBandsKeepPartitionInvariants) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Csr a = random_matrix(seed, 1800);
    const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
    for (const std::size_t coarse : {std::size_t{8}, std::size_t{100}}) {
      const auto bands = make_row_bands(cm.blocking, coarse);
      for (const std::size_t max_blocks :
           {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
        std::size_t splits = 0;
        const auto split =
            split_row_bands(cm.blocking, bands, max_blocks, &splits);
        EXPECT_EQ(split.size(), bands.size() + splits);
        // Still a partition: blocks consecutive from 0, rows
        // non-overlapping and increasing.
        std::size_t next_block = 0;
        sparse::index_t prev_end_row = 0;
        for (const auto& band : split) {
          EXPECT_EQ(band.first_block, next_block);
          EXPECT_GE(band.first_row, prev_end_row);
          EXPECT_GT(band.end_row, band.first_row);
          next_block += band.block_count;
          prev_end_row = band.end_row;
        }
        EXPECT_EQ(next_block, cm.blocks.size());
        // No band over the limit unless it had no interior row-aligned
        // boundary to cut at.
        for (const auto& band : split) {
          if (band.block_count <= max_blocks) continue;
          bool has_interior_cut = false;
          for (std::size_t b = band.first_block;
               b + 1 < band.first_block + band.block_count; ++b) {
            if (cm.blocking.blocks[b].last_row <
                cm.blocking.blocks[b + 1].first_row) {
              has_interior_cut = true;
              break;
            }
          }
          EXPECT_FALSE(has_interior_cut)
              << "band with " << band.block_count
              << " blocks was splittable but not split (max "
              << max_blocks << ")";
        }
      }
    }
  }
}

TEST(StreamingDifferential, RowBandsPartitionRowsAndBlocks) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Csr a = random_matrix(seed, 1800);
    const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
    for (const std::size_t target : {std::size_t{1}, std::size_t{3},
                                     std::size_t{100}}) {
      const auto bands = make_row_bands(cm.blocking, target);
      ASSERT_FALSE(bands.empty());
      std::size_t next_block = 0;
      sparse::index_t prev_end_row = 0;
      for (const auto& band : bands) {
        EXPECT_EQ(band.first_block, next_block);
        EXPECT_GE(band.first_row, prev_end_row);
        EXPECT_GT(band.end_row, band.first_row);
        next_block += band.block_count;
        prev_end_row = band.end_row;
      }
      EXPECT_EQ(next_block, cm.blocks.size());
    }
  }
}

}  // namespace
}  // namespace recode::spmv
