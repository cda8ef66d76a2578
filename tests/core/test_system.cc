#include "core/system.h"

#include <gtest/gtest.h>

#include "sparse/generators.h"

namespace recode::core {
namespace {

using codec::PipelineConfig;
using sparse::Csr;
using sparse::ValueModel;

MatrixProfile profile_of(const HeterogeneousSystem& sys, const Csr& csr) {
  return sys.profile("m", csr, PipelineConfig::udp_dsh());
}

TEST(System, ProfilePopulatesAllFields) {
  const HeterogeneousSystem sys;
  const Csr csr =
      sparse::gen_fem_like(3000, 10, 80, ValueModel::kSmoothField, 61);
  const MatrixProfile p = profile_of(sys, csr);
  EXPECT_EQ(p.nnz, csr.nnz());
  EXPECT_GT(p.bytes_per_nnz, 0.0);
  EXPECT_LT(p.bytes_per_nnz, 12.0);
  EXPECT_GT(p.udp_block_micros, 0.0);
  EXPECT_GT(p.udp_throughput_bps, 0.0);
  EXPECT_GT(p.cpu_snappy_bps, 0.0);
}

TEST(System, MaxUncompressedMatchesRoofline) {
  const HeterogeneousSystem sys;  // DDR4 default
  const Csr csr = sparse::gen_banded(4000, 8, 0.8, ValueModel::kStencilCoeffs, 62);
  const SpmvPerf perf = sys.analyze_spmv(profile_of(sys, csr));
  EXPECT_NEAR(perf.max_uncompressed, 100e9 / 12.0 * 2 / 1e9, 0.01);
}

TEST(System, UdpPathBeatsUncompressedOnCompressibleMatrix) {
  const HeterogeneousSystem sys;
  const Csr csr = sparse::gen_banded(20000, 10, 0.9,
                                     ValueModel::kStencilCoeffs, 63);
  const SpmvPerf perf = sys.analyze_spmv(profile_of(sys, csr));
  // Highly compressible: the paper's ~2.4x regime (or better).
  EXPECT_GT(perf.speedup(), 1.5);
  EXPECT_LT(perf.speedup(), 12.0 / perf.max_uncompressed * 50);  // sanity
}

TEST(System, CpuDecompressionPathIsFarSlower) {
  const HeterogeneousSystem sys;
  const Csr csr =
      sparse::gen_fem_like(10000, 12, 150, ValueModel::kSmoothField, 64);
  const SpmvPerf perf = sys.analyze_spmv(profile_of(sys, csr));
  // The paper's headline: CPU-side decompression throws away the benefit
  // (>30x below the UDP path on their Xeon; require a large gap).
  EXPECT_LT(perf.decomp_cpu, perf.decomp_udp_cpu / 5.0);
  EXPECT_LT(perf.decomp_cpu, perf.max_uncompressed);
}

TEST(System, IncompressibleMatrixGivesNoSpeedup) {
  const HeterogeneousSystem sys;
  const Csr csr = sparse::gen_random(2000, 2000, 30000, ValueModel::kRandom, 65);
  const SpmvPerf perf = sys.analyze_spmv(profile_of(sys, csr));
  EXPECT_LT(perf.speedup(), 1.6);
}

TEST(System, PowerSavingsMatchPaperFormulas) {
  const HeterogeneousSystem sys;
  const Csr csr = sparse::gen_banded(20000, 10, 0.9,
                                     ValueModel::kStencilCoeffs, 66);
  const MatrixProfile p = profile_of(sys, csr);
  const PowerSavings s = sys.analyze_power(p);
  EXPECT_NEAR(s.max_memory_power, 80.0, 1e-9);
  EXPECT_NEAR(s.memory_power_used, 80.0 * p.bytes_per_nnz / 12.0, 1e-6);
  EXPECT_NEAR(s.raw_saving, s.max_memory_power - s.memory_power_used, 1e-9);
  EXPECT_EQ(s.udp_power, s.udp_accelerators * 0.16);
  EXPECT_NEAR(s.net_saving, s.raw_saving - s.udp_power, 1e-9);
  EXPECT_GT(s.net_saving, 0.0);
  EXPECT_GT(s.udp_accelerators, 0);
}

TEST(System, HbmPowerEnvelope) {
  SystemConfig cfg;
  cfg.dram = mem::DramConfig::hbm2_1tbs();
  const HeterogeneousSystem sys(cfg);
  const Csr csr = sparse::gen_banded(20000, 10, 0.9,
                                     ValueModel::kStencilCoeffs, 67);
  const PowerSavings s = sys.analyze_power(profile_of(sys, csr));
  EXPECT_NEAR(s.max_memory_power, 64.0, 1e-9);
  // 1 TB/s needs ~10x more UDP accelerators than 100 GB/s.
  EXPECT_GT(s.udp_accelerators, 3);
}

TEST(System, SpeedupTracksCompressionRatio) {
  const HeterogeneousSystem sys;
  const Csr good = sparse::gen_multi_diagonal(
      30000, {-100, -1, 0, 1, 100}, ValueModel::kStencilCoeffs, 68);
  const Csr bad = sparse::gen_random(3000, 3000, 40000, ValueModel::kRandom, 69);
  const SpmvPerf pg = sys.analyze_spmv(profile_of(sys, good));
  const SpmvPerf pb = sys.analyze_spmv(profile_of(sys, bad));
  EXPECT_GT(pg.speedup(), pb.speedup());
}

TEST(System, AnalyzeOverlapPerfectPipeline) {
  // Decode-bound run whose wall equals the ideal: efficiency 1.0 and the
  // speedup is the whole serial chain over the balanced wall.
  OverlapMeasurement m;
  m.decode_busy_seconds = 0.8;
  m.compute_busy_seconds = 0.2;
  m.workers = 5;
  m.wall_seconds = 0.2;  // == (0.8 + 0.2) / 5
  const OverlapReport r = analyze_overlap(m);
  EXPECT_DOUBLE_EQ(r.ideal_wall_seconds, 0.2);
  EXPECT_DOUBLE_EQ(r.serial_wall_seconds, 1.0);
  EXPECT_DOUBLE_EQ(r.measured_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(r.overlap_speedup, 5.0);
  EXPECT_DOUBLE_EQ(r.decode_fraction, 0.8);
}

TEST(System, AnalyzeOverlapImperfectPipelineAndGuards) {
  OverlapMeasurement m;
  m.decode_busy_seconds = 0.6;
  m.compute_busy_seconds = 0.3;
  m.workers = 3;
  m.wall_seconds = 0.6;  // stalls: 2x the ideal (0.6 + 0.3) / 3
  const OverlapReport r = analyze_overlap(m);
  EXPECT_DOUBLE_EQ(r.ideal_wall_seconds, 0.3);
  EXPECT_DOUBLE_EQ(r.measured_efficiency, 0.5);
  EXPECT_DOUBLE_EQ(r.overlap_speedup, 1.5);

  // Degenerate inputs must not divide by zero.
  const OverlapReport zero = analyze_overlap(OverlapMeasurement{});
  EXPECT_DOUBLE_EQ(zero.measured_efficiency, 0.0);
  EXPECT_DOUBLE_EQ(zero.overlap_speedup, 0.0);
}

TEST(System, ProfileCompressedReusesMatrix) {
  const HeterogeneousSystem sys;
  const Csr csr = sparse::gen_stencil2d(60, 60, ValueModel::kSmoothField, 70);
  const auto cm = codec::compress(csr, PipelineConfig::udp_dsh());
  const MatrixProfile p = sys.profile_compressed("m", &csr, cm);
  EXPECT_DOUBLE_EQ(p.bytes_per_nnz, cm.bytes_per_nnz());
}

}  // namespace
}  // namespace recode::core
