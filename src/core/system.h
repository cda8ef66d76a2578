// HeterogeneousSystem — the paper's CPU-UDP architecture analysis engine.
//
// Ties together the DRAM model (mem), the CPU model (cpu), the UDP cycle
// simulator (udp/udpprog) and the compression pipeline (codec) to produce
// exactly the quantities the evaluation section plots:
//
//  * analyze_spmv(): sustained SpMV GFLOP/s for the three systems of
//    Figs 14/15 — "Max Uncompressed" (CPU streaming plain CSR),
//    "Decomp(CPU) + SpMV" (CPU does software decompression), and
//    "Decomp(UDP+CPU)" (UDP decompresses at the rate measured on the
//    cycle simulator, CPU multiplies).
//  * analyze_power(): iso-performance memory power savings of Figs 16/17
//    (raw saving, UDP power added, net saving).
//  * decode profile: Figs 12/13 decompression throughput, CPU vs UDP.
//
// Everything here is per-matrix: compression ratio and UDP decode rate
// are properties of the data, which is the paper's core point.
#pragma once

#include <cstdint>
#include <string>

#include "codec/pipeline.h"
#include "cpu/cpu_model.h"
#include "mem/dram.h"
#include "udpprog/matrix_decoder.h"

namespace recode::core {

struct SystemConfig {
  mem::DramConfig dram = mem::DramConfig::ddr4_100gbs();
  cpu::CpuConfig cpu;
  udp::AcceleratorConfig udp;
  // Blocks sampled per matrix when measuring UDP decode rate (0 = all).
  std::size_t udp_sample_blocks = 48;
  // Max 64-lane UDP accelerators the chip can provision. The paper sizes
  // the UDP pool to keep up with the memory interface ("sufficient number
  // of UDPs to meet the desired memory rate", §V-B). Fig 15's HBM2 point
  // implies on the order of 100+ accelerators (decompressed output of
  // several TB/s); at ~0.13% of a 32-core die each (§III-C) that is
  // 10-30% of a die — steep but the paper's stated design point, so the
  // default cap stays out of the way. Lower it to study area-constrained
  // chips.
  int max_udp_accelerators = 256;
};

// Per-matrix measurement bundle everything downstream consumes.
struct MatrixProfile {
  std::string name;
  std::size_t nnz = 0;
  double bytes_per_nnz = 0.0;       // compressed (streamed bytes / nnz)
  double udp_block_micros = 0.0;    // one-lane latency per block
  double udp_throughput_bps = 0.0;  // 64-lane decompressed bytes/sec
  double cpu_snappy_bps = 0.0;      // 32-thread CPU software snappy rate
  double cpu_dsh_bps = 0.0;         // 32-thread CPU software DSH rate
};

struct SpmvPerf {
  // Paper Figs 14/15 series, in GFLOP/s.
  double max_uncompressed = 0.0;  // CPU, plain 12 B/nnz CSR
  double decomp_cpu = 0.0;        // CPU decompresses, then multiplies
  double decomp_udp_cpu = 0.0;    // UDP decompresses, CPU multiplies
  int udp_accelerators = 0;       // UDP pool size provisioned for the run

  double speedup() const {
    return max_uncompressed > 0 ? decomp_udp_cpu / max_uncompressed : 0.0;
  }
};

struct PowerSavings {
  // Paper Figs 16/17, in watts, at iso-performance with the uncompressed
  // system running at peak bandwidth.
  double max_memory_power = 0.0;   // peak BW x energy/bit
  double memory_power_used = 0.0;  // streaming compressed data instead
  double raw_saving = 0.0;         // max - used
  int udp_accelerators = 0;        // count needed to keep up with peak BW
  double udp_power = 0.0;          // count x 0.16 W
  double net_saving = 0.0;         // raw - udp_power

  double saving_fraction() const {
    return max_memory_power > 0 ? net_saving / max_memory_power : 0.0;
  }
};

// Measured decode/compute pipeline profile of one streaming SpMV run
// (filled from spmv::StreamingExecutor::last_stats()). The analytic
// models above assume the UDP decodes *while* the CPU multiplies; this is
// the empirical counterpart measured on the host-side executor.
struct OverlapMeasurement {
  double wall_seconds = 0.0;          // parallel wall clock
  double decode_busy_seconds = 0.0;   // summed over workers
  double compute_busy_seconds = 0.0;  // summed over workers
  // Every worker runs both stages (fused scheduling), so the ideal wall
  // is the total busy time spread over the pool.
  int workers = 1;
};

struct OverlapReport {
  // Wall clock a perfectly load-balanced run would need: all busy time
  // spread evenly over the workers.
  double ideal_wall_seconds = 0.0;
  // Wall clock of the serial chain (decode then multiply, one thread).
  double serial_wall_seconds = 0.0;
  // ideal / measured wall: 1.0 means no worker ever idled, the full
  // overlap Figs 14/15 assume.
  double measured_efficiency = 0.0;
  // serial / measured wall: the end-to-end win of overlapping + fan-out.
  double overlap_speedup = 0.0;
  // Decode share of total busy time (>= 0.5 means decode-bound, the
  // regime where the paper's UDP offload pays).
  double decode_fraction = 0.0;
};

// Reduces a measured streaming run to the overlap quantities reported
// alongside the analytic analyze_spmv() numbers (EXPERIMENTS.md).
OverlapReport analyze_overlap(const OverlapMeasurement& m);

class HeterogeneousSystem {
 public:
  explicit HeterogeneousSystem(SystemConfig config = {});

  const SystemConfig& config() const { return config_; }
  const mem::DramModel& dram() const { return dram_; }
  const cpu::CpuModel& cpu() const { return cpu_; }

  // Compresses the matrix, runs the UDP simulator on (a sample of) its
  // blocks, and fills the profile. `validate` cross-checks the simulated
  // decode against the source matrix.
  MatrixProfile profile(const std::string& name, const sparse::Csr& csr,
                        const codec::PipelineConfig& pipeline,
                        bool validate = true) const;

  // Same, reusing an already-compressed matrix.
  MatrixProfile profile_compressed(const std::string& name,
                                   const sparse::Csr* csr,
                                   const codec::CompressedMatrix& cm) const;

  // Figs 14/15 analysis for one matrix.
  SpmvPerf analyze_spmv(const MatrixProfile& p) const;

  // Figs 16/17 analysis for one matrix.
  PowerSavings analyze_power(const MatrixProfile& p) const;

 private:
  SystemConfig config_;
  mem::DramModel dram_;
  cpu::CpuModel cpu_;
};

}  // namespace recode::core
