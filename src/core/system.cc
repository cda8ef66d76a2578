#include "core/system.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace recode::core {

HeterogeneousSystem::HeterogeneousSystem(SystemConfig config)
    : config_(config), dram_(config.dram), cpu_(config.cpu) {}

MatrixProfile HeterogeneousSystem::profile_compressed(
    const std::string& name, const sparse::Csr* csr,
    const codec::CompressedMatrix& cm) const {
  MatrixProfile p;
  p.name = name;
  p.nnz = cm.nnz();
  p.bytes_per_nnz = cm.bytes_per_nnz();

  udpprog::MatrixDecodeOptions opts;
  opts.accelerator = config_.udp;
  opts.max_sampled_blocks = config_.udp_sample_blocks;
  opts.validate = csr != nullptr;
  const auto udp_result = udpprog::simulate_matrix_decode(cm, csr, opts);
  p.udp_block_micros = udp_result.mean_block_micros;
  p.udp_throughput_bps = udp_result.throughput_bytes_per_sec;

  p.cpu_snappy_bps = cpu_.snappy_decode_bps();
  p.cpu_dsh_bps = cpu_.dsh_decode_bps();
  return p;
}

MatrixProfile HeterogeneousSystem::profile(
    const std::string& name, const sparse::Csr& csr,
    const codec::PipelineConfig& pipeline, bool validate) const {
  const auto cm = codec::compress(csr, pipeline);
  return profile_compressed(name, validate ? &csr : nullptr, cm);
}

SpmvPerf HeterogeneousSystem::analyze_spmv(const MatrixProfile& p) const {
  RECODE_CHECK(p.nnz > 0);
  SpmvPerf perf;
  const double bw = dram_.config().peak_bandwidth_bps;

  // Max Uncompressed: plain CSR at 12 B/nnz, memory-bound (Fig 3).
  perf.max_uncompressed = cpu_.spmv_gflops(12.0, dram_);

  // Decomp(UDP+CPU): streaming compressed data, UDP decodes inline. The
  // UDP pool is provisioned to keep up with the memory interface (the
  // paper's "sufficient number of UDPs" sizing, cheap at ~0.13% die area
  // each), so the sustained nnz rate is set by the slower of (a) the
  // memory interface delivering compressed bytes and (b) the largest
  // provisionable UDP pool producing decompressed 12 B/nnz CSR.
  {
    RECODE_CHECK(p.udp_throughput_bps > 0);
    const double mem_nnz_per_s = bw / p.bytes_per_nnz;
    const double decompressed_bps_needed = mem_nnz_per_s * 12.0;
    perf.udp_accelerators = static_cast<int>(std::min<double>(
        config_.max_udp_accelerators,
        std::ceil(decompressed_bps_needed / p.udp_throughput_bps)));
    const double udp_nnz_per_s =
        p.udp_throughput_bps * perf.udp_accelerators / 12.0;
    const double nnz_per_s = std::min(mem_nnz_per_s, udp_nnz_per_s);
    perf.decomp_udp_cpu =
        std::min(nnz_per_s * 2.0 / 1e9, cpu_.config().peak_gflops);
  }

  // Decomp(CPU) + SpMV: the CPU itself runs the software decoder and then
  // multiplies; decode and multiply compete for the same cores, so the
  // phases serialize (the paper's ">30x slower" bar).
  {
    const double cpu_decode_nnz_per_s = p.cpu_dsh_bps / 12.0;
    const double mem_nnz_per_s = bw / p.bytes_per_nnz;
    const double spmv_nnz_per_s =
        cpu_.spmv_gflops(12.0, dram_) * 1e9 / 2.0;  // post-decode multiply
    const double t_per_nnz = 1.0 / std::min(cpu_decode_nnz_per_s,
                                            mem_nnz_per_s) +
                             1.0 / spmv_nnz_per_s;
    perf.decomp_cpu = (1.0 / t_per_nnz) * 2.0 / 1e9;
  }
  return perf;
}

PowerSavings HeterogeneousSystem::analyze_power(const MatrixProfile& p) const {
  RECODE_CHECK(p.bytes_per_nnz > 0);
  PowerSavings s;
  s.max_memory_power = dram_.max_power_watts();

  // Iso-performance target: the nnz rate of the uncompressed system at
  // peak bandwidth. The compressed system streams bytes_per_nnz instead
  // of 12 B per nnz.
  const double bw = dram_.config().peak_bandwidth_bps;
  const double compressed_bw = bw * (p.bytes_per_nnz / 12.0);
  s.memory_power_used = dram_.power_at_bandwidth(compressed_bw);
  s.raw_saving = s.max_memory_power - s.memory_power_used;

  // UDPs must regenerate decompressed data at the full peak rate
  // ("100GB/s or 1TB/s out from UDPs", §V-B).
  RECODE_CHECK(p.udp_throughput_bps > 0);
  s.udp_accelerators = static_cast<int>(
      std::ceil(bw / p.udp_throughput_bps));
  s.udp_power =
      static_cast<double>(s.udp_accelerators) * config_.udp.power_watts;
  s.net_saving = s.raw_saving - s.udp_power;
  return s;
}

OverlapReport analyze_overlap(const OverlapMeasurement& m) {
  OverlapReport r;
  // Fused scheduling has no stage boundary to overlap across: the ideal
  // wall is all busy time load-balanced over the worker pool.
  const int wn = m.workers > 0 ? m.workers : 1;
  r.ideal_wall_seconds = (m.decode_busy_seconds + m.compute_busy_seconds) / wn;
  r.serial_wall_seconds = m.decode_busy_seconds + m.compute_busy_seconds;
  const double busy = r.serial_wall_seconds;
  r.decode_fraction = busy > 0 ? m.decode_busy_seconds / busy : 0.0;
  if (m.wall_seconds > 0) {
    r.measured_efficiency = r.ideal_wall_seconds / m.wall_seconds;
    r.overlap_speedup = r.serial_wall_seconds / m.wall_seconds;
  }
  // Publish the derived overlap figures so a metrics snapshot taken after
  // a streaming run carries the Fig 14/15 model inputs next to the raw
  // scheduler-wait histograms they explain.
  if constexpr (telemetry::kEnabled) {
    auto& reg = telemetry::MetricsRegistry::global();
    reg.gauge("core.overlap.measured_efficiency").set(r.measured_efficiency);
    reg.gauge("core.overlap.overlap_speedup").set(r.overlap_speedup);
    reg.gauge("core.overlap.decode_fraction").set(r.decode_fraction);
  }
  return r;
}

}  // namespace recode::core
