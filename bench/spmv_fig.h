// Shared driver for Figs 14/15 (SpMV performance, DDR4 vs HBM2) and
// Figs 16/17 (memory power savings, DDR4 vs HBM2) — identical analyses
// at two memory-system design points.
#pragma once

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "core/system.h"
#include "spmv/streaming_executor.h"

namespace recode::bench {

// Figs 14/15: per-matrix GFLOP/s for Max Uncompressed, Decomp(CPU)+SpMV,
// and Decomp(UDP+CPU), plus geomean speedup. When csv_dir is non-empty,
// the series is also written as <csv_dir>/<figure>.csv.
//
// streaming_threads > 0 adds a measured CPU-side baseline: each matrix is
// actually executed on spmv::StreamingExecutor (software engine, that many
// decoder workers) and the measured decode/compute overlap efficiency is
// printed next to the analytic model's columns — the empirical check on
// the "decode overlaps multiply" assumption those columns encode.
//
// A non-null `report` collects the per-matrix speedups and geomeans for
// the bench's --json output (the caller owns write()).
inline void run_spmv_figure(const std::string& figure,
                            const mem::DramConfig& dram, double scale,
                            const std::string& csv_dir = "",
                            std::size_t streaming_threads = 0,
                            BenchReport* report = nullptr) {
  print_header(figure, "CPU vs CPU-UDP SpMV performance on " + dram.name);

  core::SystemConfig cfg;
  cfg.dram = dram;
  const core::HeterogeneousSystem sys(cfg);
  const bool measured = streaming_threads > 0;

  std::vector<std::string> headers = {
      "matrix", "B/nnz", "Max Uncompressed GF/s", "Decomp(CPU)+SpMV GF/s",
      "Decomp(UDP+CPU) GF/s", "speedup", "UDPs"};
  if (measured) {
    headers.push_back("CPU stream x");
    headers.push_back("overlap eff");
  }
  Table table(headers);
  core::CsvRecorder csv(slug(figure), {"matrix", "bytes_per_nnz",
                                 "max_uncompressed_gflops",
                                 "decomp_cpu_gflops",
                                 "decomp_udp_cpu_gflops", "speedup"});
  StreamingStats speedup, udp_gap, overlap_eff;
  for (const auto& m : sparse::representative_suite(scale)) {
    const auto cm = codec::compress(m.csr, codec::PipelineConfig::udp_dsh());
    const auto p = sys.profile_compressed(m.name, &m.csr, cm);
    const auto perf = sys.analyze_spmv(p);
    speedup.add(perf.speedup());
    udp_gap.add(perf.decomp_udp_cpu / perf.decomp_cpu);
    if (report != nullptr) {
      report->add_result("speedup_" + m.name, perf.speedup());
      report->add_result("bytes_per_nnz_" + m.name, p.bytes_per_nnz);
    }
    std::vector<std::string> row = {
        m.name, Table::num(p.bytes_per_nnz, 2),
        Table::num(perf.max_uncompressed, 1), Table::num(perf.decomp_cpu, 2),
        Table::num(perf.decomp_udp_cpu, 1), Table::num(perf.speedup(), 2),
        std::to_string(perf.udp_accelerators)};
    if (measured) {
      spmv::StreamingConfig scfg;
      scfg.decode_threads = streaming_threads;
      spmv::StreamingExecutor exec(cm, scfg);
      std::vector<double> x(static_cast<std::size_t>(m.csr.cols), 1.0);
      std::vector<double> y(static_cast<std::size_t>(m.csr.rows));
      exec.multiply(x, y);
      const auto& st = exec.last_stats();
      core::OverlapMeasurement om;
      om.wall_seconds = st.wall_seconds;
      om.decode_busy_seconds = st.decode_busy_seconds;
      om.compute_busy_seconds = st.compute_busy_seconds;
      om.workers = static_cast<int>(st.workers);
      const auto report = core::analyze_overlap(om);
      overlap_eff.add(report.measured_efficiency);
      row.push_back(Table::num(report.overlap_speedup, 2));
      row.push_back(Table::num(report.measured_efficiency, 2));
    }
    table.add_row(row);
    csv.add_row({m.name, Table::num(p.bytes_per_nnz, 4),
                 Table::num(perf.max_uncompressed, 4),
                 Table::num(perf.decomp_cpu, 4),
                 Table::num(perf.decomp_udp_cpu, 4),
                 Table::num(perf.speedup(), 4)});
  }
  table.print();
  if (!csv_dir.empty()) csv.write(csv_dir);
  std::printf("geomean speedup over Max Uncompressed: %.2fx\n",
              speedup.geomean());
  std::printf("geomean Decomp(UDP+CPU) / Decomp(CPU): %.0fx\n",
              udp_gap.geomean());
  if (measured) {
    std::printf(
        "measured CPU-side streaming (%zu decoders): geomean overlap "
        "efficiency %.2f (1.0 = multiply fully hidden behind decode)\n",
        streaming_threads, overlap_eff.geomean());
  }
  if (report != nullptr) {
    report->add_result("geomean_speedup", speedup.geomean());
    report->add_result("geomean_udp_over_cpu", udp_gap.geomean());
    if (measured) {
      report->add_result("geomean_overlap_efficiency", overlap_eff.geomean());
      report->add_result("streaming_threads",
                         static_cast<double>(streaming_threads));
    }
  }
  print_expected(
      "Decomp(UDP+CPU) more than doubles Max Uncompressed (2.4x geomean "
      "over the full collection) while Decomp(CPU)+SpMV collapses >30x "
      "below it — CPU-side recoding erases the benefit on both DDR4 and "
      "HBM2.");
}

// Figs 16/17: iso-performance memory power savings.
inline void run_power_figure(const std::string& figure,
                             const mem::DramConfig& dram, double scale,
                             double expected_avg_saving_w,
                             double expected_max_power_w,
                             const std::string& csv_dir = "") {
  print_header(figure,
               "raw and net memory power savings at iso-performance, " +
                   dram.name);

  core::SystemConfig cfg;
  cfg.dram = dram;
  const core::HeterogeneousSystem sys(cfg);

  Table table({"matrix", "B/nnz", "max mem W", "mem used W", "raw saving W",
               "UDPs", "UDP W", "net saving W"});
  core::CsvRecorder csv(slug(figure), {"matrix", "bytes_per_nnz", "max_mem_w",
                                 "mem_used_w", "raw_saving_w", "udp_count",
                                 "udp_w", "net_saving_w"});
  StreamingStats net, raw;
  for (const auto& m : sparse::representative_suite(scale)) {
    const auto p =
        sys.profile(m.name, m.csr, codec::PipelineConfig::udp_dsh());
    const auto s = sys.analyze_power(p);
    raw.add(s.raw_saving);
    net.add(s.net_saving);
    table.add_row({m.name, Table::num(p.bytes_per_nnz, 2),
                   Table::num(s.max_memory_power, 1),
                   Table::num(s.memory_power_used, 1),
                   Table::num(s.raw_saving, 1),
                   std::to_string(s.udp_accelerators),
                   Table::num(s.udp_power, 2), Table::num(s.net_saving, 1)});
    csv.add_row({m.name, Table::num(p.bytes_per_nnz, 4),
                 Table::num(s.max_memory_power, 4),
                 Table::num(s.memory_power_used, 4),
                 Table::num(s.raw_saving, 4),
                 std::to_string(s.udp_accelerators),
                 Table::num(s.udp_power, 4), Table::num(s.net_saving, 4)});
  }
  table.print();
  if (!csv_dir.empty()) csv.write(csv_dir);
  std::printf("average net saving: %.1f W of %.1f W (%.0f%%)\n", net.mean(),
              expected_max_power_w,
              100.0 * net.mean() / expected_max_power_w);
  char expect[160];
  std::snprintf(expect, sizeof(expect),
                "average ~%.0f W saved out of %.0f W at unchanged SpMV "
                "performance; UDP power (0.16 W each) is negligible.",
                expected_avg_saving_w, expected_max_power_w);
  print_expected(expect);
}

}  // namespace recode::bench
