// cg-mesh: conjugate gradient to tol 1e-8 from x0 = 0 on a resident
// compressed SPD mesh matrix, restarted whenever it converges until the
// run ends. One op is one operator apply through the StreamingExecutor
// (decoded-band cache off, k = 1), so software decode dominates.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "codec/pipeline.h"
#include "common/error.h"
#include "harness/replay.h"
#include "harness/workloads.h"
#include "solver/solver.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"

namespace perfbench {
namespace {

namespace codec = recode::codec;
namespace sparse = recode::sparse;
namespace spmv = recode::spmv;
namespace solver = recode::solver;

// gen_fem_like structure with smooth-field values, symmetrized (entry
// (i, j) takes the field value of (min, max)) and made strictly
// diagonally dominant with one constant diagonal, so A is SPD with
// condition number at most 3 and CG converges in about ten applies.
sparse::Csr make_spd_mesh(sparse::index_t n, std::uint64_t seed) {
  sparse::Csr a = sparse::gen_fem_like(n, 12, n / 50 + 8,
                                       sparse::ValueModel::kSmoothField, seed);
  const sparse::Csr t = sparse::transpose(a);
  if (t.row_ptr != a.row_ptr || t.col_idx != a.col_idx) {
    recode::fail("cg-mesh: generated structure is not symmetric");
  }
  double max_row_sum = 0.0;
  for (sparse::index_t r = 0; r < a.rows; ++r) {
    double row_sum = 0.0;
    for (auto k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const sparse::index_t c = a.col_idx[k];
      if (c == r) continue;
      const double v = c > r ? a.val[k] : t.val[k];
      a.val[k] = -v;
      row_sum += v;
    }
    max_row_sum = std::max(max_row_sum, row_sum);
  }
  const double diag = std::ceil(2.0 * max_row_sum);
  for (sparse::index_t r = 0; r < a.rows; ++r) {
    for (auto k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      if (a.col_idx[k] == r) a.val[k] = diag;
    }
  }
  return a;
}

}  // namespace

Outcome run_cg_mesh(const Options& o, Metrics& m) {
  const sparse::index_t n = o.tiny ? 3000 : 300000;
  const sparse::Csr a = make_spd_mesh(n, o.seed);
  const std::size_t nproc = host_nproc();
  spmv::StreamingConfig cfg;
  cfg.decode_threads = nproc > 1 ? nproc - 1 : 1;
  cfg.compute_threads = 1;
  cfg.cache_budget_bytes = 0;
  const auto nn = static_cast<std::size_t>(n);

  // --- Setup: compress, build the executor, warm it with one apply
  // (worker team and decode arenas). Repeated; setup_s is the median.
  codec::CompressedMatrix cm;
  std::unique_ptr<spmv::StreamingExecutor> exec;
  std::vector<double> setup_s, compress_s;
  {
    const std::vector<double> wx = random_vector(nn, o.seed + 7);
    std::vector<double> wy(nn);
    for (int r = 0; r < 5; ++r) {
      exec.reset();
      const auto t0 = Clock::now();
      cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
      const auto t1 = Clock::now();
      exec = std::make_unique<spmv::StreamingExecutor>(cm, cfg);
      exec->multiply(wx, wy);
      const auto t2 = Clock::now();
      compress_s.push_back(seconds_between(t0, t1));
      setup_s.push_back(seconds_between(t0, t2));
    }
  }
  record_sizes(m, "cg-mesh A", cm.nnz(), cm.stream_bytes());

  // --- Reference: the same solve through serial RecodedSpmv; one hash
  // per apply output, in call order.
  Outcome out;
  const std::vector<double> b = random_vector(nn, o.seed + 1);
  solver::CgOptions opts;
  opts.tol = 1e-8;
  std::vector<std::uint64_t> ref_hashes;
  solver::CgResult ref;
  {
    spmv::RecodedSpmv serial(cm);
    ref = solver::conjugate_gradient(
        [&](std::span<const double> x, std::span<double> y) {
          serial.multiply(x, y);
          ref_hashes.push_back(hash_doubles(y));
        },
        b, opts);
  }
  if (!ref.converged) {
    std::printf("cg-mesh: reference CG did not converge\n");
    out.checks_ok = false;
  }
  const std::uint64_t ref_x = hash_doubles(ref.x);
  opts.max_iters = ref.iterations;
  std::printf("cg-mesh: reference CG converged in %d applies\n", ref.iterations);

  if (o.corrupt) {
    flip_middle_byte(cm.blocks[cm.blocks.size() / 2].value_data);
  }

  // --- Closed loop: restart CG until the run ends.
  std::vector<double> self_ms_per_iter;
  Loop loop(o);
  ExecutorTotals totals;
  SpanLog log;
  std::size_t call = 0;
  std::size_t solve_span = SpanLog::kRoot;
  double apply_s_in_solve = 0.0;
  const solver::Operator op = [&](std::span<const double> x,
                                  std::span<double> y) {
    ++out.attempted;
    OpTimes& t = loop.times();
    const auto t0 = t.start();
    exec->multiply(x, y);
    const auto t1 = Clock::now();
    t.completed(t0, t1);
    apply_s_in_solve += seconds_between(t0, t1);
    if (loop.traced()) log.record("spmv.apply", solve_span, t0, t1);
    totals.add(exec->last_stats());
    if (call >= ref_hashes.size() || hash_doubles(y) != ref_hashes[call]) {
      ++out.failed;
    }
    ++call;
    t.checked(t1);
  };

  while (loop.next()) {
    call = 0;
    apply_s_in_solve = 0.0;
    const bool traced = loop.traced();
    if (traced) solve_span = log.open("solver.cg");
    const auto s0 = Clock::now();
    try {
      const solver::CgResult r = solver::conjugate_gradient(op, b, opts);
      const double solve_s = seconds_between(s0, Clock::now());
      if (!r.converged || r.iterations != ref.iterations ||
          hash_doubles(r.x) != ref_x) {
        out.checks_ok = false;
      }
      self_ms_per_iter.push_back((solve_s - apply_s_in_solve) * 1e3 /
                                 std::max(1, r.iterations));
    } catch (const recode::Error& e) {
      ++out.failed;
      if (out.failed == 1) std::printf("cg-mesh: op failed: %s\n", e.what());
    }
    if (traced) log.close(solve_span);
  }
  const std::size_t threads = library_threads();

  m.set("setup_s", median(setup_s));
  record_latency(m, loop.times(Loop::kUntraced));
  m.set("bytes_per_nnz", cm.bytes_per_nnz());
  m.set("peak_rss_mb", peak_rss_mb());
  if (!o.trace) return out;

  // --- Per-layer replays (traced run only).
  record_run_facts(m, o, loop, cm, compress_s, threads);
  m.set("solver.iterations", ref.iterations);
  m.set("solver.self_ms_per_iter", median(self_ms_per_iter));
  ReplayConfig rc;
  rc.k = 1;
  rc.container_path = o.work_dir + "/cg-mesh-a.rcm";
  replay_layers(cm, a, rc, log, m);
  record_executor(m, totals, cm, loop.times(Loop::kUntraced).p50());
  finish_trace(log, o);
  return out;
}

}  // namespace perfbench
