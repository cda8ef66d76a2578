// spmm-graph: a closed loop of StreamingExecutor::multiply_batch with
// k = 16 over a Chung-Lu power-law adjacency. The decoded-band cache
// holds the whole matrix and is warmed during setup, so timed ops decode
// nothing: the batch kernel, irregular x gathers, band splitting, steals
// and the fused-vs-split mode choice do the work.
#include <cstdint>
#include <cstdio>
#include <memory>

#include "codec/pipeline.h"
#include "common/error.h"
#include "harness/replay.h"
#include "harness/workloads.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "sparse/reorder.h"
#include "spmv/recoded.h"

namespace perfbench {

namespace codec = recode::codec;
namespace sparse = recode::sparse;
namespace spmv = recode::spmv;

namespace {

// gen_powerlaw numbers its hubs first; real graph ids carry no degree
// order, so relabel the vertices with a seeded random permutation.
sparse::Csr shuffled_powerlaw(sparse::index_t n, std::uint64_t seed) {
  const sparse::Csr g =
      sparse::gen_powerlaw(n, 8.0, 0.9, sparse::ValueModel::kUnit, seed);
  std::vector<sparse::index_t> perm(static_cast<std::size_t>(n));
  for (sparse::index_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  recode::Prng prng(seed + 3);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[prng.next_below(i)]);
  }
  return sparse::permute_symmetric(g, perm);
}

}  // namespace

Outcome run_spmm_graph(const Options& o, Metrics& m) {
  constexpr int kRhs = 16;
  constexpr std::size_t kBatches = 4;  // distinct X operands, used in turn
  constexpr int kWarmOps = 4;
  const sparse::index_t n = o.tiny ? 4000 : 200000;
  const sparse::Csr g = shuffled_powerlaw(n, o.seed);
  const std::size_t nproc = host_nproc();
  spmv::StreamingConfig cfg;
  cfg.decode_threads = nproc > 1 ? nproc - 1 : 1;
  cfg.compute_threads = 1;
  cfg.cache_budget_bytes = SIZE_MAX;
  const auto nn = static_cast<std::size_t>(n);

  std::vector<std::vector<double>> xs;
  for (std::size_t i = 0; i < kBatches; ++i) {
    xs.push_back(random_vector(nn * kRhs, o.seed + 11 + i));
  }
  std::vector<double> y(nn * kRhs);

  // --- Setup: compress, build the executor, warm the cache (and the
  // executor's decode-fraction estimate) with a few batch multiplies.
  Outcome out;
  codec::CompressedMatrix cm;
  std::unique_ptr<spmv::StreamingExecutor> exec;
  std::vector<double> setup_s, compress_s;
  for (int r = 0; r < 5; ++r) {
    exec.reset();
    const auto t0 = Clock::now();
    cm = codec::compress(g, codec::PipelineConfig::udp_dsh());
    const auto t1 = Clock::now();
    exec = std::make_unique<spmv::StreamingExecutor>(cm, cfg);
    for (int w = 0; w < kWarmOps; ++w) {
      exec->multiply_batch(xs[w % kBatches], y, kRhs);
    }
    const auto t2 = Clock::now();
    compress_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, t2));
  }
  record_sizes(m, "spmm-graph G", cm.nnz(), cm.stream_bytes());

  // --- Reference: serial RecodedSpmv, one output hash per X operand.
  std::vector<std::uint64_t> ref_hashes;
  {
    spmv::RecodedSpmv serial(cm);
    for (const auto& x : xs) {
      serial.multiply_batch(x, y, kRhs);
      ref_hashes.push_back(hash_doubles(y));
    }
  }
  if (o.corrupt) {
    // The warm cache would serve the clean band forever; drop it so the
    // corrupted block is decoded on every op.
    flip_middle_byte(cm.blocks[cm.blocks.size() / 2].value_data);
    exec->clear_cache();
  }

  // --- Closed loop of batch multiplies.
  Loop loop(o);
  ExecutorTotals totals;
  SpanLog log;
  const auto cache_before = exec->cache_stats();
  for (std::size_t i = 0; loop.next(); ++i) {
    const std::size_t batch = i % kBatches;
    ++out.attempted;
    OpTimes& t = loop.times();
    const auto t0 = t.start();
    try {
      exec->multiply_batch(xs[batch], y, kRhs);
    } catch (const recode::Error& e) {
      ++out.failed;
      if (out.failed == 1) std::printf("spmm-graph: op failed: %s\n", e.what());
      continue;
    }
    const auto t1 = Clock::now();
    t.completed(t0, t1);
    if (loop.traced()) log.record("spmv.multiply_batch", SpanLog::kRoot, t0, t1);
    totals.add(exec->last_stats());
    if (hash_doubles(y) != ref_hashes[batch]) ++out.failed;
    t.checked(t1);
  }
  const std::size_t threads = library_threads();

  m.set("setup_s", median(setup_s));
  record_latency(m, loop.times(Loop::kUntraced));
  m.set("bytes_per_nnz", cm.bytes_per_nnz());
  m.set("peak_rss_mb", peak_rss_mb());
  if (!o.trace) return out;

  const auto cache_after = exec->cache_stats();
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double lookups =
      hits + static_cast<double>(cache_after.misses - cache_before.misses);
  m.set("spmv.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0);
  m.set("spmv.cache_pinned_mb", static_cast<double>(cache_after.bytes_pinned) / 1e6);
  record_run_facts(m, o, loop, cm, compress_s, threads);
  ReplayConfig rc;
  rc.k = kRhs;
  rc.container_path = o.work_dir + "/spmm-graph-g.rcm";
  replay_layers(cm, g, rc, log, m);
  record_executor(m, totals, cm, loop.times(Loop::kUntraced).p50());
  finish_trace(log, o);
  return out;
}

}  // namespace perfbench
