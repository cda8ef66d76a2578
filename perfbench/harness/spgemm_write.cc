// spgemm-write: C = A·A for a mesh Galerkin matrix. A is read from its
// .rcm through a streamed ContainerSource and C is written to a scratch
// container by spgemm_to_container. One op is one full job; encoding C
// dominates it, then the SpGEMM accumulator, then storage reads of A.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "codec/container.h"
#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "common/error.h"
#include "harness/replay.h"
#include "harness/workloads.h"
#include "sparse/generators.h"
#include "spmv/spgemm.h"

namespace perfbench {
namespace {

namespace codec = recode::codec;
namespace sparse = recode::sparse;
namespace spmv = recode::spmv;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool bitwise_equal(const sparse::Csr& x, const sparse::Csr& y) {
  return x.rows == y.rows && x.cols == y.cols && x.row_ptr == y.row_ptr &&
         x.col_idx == y.col_idx && x.val.size() == y.val.size() &&
         std::memcmp(x.val.data(), y.val.data(), x.val.size() * sizeof(double)) == 0;
}

// Flips one byte inside block b's on-disk record (corruption self-test).
void corrupt_block_on_disk(const std::string& path, const codec::BlockIndex& index,
                           std::size_t b) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto pos = static_cast<std::streamoff>(index.offsets[b] + index.extent_bytes(b) / 2);
  char c = 0;
  f.seekg(pos);
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(pos);
  f.write(&c, 1);
  if (!f) recode::fail("spgemm-write: could not corrupt " + path);
}

}  // namespace

Outcome run_spgemm_write(const Options& o, Metrics& m) {
  const sparse::index_t n = o.tiny ? 600 : 2500;
  const sparse::Csr a =
      sparse::gen_fem_like(n, 12, 400, sparse::ValueModel::kRandom, o.seed);
  const std::string a_path = o.work_dir + "/spgemm-write-a.rcm";
  const std::string c_path = o.work_dir + "/spgemm-write-c.rcm";
  const codec::PipelineConfig pipeline = codec::PipelineConfig::udp_dsh();
  const std::size_t nproc = host_nproc();
  spmv::SpgemmConfig cfg;  // one worker thread is left to the source's IO thread
  cfg.threads = nproc > 1 ? nproc - 1 : 1;

  // --- Setup: compress A, write its container, open it streamed.
  Outcome out;
  codec::CompressedMatrix cm;
  codec::OpenedContainer opened;
  std::vector<double> setup_s, compress_s;
  for (int r = 0; r < 15; ++r) {
    opened = {};
    const auto t0 = Clock::now();
    cm = codec::compress(a, pipeline);
    const auto t1 = Clock::now();
    codec::write_compressed_file(a_path, cm, true);
    opened = codec::open_container(a_path, codec::SourceKind::kStreamed);
    const auto t2 = Clock::now();
    compress_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, t2));
  }
  record_sizes(m, "spgemm-write A", cm.nnz(), cm.stream_bytes());

  // --- Reference: serial SpGEMM of the resident matrix, and the
  // container bytes its result must be written as.
  spmv::SpgemmStats ref_stats;
  const sparse::Csr c_ref = spmv::spgemm(cm, a, {}, &ref_stats);
  const codec::CompressedMatrix c_cm = codec::compress(c_ref, pipeline);
  std::string ref_bytes;
  {
    std::ostringstream os;
    codec::write_compressed(os, c_cm, true);
    ref_bytes = os.str();
  }
  if (!bitwise_equal(codec::decompress(c_cm), c_ref)) out.checks_ok = false;
  std::printf("spgemm-write: C has %zu nnz, %.1f MB as CSR\n", c_ref.nnz(),
              static_cast<double>(c_ref.nnz()) * 12.0 / 1e6);
  if (o.corrupt) corrupt_block_on_disk(a_path, opened.index, cm.blocks.size() / 2);

  // --- Closed loop of full jobs.
  Loop loop(o);
  SpanLog log;
  spmv::SpgemmStats st;
  std::size_t max_workers = 0;
  double steals = 0, tasks = 0, blocks_decoded = 0;
  codec::SourceStats last_op_source;
  double c_bytes_per_nnz = 0.0;
  while (loop.next()) {
    ++out.attempted;
    const codec::SourceStats before = opened.source->stats();
    OpTimes& t = loop.times();
    const auto t0 = t.start();
    try {
      spmv::spgemm_to_container(c_path, *opened.matrix, opened.source, a, pipeline,
                                cfg, &st);
    } catch (const recode::Error& e) {
      ++out.failed;
      if (out.failed == 1) std::printf("spgemm-write: op failed: %s\n", e.what());
      continue;
    }
    const auto t1 = Clock::now();
    t.completed(t0, t1);
    if (loop.traced()) log.record("spmv.spgemm_to_container", SpanLog::kRoot, t0, t1);
    const codec::SourceStats after = opened.source->stats();
    last_op_source.bytes_read = after.bytes_read - before.bytes_read;
    last_op_source.read_ns = after.read_ns - before.read_ns;
    last_op_source.sync_reads = after.sync_reads - before.sync_reads;
    last_op_source.prefetch_hits = after.prefetch_hits - before.prefetch_hits;
    last_op_source.peak_window_bytes = after.peak_window_bytes;
    max_workers = std::max(max_workers, st.workers);
    steals += static_cast<double>(st.steals);
    tasks += static_cast<double>(st.tasks);
    blocks_decoded += static_cast<double>(st.a_blocks_decoded);

    // Every op: the file must be byte-identical to the reference
    // container. First op: it must also decode bitwise to C.
    if (read_file(c_path) != ref_bytes) {
      ++out.failed;
    } else if (c_bytes_per_nnz == 0.0) {
      const codec::CompressedMatrix written = codec::read_compressed_file(c_path);
      if (!bitwise_equal(codec::decompress(written), c_ref)) ++out.failed;
      c_bytes_per_nnz = written.bytes_per_nnz();
    }
    t.checked(t1);
  }
  // Threads started per op: the SpGEMM team plus the source's IO thread
  // (the only one still alive between ops).
  const std::size_t threads = max_workers + library_threads();
  std::remove(c_path.c_str());

  m.set("setup_s", median(setup_s));
  record_latency(m, loop.times(Loop::kUntraced));
  m.set("bytes_per_nnz", c_bytes_per_nnz > 0 ? c_bytes_per_nnz : c_cm.bytes_per_nnz());
  m.set("peak_rss_mb", peak_rss_mb());
  if (!o.trace) {
    std::remove(a_path.c_str());
    return out;
  }

  const double ops = static_cast<double>(std::max<std::size_t>(
      1, loop.times(Loop::kUntraced).op_ms().size() +
             loop.times(Loop::kTraced).op_ms().size()));
  const double block_bytes = 12.0 * static_cast<double>(cm.nnz()) /
                             static_cast<double>(cm.blocks.size());
  m.set("codec.decoded_mb_per_op", blocks_decoded / ops * block_bytes / 1e6);
  m.set("spmv.steals", steals / ops);
  m.set("spmv.tasks", tasks / ops);
  m.set("spgemm.products", static_cast<double>(ref_stats.products));
  m.set("spgemm.rows_dense", static_cast<double>(ref_stats.rows_dense));
  m.set("spgemm.rows_merge", static_cast<double>(ref_stats.rows_merge));
  m.set("spgemm.c_nnz", static_cast<double>(c_ref.nnz()));
  record_run_facts(m, o, loop, cm, compress_s, threads);

  // Decode, kernel and baseline replays on A (storage replays A's file
  // too, then the live op's source counters replace those numbers).
  ReplayConfig rc;
  rc.k = 1;
  rc.container_path = o.work_dir + "/spgemm-write-a-replay.rcm";
  replay_layers(cm, a, rc, log, m);
  m.set("source.read_gbps",
        last_op_source.read_ns
            ? static_cast<double>(last_op_source.bytes_read) / last_op_source.read_ns
            : 0.0);
  m.set("source.peak_window_mb",
        static_cast<double>(last_op_source.peak_window_bytes) / 1e6);
  m.set("source.sync_reads", static_cast<double>(last_op_source.sync_reads));
  m.set("source.prefetch_hits", static_cast<double>(last_op_source.prefetch_hits));

  // SpGEMM alone, at the op's thread count and on one thread.
  const auto spgemm_ms = [&](std::size_t threads_used, const char* span) {
    spmv::SpgemmConfig c = cfg;
    c.threads = threads_used;
    std::vector<double> ms;
    for (int p = 0; p < 5; ++p) {
      ms.push_back(timed_span(log, span, SpanLog::kRoot, [&] {
                     spmv::spgemm(*opened.matrix, opened.source, a, c);
                   }) * 1e3);
    }
    return median(ms);
  };
  const double kernel_ms = spgemm_ms(cfg.threads, "spgemm.parallel");
  const double serial_ms = spgemm_ms(1, "spgemm.serial");
  m.set("spgemm.kernel_ms", kernel_ms);
  m.set("spgemm.serial_ms", serial_ms);
  m.set("spgemm.parallel_efficiency",
        serial_ms / (static_cast<double>(cfg.threads) * kernel_ms));

  // Encoding and writing C, separately (the same bytes the op writes).
  std::vector<double> encode_s, write_s;
  for (int p = 0; p < 5; ++p) {
    encode_s.push_back(timed_span(log, "codec.compress_c", SpanLog::kRoot, [&] {
      codec::compress(c_ref, pipeline);
    }));
    write_s.push_back(timed_span(log, "codec.write_c", SpanLog::kRoot, [&] {
      codec::write_compressed_file(c_path, c_cm, true);
    }));
  }
  std::remove(c_path.c_str());
  std::remove(a_path.c_str());
  m.set("codec.encode_mb_s",
        12.0 * static_cast<double>(c_ref.nnz()) / 1e6 / median(encode_s));
  m.set("codec.write_s", median(write_s));
  m.set("layers.encode_write_frac",
        (median(encode_s) + median(write_s)) * 1e3 /
            loop.times(Loop::kUntraced).p50());
  finish_trace(log, o);
  return out;
}

}  // namespace perfbench
