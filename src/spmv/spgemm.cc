#include "spmv/spgemm.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "spmv/block_decoder.h"
#include "telemetry/telemetry.h"

namespace recode::spmv {

namespace {

// Kernel-hop ledger feed, one call per task and one for the seam fix-up
// (never per row or product).
// Byte model: the kernel consumes A's decoded stream (12 B/nnz) and
// writes C's stream (12 B/nnz); the B-row gathers are the vector-side
// traffic (12 B per expanded product), the SpGEMM analog of the SpMV x
// gather. Conservation holds because B is decoded outside the run window
// (see spgemm.h): in-window transform.out is exactly A's decoded bytes.
inline void ledger_kernel_op(std::uint64_t a_nnz, std::uint64_t c_nnz,
                             std::uint64_t products) {
  if constexpr (telemetry::kEnabled) {
    telemetry::MovementLedger& ledger = telemetry::MovementLedger::global();
    telemetry::MovementLedger::HopFlow& f =
        ledger.hop(telemetry::Hop::kKernel);
    f.bytes_in.add(a_nnz * 12);
    f.bytes_out.add(c_nnz * 12);
    f.ops.add(1);
    ledger.kernel_vector_bytes().add(products * 12);
    ledger.kernel_flops().add(2 * products);
    ledger.kernel_nnz().add(a_nnz);
  }
}

// A row emits from its sorted touched list instead of walking the bitmap
// when it touched fewer than one column per kSortSpanWords words of its
// bitmap span: sorting k columns then costs less than loading the span.
constexpr std::size_t kSortSpanWords = 16;

// Per-worker scratch reused across every task the worker executes.
struct WorkerScratch {
  explicit WorkerScratch(std::size_t cols)
      : acc(cols), stamp(cols), bits((cols + 63) / 64) {}

  // Task-local contiguous copies of A's decoded streams (rows span block
  // boundaries, so the Gustavson row loop needs the task's blocks flat).
  std::vector<sparse::index_t> a_idx;
  std::vector<double> a_val;
  // The accumulator, per column of B: value, row stamp (set = touched by
  // the current row), and one bit in a cols/64-word bitmap; plus the
  // row's touched columns in first-touch order. Emit clears every bit it
  // set, so the bitmap is all-zero between rows.
  std::vector<double> acc;
  std::vector<std::uint32_t> stamp;
  std::uint32_t stamp_cur = 0;
  std::vector<std::uint64_t> bits;
  std::vector<sparse::index_t> touched;

  std::uint32_t next_stamp() {
    if (stamp_cur == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp.begin(), stamp.end(), 0);
      stamp_cur = 0;
    }
    return ++stamp_cur;
  }
};

// One slice of C — a task's rows or one seam row: their columns and
// values, concatenated — allocated once at the exact size the count sweep
// found, and left uninitialized because the fill sweep writes every
// element. One writer owns each slice, so no synchronization is needed.
struct SliceOut {
  std::size_t nnz = 0;
  std::unique_ptr<sparse::index_t[]> cols;
  std::unique_ptr<double[]> vals;
  std::uint64_t rows_bitmap = 0;
  std::uint64_t rows_sorted = 0;
  std::uint64_t products = 0;
};

// C as the kernel leaves it: the final row_ptr plus the row-ordered
// slices, outs[i] holding C's nnz range [first_nnz[i], first_nnz[i + 1]).
struct BandedC {
  std::vector<sparse::offset_t> row_ptr;
  std::vector<SliceOut> outs;
  std::vector<std::size_t> first_nnz;

  // Copies C's nnz range [first, first + idx.size()) out of the slices it
  // spans, starting at the last slice that begins at or before `first`.
  void copy(std::size_t first, std::span<sparse::index_t> idx,
            std::span<double> val) const {
    auto i = static_cast<std::size_t>(
        std::upper_bound(first_nnz.begin(), first_nnz.end(), first) -
        first_nnz.begin() - 1);
    for (std::size_t done = 0; done < idx.size(); ++i) {
      const std::size_t off = first + done - first_nnz[i];
      const std::size_t n = std::min(idx.size() - done, outs[i].nnz - off);
      std::copy_n(outs[i].cols.get() + off, n, idx.data() + done);
      std::copy_n(outs[i].vals.get() + off, n, val.data() + done);
      done += n;
    }
  }
};

// A's entries for a run of rows, flat: row r's entries are
// idx/val[row_ptr[r] - base, row_ptr[r + 1] - base).
struct RowEntries {
  const sparse::offset_t* row_ptr;
  std::size_t base;
  const sparse::index_t* idx;
  const double* val;
};

// C's rows [r0, r1) into `out`, which they fill alone: a count sweep
// writes each row's length into c_len[r + 1] and sizes the slice, then a
// fill sweep scatter-adds every row's products in A-entry order (seeding
// each column's sum by assignment, the reference's operation order) and
// emits its columns in ascending order. Tasks and the seam fix-up both
// run rows through here, so every row has one operation order.
void multiply_rows(WorkerScratch& ws, const sparse::Csr& b,
                   const RowEntries& a, sparse::index_t r0,
                   sparse::index_t r1, sparse::offset_t* c_len,
                   SliceOut& out) {
  const auto row_lo = [&a](sparse::index_t r) {
    return static_cast<std::size_t>(a.row_ptr[r]) - a.base;
  };

  // Count: a stamp-only sweep gives each row's C length and the slice's.
  for (sparse::index_t r = r0; r < r1; ++r) {
    const std::uint32_t tag = ws.next_stamp();
    std::size_t len = 0;
    for (std::size_t k = row_lo(r), k1 = row_lo(r + 1); k < k1; ++k) {
      const auto col = static_cast<std::size_t>(a.idx[k]);
      const auto j0 = static_cast<std::size_t>(b.row_ptr[col]);
      const auto j1 = static_cast<std::size_t>(b.row_ptr[col + 1]);
      out.products += j1 - j0;
      for (std::size_t j = j0; j < j1; ++j) {
        const auto c = static_cast<std::size_t>(b.col_idx[j]);
        len += ws.stamp[c] != tag;
        ws.stamp[c] = tag;
      }
    }
    c_len[static_cast<std::size_t>(r) + 1] =
        static_cast<sparse::offset_t>(len);
    out.nnz += len;
  }

  // Size: the slice, once, exactly.
  out.cols = std::make_unique_for_overwrite<sparse::index_t[]>(out.nnz);
  out.vals = std::make_unique_for_overwrite<double[]>(out.nnz);

  // Fill and emit.
  std::size_t pos = 0;
  for (sparse::index_t r = r0; r < r1; ++r) {
    if (c_len[static_cast<std::size_t>(r) + 1] == 0) continue;
    const std::uint32_t tag = ws.next_stamp();
    ws.touched.clear();
    for (std::size_t k = row_lo(r), k1 = row_lo(r + 1); k < k1; ++k) {
      const auto col = static_cast<std::size_t>(a.idx[k]);
      const double av = a.val[k];
      const auto j1 = static_cast<std::size_t>(b.row_ptr[col + 1]);
      for (auto j = static_cast<std::size_t>(b.row_ptr[col]); j < j1; ++j) {
        const auto c = static_cast<std::size_t>(b.col_idx[j]);
        const double prod = av * b.val[j];
        if (ws.stamp[c] == tag) {
          ws.acc[c] += prod;
        } else {
          ws.stamp[c] = tag;
          ws.acc[c] = prod;
          ws.bits[c >> 6] |= std::uint64_t{1} << (c & 63);
          ws.touched.push_back(static_cast<sparse::index_t>(c));
        }
      }
    }
    const auto emit = [&](std::size_t c) {
      out.cols[pos] = static_cast<sparse::index_t>(c);
      out.vals[pos++] = ws.acc[c];
    };
    const auto [lo, hi] =
        std::minmax_element(ws.touched.begin(), ws.touched.end());
    const auto word_lo = static_cast<std::size_t>(*lo) >> 6;
    const auto word_hi = static_cast<std::size_t>(*hi) >> 6;
    if (ws.touched.size() * kSortSpanWords < word_hi - word_lo + 1) {
      ++out.rows_sorted;
      std::sort(ws.touched.begin(), ws.touched.end());
      for (const sparse::index_t col : ws.touched) {
        ws.bits[static_cast<std::size_t>(col) >> 6] = 0;
        emit(static_cast<std::size_t>(col));
      }
    } else {
      ++out.rows_bitmap;
      for (std::size_t w = word_lo; w <= word_hi; ++w) {
        std::uint64_t word = ws.bits[w];
        if (word == 0) continue;
        ws.bits[w] = 0;
        do {
          emit(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
          word &= word - 1;
        } while (word != 0);
      }
    }
  }
}

constexpr std::size_t kNoSeam = static_cast<std::size_t>(-1);

// One task: a contiguous block range of A. It computes the rows that lie
// wholly inside the range; for a seam row crossing either end it copies
// its piece of the row's A entries into that row's buffer instead.
struct SpgemmTask {
  BlockRun blocks;
  sparse::index_t first_row = 0;  // rows wholly inside: [first_row, end_row)
  sparse::index_t end_row = 0;
  std::size_t out = 0;         // its slice of C
  std::size_t head = kNoSeam;  // the seam row crossing its start, if any
  std::size_t tail = kNoSeam;  // the seam row crossing its end (== head
                               // when the range lies inside one row)
};

// A row that crosses at least one cut: its slice of C, and where its A
// entries gather in SpgemmJob::seam_idx/seam_val.
struct SeamRow {
  sparse::index_t row = 0;
  std::size_t entries = 0;
  std::size_t out = 0;
};

struct SpgemmJob {
  const codec::CompressedMatrix* a = nullptr;
  const sparse::Csr* b = nullptr;
  BlockStream* stream = nullptr;
  std::vector<SpgemmTask> tasks;
  std::vector<SeamRow> seams;
  // Seam rows' A entries, each row's range tiled by its tasks' pieces.
  std::vector<sparse::index_t> seam_idx;
  std::vector<double> seam_val;
  // Each task and seam row fills its own slice of c.outs and writes its
  // rows' lengths into c.row_ptr[r + 1] (disjoint rows, so plain writes);
  // the caller prefix-sums row_ptr after the fix-up.
  BandedC c;
  std::vector<std::unique_ptr<WorkerScratch>> scratch;  // one per worker
};

// Tasks from the block ranges, seam rows from the cuts a row crosses,
// and C's slices in row order: each task's slice, then the slice of the
// seam row crossing its end (once per row, however many cuts it
// crosses).
void plan_tasks(SpgemmJob& job, const std::vector<BlockRun>& runs) {
  const codec::CompressedMatrix& a = *job.a;
  const auto& blocks = a.blocking.blocks;
  const auto crosses = [&blocks](std::size_t b) {  // the cut after block b
    return b + 1 < blocks.size() &&
           blocks[b].last_row == blocks[b + 1].first_row;
  };
  std::size_t slices = 0;
  std::size_t seam_entries = 0;
  for (const BlockRun& run : runs) {
    const std::size_t last = run.first + run.count - 1;
    SpgemmTask task;
    task.blocks = run;
    task.first_row = blocks[run.first].first_row;
    task.end_row = blocks[last].last_row + 1;
    if (run.first > 0 && crosses(run.first - 1)) {
      task.head = job.seams.size() - 1;  // pushed by the previous task
      ++task.first_row;
    }
    task.out = slices++;
    if (crosses(last)) {
      const sparse::index_t row = blocks[last].last_row;
      if (job.seams.empty() || job.seams.back().row != row) {
        job.seams.push_back({row, seam_entries, slices++});
        seam_entries += static_cast<std::size_t>(a.row_ptr[row + 1] -
                                                 a.row_ptr[row]);
      }
      task.tail = job.seams.size() - 1;
      --task.end_row;
    }
    task.end_row = std::max(task.end_row, task.first_row);
    job.tasks.push_back(task);
  }
  job.seam_idx.resize(seam_entries);
  job.seam_val.resize(seam_entries);
  job.c.outs.resize(slices);
}

void process_task(SpgemmJob& job, std::uint32_t task_id, std::size_t worker) {
  WorkerScratch& ws = *job.scratch[worker];
  const SpgemmTask& task = job.tasks[task_id];
  const codec::CompressedMatrix& a = *job.a;
  const auto& blocks = a.blocking.blocks;

  const std::size_t first_nnz = blocks[task.blocks.first].first_nnz;
  const sparse::BlockRange& last =
      blocks[task.blocks.first + task.blocks.count - 1];
  const std::size_t end_nnz = last.first_nnz + last.count;

  ws.a_idx.resize(end_nnz - first_nnz);
  ws.a_val.resize(end_nnz - first_nnz);

  // Decode the task's blocks into the flat task-local streams.
  job.stream->decode_task(
      worker, task_id, [&](std::size_t bi, const BlockStreams& decoded) {
        const std::size_t off = blocks[bi].first_nnz - first_nnz;
        std::memcpy(ws.a_idx.data() + off, decoded.indices.data(),
                    decoded.indices.size() * sizeof(sparse::index_t));
        std::memcpy(ws.a_val.data() + off, decoded.values.data(),
                    decoded.values.size() * sizeof(double));
      });

  // Each seam row gets the task's piece of its entries, at the piece's
  // offset within the row: the pieces tile the row in A-entry order.
  const auto give_piece = [&](const SeamRow& seam) {
    const auto row_first = static_cast<std::size_t>(a.row_ptr[seam.row]);
    const std::size_t lo = std::max(row_first, first_nnz);
    const std::size_t hi = std::min(
        static_cast<std::size_t>(a.row_ptr[seam.row + 1]), end_nnz);
    const std::size_t to = seam.entries + (lo - row_first);
    std::copy(ws.a_idx.begin() + (lo - first_nnz),
              ws.a_idx.begin() + (hi - first_nnz), job.seam_idx.begin() + to);
    std::copy(ws.a_val.begin() + (lo - first_nnz),
              ws.a_val.begin() + (hi - first_nnz), job.seam_val.begin() + to);
  };
  if (task.head != kNoSeam) give_piece(job.seams[task.head]);
  if (task.tail != kNoSeam && task.tail != task.head) {
    give_piece(job.seams[task.tail]);
  }

  // Gustavson row loop over the task's own rows. Timed as the kernel hop.
  telemetry::StageTimer ledger_timer(
      telemetry::MovementLedger::global().hop(telemetry::Hop::kKernel).ns);
  SliceOut& out = job.c.outs[task.out];
  multiply_rows(ws, *job.b,
                {a.row_ptr.data(), first_nnz, ws.a_idx.data(),
                 ws.a_val.data()},
                task.first_row, task.end_row, job.c.row_ptr.data(), out);
  ledger_kernel_op(end_nnz - first_nnz, out.nnz, out.products);
}

// The fix-up: every seam row from its gathered entries, after the run, on
// the calling thread. Its A entries were counted by the tasks that
// decoded them, so the ledger sees one kernel op with no input bytes.
void fix_up_seams(SpgemmJob& job, WorkerScratch& ws) {
  if (job.seams.empty()) return;
  telemetry::StageTimer ledger_timer(
      telemetry::MovementLedger::global().hop(telemetry::Hop::kKernel).ns);
  std::uint64_t c_nnz = 0;
  std::uint64_t products = 0;
  for (const SeamRow& seam : job.seams) {
    SliceOut& out = job.c.outs[seam.out];
    multiply_rows(ws, *job.b,
                  {job.a->row_ptr.data(),
                   static_cast<std::size_t>(job.a->row_ptr[seam.row]),
                   job.seam_idx.data() + seam.entries,
                   job.seam_val.data() + seam.entries},
                  seam.row, seam.row + 1, job.c.row_ptr.data(), out);
    c_nnz += out.nnz;
    products += out.products;
  }
  ledger_kernel_op(0, c_nnz, products);
}

BandedC run_spgemm(const codec::CompressedMatrix& a,
                   std::shared_ptr<codec::ContainerSource> a_source,
                   const sparse::Csr& b, const SpgemmConfig& cfg,
                   SpgemmStats* stats) {
  RECODE_PARSE_CHECK(b.rows == a.cols,
                     "spgemm: b.rows must equal a.cols");
  RECODE_PARSE_CHECK(b.row_ptr.size() == static_cast<std::size_t>(b.rows) + 1,
                     "spgemm: malformed b.row_ptr");

  SpgemmJob job;
  job.a = &a;
  job.b = &b;
  job.c.row_ptr.assign(static_cast<std::size_t>(a.rows) + 1, 0);
  const std::size_t workers = ThreadPool::resolve_size(cfg.threads);
  plan_tasks(job, plan_spgemm_tasks(a.blocking.block_count(),
                                    cfg.blocks_per_band, workers));
  if (job.tasks.empty()) {
    if (stats) *stats = SpgemmStats{.workers = 1};
    job.c.first_nnz = {0};
    return std::move(job.c);  // nnz == 0: all-empty rows
  }
  std::vector<std::uint32_t> order(job.tasks.size());
  std::iota(order.begin(), order.end(), 0u);
  BlockStream stream(a, std::move(a_source), workers, job.tasks.size());
  job.stream = &stream;
  for (std::size_t w = 0; w < stream.workers(); ++w) {
    job.scratch.push_back(
        std::make_unique<WorkerScratch>(static_cast<std::size_t>(b.cols)));
  }
  stream.run(
      order,
      [](void* ctx, std::uint32_t t) {
        return std::span<const BlockRun>(
            &static_cast<SpgemmJob*>(ctx)->tasks[t].blocks, 1);
      },
      [](void* ctx, std::uint32_t t, std::size_t worker) {
        process_task(*static_cast<SpgemmJob*>(ctx), t, worker);
      },
      &job);
  fix_up_seams(job, *job.scratch[0]);
  const codec::BandRunStats& run_stats = stream.run_stats();

  std::partial_sum(job.c.row_ptr.begin(), job.c.row_ptr.end(),
                   job.c.row_ptr.begin());
  job.c.first_nnz.assign(1, 0);
  SpgemmStats st;
  for (const SliceOut& out : job.c.outs) {
    job.c.first_nnz.push_back(job.c.first_nnz.back() + out.nnz);
    st.rows_dense += out.rows_bitmap;
    st.rows_merge += out.rows_sorted;
    st.products += out.products;
  }
  st.a_blocks_decoded = stream.last_run().blocks;
  st.a_compressed_bytes = stream.last_run().bytes;
  st.tasks = job.tasks.size();
  st.workers = run_stats.workers;
  if (stats) *stats = st;
  return std::move(job.c);
}

}  // namespace

std::vector<BlockRun> plan_spgemm_tasks(std::size_t blocks,
                                        std::size_t blocks_per_band,
                                        std::size_t workers) {
  std::vector<BlockRun> runs;
  if (blocks == 0) return runs;
  const std::size_t cap = std::max<std::size_t>(1, blocks_per_band);
  const std::size_t count =
      std::max((blocks + cap - 1) / cap, std::min(blocks, 4 * workers));
  // The first blocks % count ranges take one block more than the rest.
  const std::size_t size = blocks / count;
  const std::size_t extra = blocks % count;
  std::size_t first = 0;
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t n = size + (t < extra ? 1 : 0);
    runs.push_back({first, n});
    first += n;
  }
  return runs;
}

sparse::Csr spgemm(const codec::CompressedMatrix& a,
                   std::shared_ptr<codec::ContainerSource> a_source,
                   const sparse::Csr& b, const SpgemmConfig& cfg,
                   SpgemmStats* stats) {
  BandedC bc = run_spgemm(a, std::move(a_source), b, cfg, stats);
  sparse::Csr c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr = std::move(bc.row_ptr);
  // Stitch: the slices are row-ordered and own disjoint row ranges, so C
  // is their in-order concatenation.
  c.col_idx.resize(bc.first_nnz.back());
  c.val.resize(bc.first_nnz.back());
  bc.copy(0, c.col_idx, c.val);
  return c;
}

sparse::Csr spgemm(const codec::CompressedMatrix& a, const sparse::Csr& b,
                   const SpgemmConfig& cfg, SpgemmStats* stats) {
  return spgemm(a, nullptr, b, cfg, stats);
}

codec::StreamWriteResult spgemm_to_container(
    const std::string& path, const codec::CompressedMatrix& a,
    std::shared_ptr<codec::ContainerSource> a_source, const sparse::Csr& b,
    const codec::PipelineConfig& out_cfg, const SpgemmConfig& cfg,
    SpgemmStats* stats) {
  const BandedC c = run_spgemm(a, std::move(a_source), b, cfg, stats);
  return codec::write_compressed_stream(
      path, a.rows, b.cols, c.row_ptr, out_cfg,
      [&c](std::size_t, std::uint64_t first_nnz,
           std::span<sparse::index_t> indices, std::span<double> values) {
        c.copy(static_cast<std::size_t>(first_nnz), indices, values);
      },
      cfg.threads);
}

}  // namespace recode::spmv
