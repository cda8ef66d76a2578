// Out-of-core differential battery: the resident, mmap, and streamed
// backends must produce bitwise-identical SpMV / SpMM / CG results
// across thread counts {1, 2, 7} and cache budgets {0, half, unlimited}
// — the executor's bitwise contract extended to the storage tier. Warm solver iterations must re-stream only the bands
// the BandCache couldn't pin (asserted on the source's bytes_read), and
// the streamed backend's warmed steady state must perform zero heap
// allocations (global operator-new hook, the PR 4 pattern). Runs under
// the sanitize/tsan presets via the `outofcore` and `concurrency`
// ctest labels.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "common/prng.h"
#include "solver/solver.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"
#include "spmv/streaming_executor.h"

// ---------------------------------------------------------------------------
// Global allocation-counting hook (same pattern as test_fast_decode.cc /
// test_streaming_stress.cc).
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace recode::spmv {
namespace {

using codec::OpenedContainer;
using codec::PipelineConfig;
using codec::SourceKind;
using sparse::Csr;

constexpr SourceKind kAllKinds[] = {SourceKind::kResident, SourceKind::kMmap,
                                    SourceKind::kStreamed};

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

// Big enough that the executor takes the threaded path (> 16 blocks at
// the 1024-nnz default) and bands outnumber workers.
Csr diff_matrix(std::uint64_t seed) {
  return sparse::gen_fem_like(12000, 9, 300, sparse::ValueModel::kSmoothField,
                              seed);
}

std::string write_container(const Csr& a, const char* tag) {
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const std::string path = std::string("outofcore_diff_") + tag + ".rcm";
  codec::write_compressed_file(path, cm, /*with_index=*/true);
  return path;
}

StreamingExecutor make_executor(const OpenedContainer& oc,
                                std::size_t threads, std::size_t cache_bytes) {
  StreamingConfig cfg;
  cfg.decode_threads = threads;
  cfg.compute_threads = 1;
  cfg.blocks_per_band = 4;
  cfg.cache_budget_bytes = cache_bytes;
  return StreamingExecutor(*oc.matrix, oc.source, cfg);
}

TEST(OutOfCoreDifferential, SpmvBitwiseAcrossBackendsThreadsCaches) {
  const std::uint64_t seed = test_seed(61);
  const Csr a = diff_matrix(seed);
  const std::string path = write_container(a, "spmv");
  const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 1);

  // Serial resident reference.
  OpenedContainer ref = codec::open_container(path, SourceKind::kResident);
  RecodedSpmv serial(*ref.matrix);
  std::vector<double> y_ref(static_cast<std::size_t>(a.rows));
  serial.multiply(x, y_ref);

  const std::size_t decoded_bytes = a.nnz() * 12;
  const std::size_t budgets[] = {0, decoded_bytes / 2, SIZE_MAX};

  for (const SourceKind kind : kAllKinds) {
    OpenedContainer oc = codec::open_container(path, kind);

    // Serial engine through the source.
    RecodedSpmv engine(*oc.matrix, oc.source);
    std::vector<double> y(y_ref.size());
    engine.multiply(x, y);
    ASSERT_EQ(0,
              std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(double)))
        << "serial " << codec::source_kind_name(kind);

    for (const std::size_t threads : {1u, 2u, 7u}) {
      for (const std::size_t cache : budgets) {
        StreamingExecutor exec = make_executor(oc, threads, cache);
        for (int rep = 0; rep < 3; ++rep) {  // cold + warm + serpentine
          std::fill(y.begin(), y.end(), 1e300);
          exec.multiply(x, y);
          ASSERT_EQ(0, std::memcmp(y.data(), y_ref.data(),
                                   y.size() * sizeof(double)))
              << codec::source_kind_name(kind) << " threads=" << threads
              << " cache=" << cache << " rep=" << rep;
        }
      }
    }
  }
}

TEST(OutOfCoreDifferential, SpmmBatchBitwiseAcrossBackends) {
  const std::uint64_t seed = test_seed(62);
  const Csr a = diff_matrix(seed + 5);
  const std::string path = write_container(a, "spmm");
  constexpr int k = 3;
  const auto x =
      random_vector(static_cast<std::size_t>(a.cols) * k, seed + 1);

  OpenedContainer ref = codec::open_container(path, SourceKind::kResident);
  RecodedSpmv serial(*ref.matrix);
  std::vector<double> y_ref(static_cast<std::size_t>(a.rows) * k);
  serial.multiply_batch(x, y_ref, k);

  for (const SourceKind kind : kAllKinds) {
    OpenedContainer oc = codec::open_container(path, kind);
    // Cold then cache-served: the second batch decodes nothing.
    StreamingExecutor exec = make_executor(oc, 3, SIZE_MAX);
    std::vector<double> y(y_ref.size());
    for (int rep = 0; rep < 2; ++rep) {
      exec.multiply_batch(x, y, k);
      ASSERT_EQ(0, std::memcmp(y.data(), y_ref.data(),
                               y.size() * sizeof(double)))
          << codec::source_kind_name(kind) << " rep=" << rep;
    }
  }
}

TEST(OutOfCoreDifferential, CgBitwiseAndWarmIterationsRestreamOnlyMisses) {
  // SPD 5-point Laplacian (the solver-suite construction).
  Csr a = sparse::gen_stencil2d(110, 110, sparse::ValueModel::kStencilCoeffs,
                                1);
  for (sparse::index_t r = 0; r < a.rows; ++r) {
    for (sparse::offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      a.val[p] = a.col_idx[p] == r ? 4.0 : -1.0;
    }
  }
  const std::string path = write_container(a, "cg");
  const auto b = random_vector(static_cast<std::size_t>(a.rows), 77);
  solver::CgOptions opts;
  opts.max_iters = 40;
  opts.tol = 0.0;  // fixed iteration count: identical work across runs

  OpenedContainer ref = codec::open_container(path, SourceKind::kResident);
  StreamingExecutor ref_exec = make_executor(ref, 2, SIZE_MAX);
  const auto x_ref = solver::conjugate_gradient(solver::make_operator(ref_exec),
                                                b, opts);

  for (const SourceKind kind : {SourceKind::kMmap, SourceKind::kStreamed}) {
    // Unlimited cache: after the cold iteration pins every band, warm
    // iterations must not touch storage at all.
    OpenedContainer oc = codec::open_container(path, kind);
    StreamingExecutor exec = make_executor(oc, 2, SIZE_MAX);
    const auto x = solver::conjugate_gradient(solver::make_operator(exec), b,
                                              opts);
    ASSERT_EQ(x_ref.iterations, x.iterations);
    ASSERT_EQ(0, std::memcmp(x.x.data(), x_ref.x.data(),
                             x.x.size() * sizeof(double)))
        << codec::source_kind_name(kind);

    const std::uint64_t after_solve = oc.source->stats().bytes_read;
    std::vector<double> y(static_cast<std::size_t>(a.rows));
    exec.multiply(b, y);
    const auto st = exec.last_stats();
    EXPECT_EQ(st.blocks_decoded, 0u)
        << codec::source_kind_name(kind) << ": warm run must be all hits";
    EXPECT_EQ(oc.source->stats().bytes_read, after_solve)
        << codec::source_kind_name(kind)
        << ": fully pinned warm run re-streamed storage bytes";

    // Budget 0: every iteration re-streams everything — the other end of
    // the re-stream-only-misses contract.
    OpenedContainer cold = codec::open_container(path, kind);
    StreamingExecutor cold_exec = make_executor(cold, 2, 0);
    const auto x_cold = solver::conjugate_gradient(
        solver::make_operator(cold_exec), b, opts);
    ASSERT_EQ(0, std::memcmp(x_cold.x.data(), x_ref.x.data(),
                             x_cold.x.size() * sizeof(double)))
        << codec::source_kind_name(kind) << " cache=0";
    const std::uint64_t before = cold.source->stats().bytes_read;
    cold_exec.multiply(b, y);
    EXPECT_GT(cold.source->stats().bytes_read, before)
        << codec::source_kind_name(kind)
        << ": cache-less warm run must re-stream";
  }
}

TEST(OutOfCoreDifferential, StreamedWarmSteadyStateIsAllocationFree) {
  const std::uint64_t seed = test_seed(63);
  const Csr a = diff_matrix(seed + 9);
  const std::string path = write_container(a, "alloc");
  const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 1);

  OpenedContainer oc = codec::open_container(path, SourceKind::kStreamed);
  // Cache off: every multiply re-streams through the windowed reader —
  // the steady state under test is the source's, not the cache's.
  StreamingExecutor exec = make_executor(oc, 2, 0);
  std::vector<double> y(static_cast<std::size_t>(a.rows));

  // Warm until a full multiply (both serpentine directions) allocates
  // nothing: arenas at high-water, window pool grown to the run's
  // concurrency, every window at its extent capacity.
  bool warmed = false;
  for (int iter = 0; iter < 12 && !warmed; ++iter) {
    const std::uint64_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    exec.multiply(x, y);
    exec.multiply(x, y);
    warmed =
        g_heap_allocations.load(std::memory_order_relaxed) == before;
  }
  ASSERT_TRUE(warmed) << "streamed source never reached a zero-allocation "
                         "steady state";

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 4; ++rep) exec.multiply(x, y);
  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "warmed streamed multiply allocated";
}

}  // namespace
}  // namespace recode::spmv
