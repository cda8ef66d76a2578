// Frontier-driven SpMSpV battery (ISSUE 10): the engine's bitwise
// contract is that for ANY sorted duplicate-free frontier, multiply()
// equals RecodedSpmv::multiply with the frontier scattered dense — block
// skipping only drops additions of exact zeros (segmented-sum accumulate
// per Liu & Vinter, arXiv 1504.06474). Asserted across sparse / full /
// empty frontiers and a contiguous column band, thread counts {1, 2, 7},
// all three container backends, and kRandom values; plus skip-ratio sanity on power-law
// matrices with small frontiers, frontier-validation rejection, and a
// global operator-new counting hook asserting that a warmed threaded
// multiply performs no heap allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"
#include "spmv/spmspv.h"

// ---------------------------------------------------------------------------
// Global allocation-counting hook (same pattern as
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
using sparse::ValueModel;

constexpr SourceKind kAllKinds[] = {SourceKind::kResident, SourceKind::kMmap,
                                    SourceKind::kStreamed};

// Random sorted duplicate-free frontier with ~frac of the columns.
SparseVector random_frontier(sparse::index_t cols, double frac,
                             std::uint64_t seed) {
  Prng prng(seed);
  SparseVector x;
  for (sparse::index_t c = 0; c < cols; ++c) {
    if (prng.next_double() < frac) {
      x.indices.push_back(c);
      x.values.push_back(prng.next_double() * 2.0 - 1.0);
    }
  }
  return x;
}

std::vector<double> scatter_dense(const SparseVector& x, sparse::index_t n) {
  std::vector<double> dense(static_cast<std::size_t>(n), 0.0);
  for (std::size_t i = 0; i < x.indices.size(); ++i) {
    dense[static_cast<std::size_t>(x.indices[i])] = x.values[i];
  }
  return dense;
}

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  if (!got.empty()) {
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
        << tag;
  }
}

TEST(Spmspv, BitwiseEqualsDenseSpmvForAnyFrontier) {
  const std::uint64_t seed = test_seed(111);
  const Csr a =
      sparse::gen_powerlaw(6000, 7.0, 0.9, ValueModel::kRandom, seed);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  RecodedSpmv dense_engine(cm);
  SpmspvEngine engine(cm);

  std::vector<double> y(static_cast<std::size_t>(a.rows));
  std::vector<double> y_ref(y.size());
  for (const double frac : {0.0, 0.001, 0.02, 0.3, 1.0}) {
    SparseVector x;
    if (frac == 1.0) {
      // Full frontier including exact zeros is not representable (sparse
      // vectors store nonzeros); use an all-columns frontier instead.
      Prng prng(seed + 7);
      for (sparse::index_t c = 0; c < a.cols; ++c) {
        x.indices.push_back(c);
        x.values.push_back(prng.next_double() * 2.0 - 1.0);
      }
    } else {
      x = random_frontier(a.cols, frac, seed + static_cast<std::uint64_t>(
                                                   frac * 1000.0));
    }
    const auto x_dense = scatter_dense(x, a.cols);
    dense_engine.multiply(x_dense, y_ref);
    engine.multiply(x, y);
    expect_bitwise(y, y_ref, ("frac " + std::to_string(frac)).c_str());
    EXPECT_EQ(engine.last_stats().frontier_nnz, x.nnz());
  }
}

TEST(Spmspv, BitwiseAcrossThreadsAndBackends) {
  const std::uint64_t seed = test_seed(112);
  const Csr a =
      sparse::gen_fem_like(9000, 8, 200, ValueModel::kSmoothField, seed);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const std::string path = "spmspv_diff.rcm";
  codec::write_compressed_file(path, cm, /*with_index=*/true);

  // A scattered 5% frontier, and a contiguous column band that needs only
  // a few blocks — so most bands are only partly needed and their
  // out-of-core leases must cover just the needed runs.
  SparseVector banded;
  {
    Prng prng(seed + 2);
    for (sparse::index_t c = 3000; c < 3300; ++c) {
      banded.indices.push_back(c);
      banded.values.push_back(prng.next_double() * 2.0 - 1.0);
    }
  }
  const SparseVector frontiers[] = {random_frontier(a.cols, 0.05, seed + 1),
                                    banded};
  const SparseVector& banded_x = frontiers[1];

  for (const SparseVector& x : frontiers) {
    std::vector<double> y_ref(static_cast<std::size_t>(a.rows));
    {
      SpmspvEngine serial(cm);
      serial.multiply(x, y_ref);
    }
    for (const SourceKind kind : kAllKinds) {
      for (const std::size_t threads : {1u, 2u, 7u}) {
        OpenedContainer oc = codec::open_container(path, kind);
        SpmspvConfig cfg;
        cfg.threads = threads;
        cfg.blocks_per_band = 4;
        SpmspvEngine engine(*oc.matrix, oc.source, cfg);
        std::vector<double> y(y_ref.size());
        // Two applies back to back: the second runs with warm scatter
        // buffers and must produce the same bits.
        engine.multiply(x, y);
        const std::string tag =
            "frontier_nnz=" + std::to_string(x.nnz()) +
            " kind=" + std::to_string(static_cast<int>(kind)) +
            " threads=" + std::to_string(threads);
        expect_bitwise(y, y_ref, tag.c_str());
        engine.multiply(x, y);
        expect_bitwise(y, y_ref, (tag + " warm").c_str());
        if (&x == &banded_x) {
          EXPECT_GT(engine.last_stats().blocks_skipped, 0u) << tag;
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Spmspv, SkipsBlocksOutsideSmallFrontier) {
  const std::uint64_t seed = test_seed(113);
  // Banded structure: block column spans are narrow, so a tiny frontier
  // must leave most blocks untouched.
  const Csr a = sparse::gen_banded(20000, 5, 0.7, ValueModel::kUnit, seed);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  SpmspvEngine engine(cm);

  SparseVector x;
  x.indices = {100, 101, 102};
  x.values = {1.0, 1.0, 1.0};
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  engine.multiply(x, y);

  const SpmspvStats& stats = engine.last_stats();
  EXPECT_EQ(stats.blocks_total, cm.blocking.block_count());
  EXPECT_GT(stats.blocks_skipped, 0u);
  EXPECT_GT(stats.skip_ratio(), 0.5);
  EXPECT_EQ(stats.blocks_decoded + stats.blocks_skipped, stats.blocks_total);

  // Correctness of the skipped multiply.
  RecodedSpmv dense_engine(cm);
  std::vector<double> y_ref(y.size());
  const auto x_dense = scatter_dense(x, a.cols);
  dense_engine.multiply(x_dense, y_ref);
  expect_bitwise(y, y_ref, "banded skip");
}

TEST(Spmspv, PowerLawFrontierSkipRatioReported) {
  const std::uint64_t seed = test_seed(114);
  const Csr a = sparse::gen_powerlaw(30000, 6.0, 1.0, ValueModel::kUnit, seed);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  SpmspvEngine engine(cm);

  const SparseVector x = random_frontier(a.cols, 0.0005, seed + 1);
  ASSERT_GT(x.nnz(), 0u);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  engine.multiply(x, y);
  const SpmspvStats& stats = engine.last_stats();
  EXPECT_EQ(stats.blocks_total, cm.blocking.block_count());
  EXPECT_GE(stats.skip_ratio(), 0.0);
  EXPECT_LE(stats.skip_ratio(), 1.0);
  // Counters stay consistent even when the signature filter can't skip.
  EXPECT_EQ(stats.blocks_decoded + stats.blocks_skipped, stats.blocks_total);
}

TEST(Spmspv, EmptyFrontierSkipsEverything) {
  const std::uint64_t seed = test_seed(115);
  const Csr a = sparse::gen_banded(5000, 4, 0.8, ValueModel::kRandom, seed);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  SpmspvEngine engine(cm);
  SparseVector x;
  std::vector<double> y(static_cast<std::size_t>(a.rows), 123.0);
  engine.multiply(x, y);
  for (const double v : y) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(engine.last_stats().blocks_decoded, 0u);
  EXPECT_EQ(engine.last_stats().blocks_skipped,
            engine.last_stats().blocks_total);
  EXPECT_EQ(engine.last_stats().skip_ratio(), 1.0);
}

TEST(Spmspv, WarmThreadedMultiplyIsAllocationFree) {
  const std::uint64_t seed = test_seed(117);
  const Csr a =
      sparse::gen_fem_like(9000, 8, 200, ValueModel::kSmoothField, seed);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  SpmspvConfig cfg;
  cfg.threads = 3;
  SpmspvEngine engine(cm, cfg);
  const SparseVector x = random_frontier(a.cols, 0.05, seed + 1);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  std::vector<double> y_warm(y.size());
  engine.multiply(x, y);  // warm-up: scatter buffers, arenas, team

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  engine.multiply(x, y_warm);
  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "warmed multiply allocated";
  EXPECT_GT(engine.last_stats().blocks_decoded, 0u);
  expect_bitwise(y_warm, y, "warm multiply");
}

TEST(Spmspv, RejectsMalformedFrontiers) {
  const std::uint64_t seed = test_seed(116);
  const Csr a = sparse::gen_banded(1000, 4, 0.8, ValueModel::kRandom, seed);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  SpmspvEngine engine(cm);
  std::vector<double> y(static_cast<std::size_t>(a.rows));

  SparseVector unsorted;
  unsorted.indices = {5, 3};
  unsorted.values = {1.0, 1.0};
  EXPECT_THROW(engine.multiply(unsorted, y), recode::Error);

  SparseVector duplicate;
  duplicate.indices = {3, 3};
  duplicate.values = {1.0, 1.0};
  EXPECT_THROW(engine.multiply(duplicate, y), recode::Error);

  SparseVector out_of_range;
  out_of_range.indices = {a.cols};
  out_of_range.values = {1.0};
  EXPECT_THROW(engine.multiply(out_of_range, y), recode::Error);

  SparseVector mismatched;
  mismatched.indices = {1, 2};
  mismatched.values = {1.0};
  EXPECT_THROW(engine.multiply(mismatched, y), recode::Error);

  // A failed validation must leave the engine usable: a good multiply
  // afterwards still matches the dense engine.
  const SparseVector good = random_frontier(a.cols, 0.1, seed + 1);
  engine.multiply(good, y);
  RecodedSpmv dense_engine(cm);
  std::vector<double> y_ref(y.size());
  const auto x_dense = scatter_dense(good, a.cols);
  dense_engine.multiply(x_dense, y_ref);
  expect_bitwise(y, y_ref, "post-rejection multiply");
}

}  // namespace
}  // namespace recode::spmv
