// Degenerate-matrix battery (ISSUE 10): rows == 0, nnz == 0, and
// single-row matrices (including one row spanning several blocks) must
// flow through every layer without crashing or hanging — compress /
// decompress, container write + open through all three source backends,
// RecodedSpmv, the StreamingExecutor threaded and inline,
// both iterative solvers, SpGEMM, SpMSpV, and the graph drivers. Every
// numeric result is still checked against the dense reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/container_source.h"
#include "codec/container_writer.h"
#include "codec/pipeline.h"
#include "common/prng.h"
#include "solver/graph.h"
#include "solver/solver.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"
#include "spmv/spgemm.h"
#include "spmv/spmspv.h"
#include "spmv/streaming_executor.h"

namespace recode {
namespace {

using codec::OpenedContainer;
using codec::PipelineConfig;
using codec::SourceKind;
using sparse::Csr;

constexpr SourceKind kAllKinds[] = {SourceKind::kResident, SourceKind::kMmap,
                                    SourceKind::kStreamed};

// The degenerate shapes under test.
Csr empty_matrix() {
  Csr m;
  m.rows = 0;
  m.cols = 0;
  m.row_ptr = {0};
  return m;
}

Csr zero_nnz_matrix(sparse::index_t rows, sparse::index_t cols) {
  Csr m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  return m;
}

// One row whose nnz spans several 1024-nnz blocks.
Csr single_row_matrix(sparse::index_t cols, std::size_t nnz,
                      std::uint64_t seed) {
  Csr m;
  m.rows = 1;
  m.cols = cols;
  Prng prng(seed);
  nnz = std::min(nnz, static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < nnz; ++i) {
    m.col_idx.push_back(static_cast<sparse::index_t>(
        i * static_cast<std::size_t>(cols) / nnz));
    m.val.push_back(prng.next_double() * 2.0 - 1.0);
  }
  // Make columns strictly increasing (the division can repeat).
  std::vector<sparse::index_t> cols_fixed;
  std::vector<double> vals_fixed;
  sparse::index_t prev = -1;
  for (std::size_t i = 0; i < m.col_idx.size(); ++i) {
    if (m.col_idx[i] > prev) {
      cols_fixed.push_back(m.col_idx[i]);
      vals_fixed.push_back(m.val[i]);
      prev = m.col_idx[i];
    }
  }
  m.col_idx = std::move(cols_fixed);
  m.val = std::move(vals_fixed);
  m.row_ptr = {0, static_cast<sparse::offset_t>(m.col_idx.size())};
  return m;
}

std::vector<Csr> degenerate_set() {
  std::vector<Csr> set;
  set.push_back(empty_matrix());
  set.push_back(zero_nnz_matrix(1, 1));
  set.push_back(zero_nnz_matrix(500, 300));
  set.push_back(single_row_matrix(8, 4, 7));
  set.push_back(single_row_matrix(20000, 5000, 8));  // spans ~5 blocks
  return set;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

TEST(Degenerate, CompressDecompressRoundTrip) {
  for (const Csr& m : degenerate_set()) {
    SCOPED_TRACE("rows=" + std::to_string(m.rows) +
                 " nnz=" + std::to_string(m.nnz()));
    const auto cm = codec::compress(m, PipelineConfig::udp_dsh());
    EXPECT_EQ(cm.rows, m.rows);
    const Csr back = codec::decompress(cm);
    EXPECT_TRUE(sparse::equal(back, m));
  }
}

TEST(Degenerate, ContainerWriteOpenAllBackends) {
  int tag = 0;
  for (const Csr& m : degenerate_set()) {
    SCOPED_TRACE("rows=" + std::to_string(m.rows) +
                 " nnz=" + std::to_string(m.nnz()));
    const auto cm = codec::compress(m, PipelineConfig::udp_dsh());
    const std::string path = "degen_" + std::to_string(tag++) + ".rcm";
    codec::write_compressed_file(path, cm, /*with_index=*/true);
    for (const SourceKind kind : kAllKinds) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)));
      OpenedContainer oc = codec::open_container(path, kind);
      EXPECT_EQ(oc.matrix->rows, m.rows);
      EXPECT_EQ(oc.matrix->cols, m.cols);
      // A multiply through the source touches every lease path.
      spmv::RecodedSpmv engine(*oc.matrix, oc.source);
      const auto x = random_vector(static_cast<std::size_t>(m.cols), 11);
      std::vector<double> y(static_cast<std::size_t>(m.rows));
      engine.multiply(x, y);
      const auto want = sparse::spmv_reference(m, x);
      ASSERT_EQ(y.size(), want.size());
      if (!y.empty()) {
        EXPECT_EQ(std::memcmp(y.data(), want.data(),
                              y.size() * sizeof(double)),
                  0);
      }
    }
    std::remove(path.c_str());
  }
}

TEST(Degenerate, StreamingWriterRoundTrip) {
  int tag = 0;
  for (const Csr& m : degenerate_set()) {
    SCOPED_TRACE("rows=" + std::to_string(m.rows) +
                 " nnz=" + std::to_string(m.nnz()));
    const std::string path = "degen_stream_" + std::to_string(tag++) + ".rcm";
    const PipelineConfig cfg = PipelineConfig::udp_dsh();
    const auto result = codec::write_compressed_stream(
        path, m.rows, m.cols, m.row_ptr, cfg,
        [&](std::size_t, std::uint64_t first_nnz,
            std::span<sparse::index_t> idx, std::span<double> val) {
          if (idx.empty()) return;
          std::memcpy(idx.data(), m.col_idx.data() + first_nnz,
                      idx.size() * sizeof(sparse::index_t));
          std::memcpy(val.data(), m.val.data() + first_nnz,
                      val.size() * sizeof(double));
        });
    const auto cm = codec::compress(m, cfg);
    EXPECT_EQ(result.block_count, cm.blocking.block_count());
    OpenedContainer oc = codec::open_container(path, SourceKind::kResident);
    EXPECT_TRUE(sparse::equal(codec::decompress(*oc.matrix), m));
    std::remove(path.c_str());
  }
}

TEST(Degenerate, StreamingExecutorAllModes) {
  for (const Csr& m : degenerate_set()) {
    SCOPED_TRACE("rows=" + std::to_string(m.rows) +
                 " nnz=" + std::to_string(m.nnz()));
    const auto cm = codec::compress(m, PipelineConfig::udp_dsh());
    const auto x = random_vector(static_cast<std::size_t>(m.cols), 13);
    const auto want = sparse::spmv_reference(m, x);
    // Inline at 1 and 2 threads, then the threaded runner forced on.
    struct ModeCase {
      std::size_t threads;
      std::size_t inline_blocks;
    };
    const ModeCase cases[] = {{1, 16}, {2, 16}, {2, 0}};
    for (const ModeCase& mode : cases) {
      SCOPED_TRACE("threads=" + std::to_string(mode.threads) +
                   " inline_blocks=" + std::to_string(mode.inline_blocks));
      spmv::StreamingConfig cfg;
      cfg.decode_threads = mode.threads;
      cfg.compute_threads = 1;
      cfg.blocks_per_band = 2;
      cfg.fused_inline_blocks = mode.inline_blocks;
      spmv::StreamingExecutor exec(cm, cfg);
      std::vector<double> y(static_cast<std::size_t>(m.rows));
      exec.multiply(x, y);
      ASSERT_EQ(y.size(), want.size());
      if (!y.empty()) {
        EXPECT_EQ(std::memcmp(y.data(), want.data(),
                              y.size() * sizeof(double)),
                  0);
      }
    }
  }
}

TEST(Degenerate, StreamingExecutorOverEveryBackend) {
  int tag = 0;
  for (const Csr& m : degenerate_set()) {
    SCOPED_TRACE("rows=" + std::to_string(m.rows) +
                 " nnz=" + std::to_string(m.nnz()));
    const auto cm = codec::compress(m, PipelineConfig::udp_dsh());
    const std::string path =
        "degen_exec_" + std::to_string(tag++) + ".rcm";
    codec::write_compressed_file(path, cm, /*with_index=*/true);
    const auto x = random_vector(static_cast<std::size_t>(m.cols), 23);
    const auto want = sparse::spmv_reference(m, x);
    for (const SourceKind kind : kAllKinds) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)));
      OpenedContainer oc = codec::open_container(path, kind);
      spmv::StreamingConfig cfg;
      cfg.decode_threads = 2;
      cfg.compute_threads = 1;
      cfg.blocks_per_band = 2;
      spmv::StreamingExecutor exec(*oc.matrix, oc.source, cfg);
      std::vector<double> y(static_cast<std::size_t>(m.rows));
      exec.multiply(x, y);
      ASSERT_EQ(y.size(), want.size());
      if (!y.empty()) {
        EXPECT_EQ(std::memcmp(y.data(), want.data(),
                              y.size() * sizeof(double)),
                  0);
      }
    }
    std::remove(path.c_str());
  }
}

TEST(Degenerate, SolversHandleDegenerateSystems) {
  // CG with b == 0 on a zero-nnz matrix: converges to x == 0 immediately.
  {
    const Csr m = zero_nnz_matrix(40, 40);
    const auto cm = codec::compress(m, PipelineConfig::udp_dsh());
    spmv::RecodedSpmv engine(cm);
    std::vector<double> b(40, 0.0);
    const auto result =
        solver::conjugate_gradient(solver::make_operator(engine), b);
    EXPECT_TRUE(result.converged);
    for (const double v : result.x) EXPECT_EQ(v, 0.0);
  }
  // CG on an empty system (n == 0) must not crash or hang.
  {
    const Csr m = empty_matrix();
    const auto cm = codec::compress(m, PipelineConfig::udp_dsh());
    spmv::RecodedSpmv engine(cm);
    const auto result = solver::conjugate_gradient(
        solver::make_operator(engine), std::span<const double>{});
    EXPECT_TRUE(result.converged);
    EXPECT_TRUE(result.x.empty());
  }
  // Power iteration on n == 0 and on a zero matrix must terminate.
  {
    const Csr m = empty_matrix();
    const auto cm = codec::compress(m, PipelineConfig::udp_dsh());
    spmv::RecodedSpmv engine(cm);
    const auto result =
        solver::power_iteration(solver::make_operator(engine), 0);
    EXPECT_TRUE(result.eigenvector.empty());
  }
  {
    const Csr m = zero_nnz_matrix(12, 12);
    const auto cm = codec::compress(m, PipelineConfig::udp_dsh());
    spmv::RecodedSpmv engine(cm);
    solver::PowerIterationOptions opts;
    opts.max_iters = 16;
    const auto result =
        solver::power_iteration(solver::make_operator(engine), 12, opts);
    EXPECT_EQ(result.eigenvalue, 0.0);
  }
}

TEST(Degenerate, SpgemmHandlesDegenerateOperands) {
  // Empty A times empty B.
  {
    const Csr a = empty_matrix();
    const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
    const Csr c = spmv::spgemm(cm, empty_matrix());
    EXPECT_EQ(c.rows, 0);
    EXPECT_EQ(c.nnz(), 0u);
  }
  // Zero-nnz A: C is structurally empty but keeps the outer shape.
  {
    const Csr a = zero_nnz_matrix(30, 20);
    const Csr b = zero_nnz_matrix(20, 10);
    const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
    spmv::SpgemmStats stats;
    const Csr c = spmv::spgemm(cm, b, {}, &stats);
    EXPECT_EQ(c.rows, 30);
    EXPECT_EQ(c.cols, 10);
    EXPECT_EQ(c.nnz(), 0u);
    EXPECT_EQ(stats.products, 0u);
  }
  // Single-row A times its transpose: a 1x1 dot product.
  {
    const Csr a = single_row_matrix(5000, 2000, 17);
    const Csr b = sparse::transpose(a);
    const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
    const Csr c = spmv::spgemm(cm, b, {});
    ASSERT_EQ(c.rows, 1);
    ASSERT_EQ(c.cols, 1);
    ASSERT_EQ(c.nnz(), 1u);
    double dot = 0.0;
    for (const double v : a.val) dot += v * v;
    EXPECT_NEAR(c.val[0], dot, 1e-12 * a.nnz());
  }
  // Multi-threaded config on a degenerate shape must not hang.
  {
    const Csr a = single_row_matrix(20000, 5000, 19);
    const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
    spmv::SpgemmConfig cfg;
    cfg.threads = 4;
    const Csr c = spmv::spgemm(cm, sparse::transpose(a), cfg);
    EXPECT_EQ(c.nnz(), 1u);
  }
}

TEST(Degenerate, SpmspvHandlesDegenerateMatrices) {
  for (const Csr& m : degenerate_set()) {
    SCOPED_TRACE("rows=" + std::to_string(m.rows) +
                 " nnz=" + std::to_string(m.nnz()));
    const auto cm = codec::compress(m, PipelineConfig::udp_dsh());
    spmv::SpmspvEngine engine(cm);
    spmv::SparseVector x;
    if (m.cols > 0) {
      x.indices.push_back(0);
      x.values.push_back(1.0);
    }
    std::vector<double> y(static_cast<std::size_t>(m.rows));
    engine.multiply(x, y);
    std::vector<double> x_dense(static_cast<std::size_t>(m.cols), 0.0);
    if (!x_dense.empty()) x_dense[0] = 1.0;
    const auto want = sparse::spmv_reference(m, x_dense);
    ASSERT_EQ(y.size(), want.size());
    if (!y.empty()) {
      EXPECT_EQ(
          std::memcmp(y.data(), want.data(), y.size() * sizeof(double)), 0);
    }
  }
}

TEST(Degenerate, GraphDriversHandleDegenerateGraphs) {
  // BFS over a 1-vertex graph with no edges.
  {
    const Csr adj = zero_nnz_matrix(1, 1);
    const auto cm = codec::compress(sparse::transpose(adj),
                                    PipelineConfig::udp_dsh());
    spmv::SpmspvEngine engine(cm);
    const auto result = solver::bfs(engine, 0);
    EXPECT_EQ(result.level, (std::vector<sparse::index_t>{0}));
    EXPECT_EQ(result.reached, 1u);
  }
  // PageRank over an all-dangling graph: uniform ranks.
  {
    const Csr adj = zero_nnz_matrix(6, 6);
    std::vector<std::uint8_t> dangling;
    const Csr p = solver::make_pagerank_matrix(adj, &dangling);
    const auto cm = codec::compress(p, PipelineConfig::udp_dsh());
    spmv::SpmspvEngine engine(cm);
    const auto result =
        solver::pagerank(solver::make_operator(engine), dangling, {});
    EXPECT_TRUE(result.converged);
    for (const double r : result.rank) EXPECT_NEAR(r, 1.0 / 6.0, 1e-12);
  }
}

}  // namespace
}  // namespace recode
