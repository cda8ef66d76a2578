// Compressed-domain SpGEMM battery: the Gustavson kernel over decoded
// A-block streams must (a) match a reference dense-accumulator multiply
// bit for bit on a 20+ matrix generator sweep and on an input that sends
// rows through both emit orders (bitmap walk and sorted touched list),
// (b) stay bitwise identical serial vs parallel across {1, 2, 7} threads
// × all three container backends, (c) round-trip through
// spgemm_to_container byte-identically to the in-memory compress path,
// and (d) stay bitwise at every cut of the task planner: rows crossing
// every cut, a row spanning 3+ tasks, empty rows beside cuts, and seams
// in the first and last rows. Runs under the tsan preset via the
// `concurrency` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"
#include "spmv/spgemm.h"

namespace recode::spmv {
namespace {

using codec::OpenedContainer;
using codec::PipelineConfig;
using codec::SourceKind;
using sparse::Csr;
using sparse::ValueModel;

constexpr SourceKind kAllKinds[] = {SourceKind::kResident, SourceKind::kMmap,
                                    SourceKind::kStreamed};

// Reference C = A * B: plain Gustavson with a dense accumulator, products
// scatter-added in A-row entry order, touched columns emitted sorted.
// This is the FP sequence both emit orders must reproduce exactly.
Csr spgemm_reference(const Csr& a, const Csr& b) {
  RECODE_CHECK(a.cols == b.rows);
  Csr c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr.assign(static_cast<std::size_t>(a.rows) + 1, 0);
  std::vector<double> acc(static_cast<std::size_t>(b.cols), 0.0);
  std::vector<std::uint32_t> stamp(static_cast<std::size_t>(b.cols), 0);
  std::vector<sparse::index_t> touched;
  std::uint32_t cur = 0;
  for (sparse::index_t i = 0; i < a.rows; ++i) {
    ++cur;
    touched.clear();
    for (auto k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const auto col = static_cast<std::size_t>(a.col_idx[k]);
      const double av = a.val[k];
      for (auto j = b.row_ptr[col]; j < b.row_ptr[col + 1]; ++j) {
        const auto cj = static_cast<std::size_t>(b.col_idx[j]);
        const double prod = av * b.val[j];
        if (stamp[cj] != cur) {
          stamp[cj] = cur;
          acc[cj] = prod;
          touched.push_back(b.col_idx[j]);
        } else {
          acc[cj] += prod;
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const sparse::index_t cj : touched) {
      c.col_idx.push_back(cj);
      c.val.push_back(acc[static_cast<std::size_t>(cj)]);
    }
    c.row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<sparse::offset_t>(c.col_idx.size());
  }
  return c;
}

void expect_bitwise_equal(const Csr& got, const Csr& want, const char* tag) {
  ASSERT_EQ(got.rows, want.rows) << tag;
  ASSERT_EQ(got.cols, want.cols) << tag;
  ASSERT_EQ(got.row_ptr, want.row_ptr) << tag;
  ASSERT_EQ(got.col_idx, want.col_idx) << tag;
  ASSERT_EQ(got.val.size(), want.val.size()) << tag;
  if (!got.val.empty()) {
    EXPECT_EQ(std::memcmp(got.val.data(), want.val.data(),
                          got.val.size() * sizeof(double)),
              0)
        << tag;
  }
}

// Generator sweep: 20+ matrices spanning every structure class the repo
// models, paired with a compatible B (square matrices self-multiply;
// random ones multiply a second generator draw).
std::vector<std::pair<Csr, Csr>> sweep_pairs(std::uint64_t seed) {
  std::vector<std::pair<Csr, Csr>> pairs;
  auto self = [&pairs](Csr m) {
    Csr b = m;
    pairs.emplace_back(std::move(m), std::move(b));
  };
  int s = 0;
  for (const ValueModel vm :
       {ValueModel::kStencilCoeffs, ValueModel::kRandom, ValueModel::kUnit}) {
    self(sparse::gen_stencil2d(40 + 3 * s, 35, vm, seed + s));
    self(sparse::gen_banded(1200 + 100 * s, 6, 0.6, vm, seed + 10 + s));
    self(sparse::gen_fem_like(900 + 50 * s, 7, 120, vm, seed + 20 + s));
    self(sparse::gen_powerlaw(1000 + 100 * s, 6.0, 0.8, vm, seed + 30 + s));
    ++s;
  }
  // Rectangular chains: A (n x m) * B (m x k) from transposed draws.
  for (int i = 0; i < 8; ++i) {
    Csr a = sparse::gen_powerlaw(600 + 40 * i, 5.0, 0.7 + 0.05 * i,
                                 ValueModel::kRandom, seed + 100 + i);
    Csr b = sparse::transpose(
        sparse::gen_fem_like(a.cols, 6, 90, ValueModel::kSmoothField,
                             seed + 200 + i));
    // transpose(fem) has fem.rows == a.cols rows, as required.
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

TEST(Spgemm, MatchesDenseAccumulatorReferenceAcrossGeneratorSweep) {
  const std::uint64_t seed = test_seed(101);
  const auto pairs = sweep_pairs(seed);
  ASSERT_GE(pairs.size(), 20u);
  std::size_t idx = 0;
  for (const auto& [a, b] : pairs) {
    const Csr want = spgemm_reference(a, b);
    const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
    SpgemmStats stats;
    const Csr got = spgemm(cm, b, {}, &stats);
    expect_bitwise_equal(got, want,
                         ("sweep pair " + std::to_string(idx)).c_str());
    EXPECT_EQ(stats.a_blocks_decoded, cm.blocking.block_count());
    ++idx;
  }
}

// A and B (n x n) for the emit-order test. B: 7-wide mesh band rows in
// the top half; power-law (Chung-Lu) rows in the bottom half, every 5th
// of them empty, and row n/2 + 1 exactly {0, n - 1}. A: 5-wide mesh band
// rows in the top half (bitmap emits); power-law rows in the bottom half
// (a few columns far apart: sorted emits, hubs: bitmap emits), with
// every 7th row empty, every 7th + 1 selecting only empty B rows, and
// row n - 1 selecting B row n/2 + 1 alone.
std::pair<Csr, Csr> emit_order_pair(sparse::index_t n, std::uint64_t seed) {
  const Csr hubs = sparse::gen_powerlaw(n, 3.0, 0.9, ValueModel::kRandom,
                                        seed);
  Prng prng(seed + 1);
  sparse::Coo a, b;
  a.rows = a.cols = b.rows = b.cols = n;
  const auto band = [&prng, n](sparse::Coo& m, sparse::index_t r, int half) {
    for (sparse::index_t c = std::max(0, r - half);
         c <= std::min(n - 1, r + half); ++c) {
      m.add(r, c, prng.next_double() * 2.0 - 1.0);
    }
  };
  const auto copy_hub_row = [&hubs](sparse::Coo& m, sparse::index_t r) {
    for (auto k = hubs.row_ptr[r]; k < hubs.row_ptr[r + 1]; ++k) {
      m.add(r, hubs.col_idx[k], hubs.val[k]);
    }
  };
  const sparse::index_t mid = n / 2;
  const sparse::index_t empty0 = (mid + 4) / 5 * 5;  // B rows empty0 + 5k
  for (sparse::index_t r = 0; r < n; ++r) {
    if (r < mid) {
      band(b, r, 3);
      band(a, r, 2);
      continue;
    }
    if (r == mid + 1) {
      b.add(r, 0, 0.5);
      b.add(r, n - 1, -1.25);
    } else if (r % 5 != 0) {
      copy_hub_row(b, r);
    }
    if (r == n - 1) {
      a.add(r, mid + 1, 3.0);
    } else if (r % 7 == 1) {
      a.add(r, empty0 + 5 * (r % 100), 1.5);
      a.add(r, empty0 + 5 * (r % 100 + 1), -2.0);
    } else if (r % 7 != 0) {
      copy_hub_row(a, r);
    }
  }
  return {sparse::coo_to_csr(a), sparse::coo_to_csr(b)};
}

TEST(Spgemm, EmitOrderNeverChangesBits) {
  // n % 64 != 0, so the last bitmap word is partial.
  constexpr sparse::index_t n = 20037;
  const auto [a, b] = emit_order_pair(n, test_seed(102));
  ASSERT_NE(b.cols % 64, 0);
  const Csr want = spgemm_reference(a, b);
  // The construction holds: columns 0 and n - 1 are emitted, and some
  // non-empty A rows produce empty C rows.
  ASSERT_NE(std::find(want.col_idx.begin(), want.col_idx.end(), 0),
            want.col_idx.end());
  ASSERT_NE(std::find(want.col_idx.begin(), want.col_idx.end(), n - 1),
            want.col_idx.end());
  std::size_t empty_a_rows = 0, empty_products_rows = 0;
  for (sparse::index_t r = 0; r < n; ++r) {
    if (a.row_ptr[r] == a.row_ptr[r + 1]) {
      ++empty_a_rows;
    } else if (want.row_ptr[r] == want.row_ptr[r + 1]) {
      ++empty_products_rows;
    }
  }
  EXPECT_GT(empty_a_rows, 0u);
  EXPECT_GT(empty_products_rows, 0u);

  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  for (const std::size_t threads : {1u, 3u}) {
    SpgemmConfig cfg;
    cfg.threads = threads;
    SpgemmStats stats;
    const Csr got = spgemm(cm, b, cfg, &stats);
    const std::string tag = "threads=" + std::to_string(threads);
    expect_bitwise_equal(got, want, tag.c_str());
    EXPECT_GT(stats.rows_dense, 0u) << tag << ": no bitmap-walk rows";
    EXPECT_GT(stats.rows_merge, 0u) << tag << ": no sorted-list rows";
    EXPECT_EQ(stats.rows_dense + stats.rows_merge,
              static_cast<std::uint64_t>(n) - empty_a_rows -
                  empty_products_rows)
        << tag;
  }
}

TEST(Spgemm, BitwiseSerialVsParallelAcrossThreadsAndBackends) {
  const std::uint64_t seed = test_seed(103);
  const Csr a =
      sparse::gen_fem_like(9000, 9, 250, ValueModel::kSmoothField, seed);
  const Csr b = sparse::gen_powerlaw(9000, 6.0, 0.8, ValueModel::kRandom,
                                     seed + 1);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const std::string path = "spgemm_diff.rcm";
  codec::write_compressed_file(path, cm, /*with_index=*/true);

  const Csr want = spgemm(cm, b);  // serial resident reference

  for (const SourceKind kind : kAllKinds) {
    for (const std::size_t threads : {1u, 2u, 7u}) {
      OpenedContainer oc = codec::open_container(path, kind);
      SpgemmConfig cfg;
      cfg.threads = threads;
      cfg.blocks_per_band = 4;
      SpgemmStats stats;
      const Csr got = spgemm(*oc.matrix, oc.source, b, cfg, &stats);
      const std::string tag = "kind=" + std::to_string(static_cast<int>(kind)) +
                              " threads=" + std::to_string(threads);
      expect_bitwise_equal(got, want, tag.c_str());
      EXPECT_GT(stats.tasks, 1u) << tag;
      if (threads > 1) {
        EXPECT_GT(stats.workers, 1u) << tag;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Spgemm, ContainerOutputMatchesCompressOfResult) {
  const std::uint64_t seed = test_seed(104);
  const Csr a = sparse::gen_banded(4000, 8, 0.7, ValueModel::kFewDistinct,
                                   seed);
  const Csr b = sparse::gen_banded(4000, 8, 0.7, ValueModel::kFewDistinct,
                                   seed + 1);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const Csr c = spgemm(cm, b);

  const PipelineConfig out_cfg = PipelineConfig::udp_dsh();
  const std::string path = "spgemm_out.rcm";
  SpgemmConfig cfg;
  cfg.threads = 2;
  const auto result = spgemm_to_container(path, cm, nullptr, b, out_cfg, cfg);
  EXPECT_GT(result.block_count, 0u);
  EXPECT_GT(result.file_bytes, result.payload_bytes);

  // Read back through every backend: the container's C must reproduce the
  // in-memory C. Resident decodes the whole matrix; the out-of-core kinds
  // (header-only cm) are checked through a bitwise SpMV — both sides add
  // products in stream order, so the bits must agree exactly.
  Prng prng(seed + 2);
  std::vector<double> x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = prng.next_double() * 2.0 - 1.0;
  const auto y_want = sparse::spmv_reference(c, x);
  for (const SourceKind kind : kAllKinds) {
    OpenedContainer oc = codec::open_container(path, kind);
    ASSERT_EQ(oc.matrix->rows, c.rows);
    ASSERT_EQ(oc.matrix->cols, c.cols);
    if (kind == SourceKind::kResident) {
      const Csr back = codec::decompress(*oc.matrix);
      expect_bitwise_equal(back, c, "container round-trip");
    }
    RecodedSpmv engine(*oc.matrix, oc.source);
    std::vector<double> y(y_want.size());
    engine.multiply(x, y);
    EXPECT_EQ(
        std::memcmp(y.data(), y_want.data(), y.size() * sizeof(double)), 0)
        << "kind " << static_cast<int>(kind);
  }
  std::remove(path.c_str());
}

// A matrix from its row lengths: each row's columns are distinct, drawn
// from [0, cols), sorted; values uniform in [-1, 1).
Csr rows_of_lengths(const std::vector<std::size_t>& lengths,
                    sparse::index_t cols, std::uint64_t seed) {
  Prng prng(seed);
  Csr m;
  m.rows = static_cast<sparse::index_t>(lengths.size());
  m.cols = cols;
  m.row_ptr.push_back(0);
  std::vector<sparse::index_t> pool(static_cast<std::size_t>(cols));
  for (const std::size_t len : lengths) {
    RECODE_CHECK(len <= pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool[i] = static_cast<sparse::index_t>(i);
    }
    for (std::size_t i = 0; i < len; ++i) {  // partial Fisher-Yates
      std::swap(pool[i], pool[i + prng.next_below(pool.size() - i)]);
    }
    std::sort(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(len));
    for (std::size_t i = 0; i < len; ++i) {
      m.col_idx.push_back(pool[i]);
      m.val.push_back(prng.next_double() * 2.0 - 1.0);
    }
    m.row_ptr.push_back(static_cast<sparse::offset_t>(m.col_idx.size()));
  }
  return m;
}

constexpr std::size_t kSeamBlock = 64;  // nnz per block of the seam tests

// Row lengths that put a seam in the first and the last row, a row of
// more than six blocks in the middle, a seam row and a row-aligned cut
// with empty rows on both sides, and random rows (a quarter empty)
// around them.
std::vector<std::size_t> seam_lengths(std::uint64_t seed) {
  Prng prng(seed);
  std::vector<std::size_t> len{3 * kSeamBlock + 17};  // row 0: 4 blocks
  std::size_t nnz = len.back();
  const auto add = [&](std::size_t n) {
    len.push_back(n);
    nnz += n;
  };
  const auto random_rows = [&](int n) {
    for (int i = 0; i < n; ++i) {
      add(prng.next_below(4) == 0 ? 0 : 1 + prng.next_below(120));
    }
  };
  random_rows(30);
  add(6 * kSeamBlock + 40);  // spans 3+ two-block tasks from mid-block
  random_rows(30);
  // Close the block exactly, then empty rows on both sides of the cut.
  add(0);
  add(0);
  add(kSeamBlock - nnz % kSeamBlock);
  add(0);
  add(0);
  add(kSeamBlock / 2);
  // A seam row (longer than a block, so it crosses a cut) between
  // empty rows.
  add(0);
  add(0);
  add(kSeamBlock + 9);
  add(0);
  add(0);
  random_rows(30);
  // The last row crosses the last cut: it starts mid-block.
  if (nnz % kSeamBlock == 0) add(5);
  add(kSeamBlock + 3);
  return len;
}

TEST(Spgemm, PlannerCutsAtAnyBlockIntoNearEqualRanges) {
  for (const std::size_t blocks : {0u, 1u, 2u, 5u, 32u, 52u, 100u, 813u}) {
    for (const std::size_t per_band : {0u, 1u, 2u, 8u, 64u}) {
      for (const std::size_t workers : {1u, 2u, 3u, 7u}) {
        const std::string tag = "blocks=" + std::to_string(blocks) +
                                " per_band=" + std::to_string(per_band) +
                                " workers=" + std::to_string(workers);
        const auto runs = plan_spgemm_tasks(blocks, per_band, workers);
        if (blocks == 0) {
          EXPECT_TRUE(runs.empty()) << tag;
          continue;
        }
        EXPECT_GE(runs.size(), std::min(blocks, 4 * workers)) << tag;
        std::size_t next = 0, lo = blocks, hi = 0;
        for (const BlockRun& r : runs) {
          EXPECT_EQ(r.first, next) << tag;  // contiguous, in order
          EXPECT_GE(r.count, 1u) << tag;
          EXPECT_LE(r.count, std::max<std::size_t>(1, per_band)) << tag;
          next = r.first + r.count;
          lo = std::min(lo, r.count);
          hi = std::max(hi, r.count);
        }
        EXPECT_EQ(next, blocks) << tag;  // covers every block once
        EXPECT_LE(hi - lo, 1u) << tag;
      }
    }
  }
  // spgemm-write's A: 32 blocks at 3 workers is 12 tasks, not 4.
  EXPECT_EQ(plan_spgemm_tasks(32, 8, 3).size(), 12u);
}

TEST(Spgemm, SeamRowsAreBitwiseAtEveryCut) {
  const std::uint64_t seed = test_seed(106);
  constexpr sparse::index_t kInner = 640;  // A's cols == B's rows
  // B: ~8 entries per row, every 9th row empty.
  std::vector<std::size_t> b_len;
  Prng prng(seed);
  for (sparse::index_t r = 0; r < kInner; ++r) {
    b_len.push_back(r % 9 == 0 ? 0 : 1 + prng.next_below(16));
  }
  const Csr b = rows_of_lengths(b_len, 500, seed + 1);
  // "mixed": the seam_lengths() layout. "straddle": rows of 97 nnz, so
  // every cut (a multiple of 64 below lcm(64, 97)) falls inside a row.
  const std::vector<std::pair<std::string, Csr>> mats{
      {"mixed", rows_of_lengths(seam_lengths(seed + 2), kInner, seed + 3)},
      {"straddle", rows_of_lengths(std::vector<std::size_t>(60, 97), kInner,
                                   seed + 4)}};

  PipelineConfig cfg = PipelineConfig::udp_dsh();
  cfg.nnz_per_block = kSeamBlock;
  for (const auto& [name, a] : mats) {
    const auto cm = codec::compress(a, cfg);
    const auto& blocks = cm.blocking.blocks;
    const auto crosses = [&](std::size_t k) {  // the cut after block k
      return blocks[k].last_row == blocks[k + 1].first_row;
    };
    const auto row_len = [&](sparse::index_t r) {
      return static_cast<std::size_t>(a.row_ptr[r + 1] - a.row_ptr[r]);
    };
    // The layouts hold what the test claims.
    ASSERT_GT(blocks.size(), 20u) << name;
    ASSERT_TRUE(crosses(0) && blocks[0].last_row == 0) << name;
    ASSERT_TRUE(crosses(blocks.size() - 2) &&
                blocks.back().first_row == a.rows - 1)
        << name;
    if (name == "straddle") {
      for (std::size_t k = 0; k + 1 < blocks.size(); ++k) {
        ASSERT_TRUE(crosses(k)) << name << " cut " << k;
      }
    } else {
      bool long_row = false, empty_seam = false, empty_cut = false;
      for (sparse::index_t r = 1; r + 1 < a.rows; ++r) {
        long_row |= row_len(r) > 3 * kSeamBlock;
      }
      for (std::size_t k = 0; k + 1 < blocks.size(); ++k) {
        const sparse::index_t r = blocks[k].last_row;
        empty_seam |= r > 0 && crosses(k) && row_len(r - 1) == 0 &&
                      row_len(r + 1) == 0;
        empty_cut |= blocks[k + 1].first_row > r + 2;
      }
      ASSERT_TRUE(long_row && empty_seam && empty_cut) << name;
    }

    const Csr want = spgemm_reference(a, b);
    const PipelineConfig out_cfg = cfg;  // small C blocks: many windows
    std::string want_bytes;
    {
      std::ostringstream os;
      codec::write_compressed(os, codec::compress(want, out_cfg), true);
      want_bytes = os.str();
    }
    const std::string a_path = "spgemm_seam_" + name + ".rcm";
    const std::string c_path = "spgemm_seam_" + name + "_c.rcm";
    codec::write_compressed_file(a_path, cm, /*with_index=*/true);
    for (const std::size_t per_band : {1u, 2u}) {
      for (const SourceKind kind : kAllKinds) {
        SpgemmStats serial;
        for (const std::size_t threads : {1u, 2u, 3u, 7u}) {
          const std::string tag =
              name + " per_band=" + std::to_string(per_band) + " kind=" +
              std::to_string(static_cast<int>(kind)) +
              " threads=" + std::to_string(threads);
          // Some task of "mixed" holds only a middle piece of one row.
          bool middle = name != "mixed";
          for (const BlockRun& r :
               plan_spgemm_tasks(blocks.size(), per_band, threads)) {
            const std::size_t last = r.first + r.count - 1;
            middle |= r.first > 0 && crosses(r.first - 1) &&
                      last + 1 < blocks.size() && crosses(last) &&
                      blocks[r.first].first_row == blocks[last].last_row;
          }
          EXPECT_TRUE(middle) << tag;
          SpgemmConfig scfg;
          scfg.threads = threads;
          scfg.blocks_per_band = per_band;
          SpgemmStats stats;
          {
            OpenedContainer oc = codec::open_container(a_path, kind);
            expect_bitwise_equal(spgemm(*oc.matrix, oc.source, b, scfg, &stats),
                                 want, tag.c_str());
          }
          {
            OpenedContainer oc = codec::open_container(a_path, kind);
            spgemm_to_container(c_path, *oc.matrix, oc.source, b, out_cfg,
                                scfg);
          }
          std::ifstream in(c_path, std::ios::binary);
          EXPECT_TRUE(std::string(std::istreambuf_iterator<char>(in), {}) ==
                      want_bytes)
              << tag << ": container bytes";
          if (threads == 1) serial = stats;
          EXPECT_EQ(stats.products, serial.products) << tag;
          EXPECT_EQ(stats.rows_dense, serial.rows_dense) << tag;
          EXPECT_EQ(stats.rows_merge, serial.rows_merge) << tag;
          EXPECT_GE(stats.tasks, blocks.size() / per_band) << tag;
        }
      }
    }
    std::remove(a_path.c_str());
    std::remove(c_path.c_str());
  }
}

TEST(Spgemm, RejectsDimensionMismatch) {
  const std::uint64_t seed = test_seed(105);
  const Csr a = sparse::gen_banded(200, 3, 0.8, ValueModel::kUnit, seed);
  Csr b = sparse::gen_banded(199, 3, 0.8, ValueModel::kUnit, seed + 1);
  const auto cm = codec::compress(a, PipelineConfig::udp_ds());
  EXPECT_THROW(spgemm(cm, b), recode::Error);
}

}  // namespace
}  // namespace recode::spmv
