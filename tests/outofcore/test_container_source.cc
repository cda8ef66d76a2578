// Out-of-core container sources (ISSUE 9): the block-offset index
// (footer-backed and reconstructed), the streaming writer's bitwise
// equivalence with compress() + write_compressed(), backend parity at
// the compressed-span level, the window-budget bound, and the hostile-
// input battery — index entries past EOF, overlapping/reordered
// extents, mid-band truncation, and a CorruptionEngine sweep over the
// windowed reader. Every failure must surface as recode::Error (with
// the file path in the message), never as UB or over-allocation beyond
// the window budget. Runs under the sanitize preset via the
// `robustness` and `outofcore` ctest labels.
#include "codec/container_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/container_writer.h"
#include "codec/pipeline.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"
#include "spmv/streaming_executor.h"
#include "testing/corrupt.h"

namespace recode::codec {
namespace {

using sparse::Csr;

// Unique-per-test scratch path in the ctest working directory (.rcm is
// gitignored). Files are small; leftovers are harmless.
std::string temp_path(const char* tag) {
  return std::string("outofcore_") + tag + ".rcm";
}

Csr test_matrix(std::uint64_t seed) {
  return sparse::gen_fem_like(4000, 9, 200, sparse::ValueModel::kSmoothField,
                              seed);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Decodes every block of an opened container through its source and the
// serial engine; returns y = A*x for a deterministic x.
std::vector<double> spmv_through(const OpenedContainer& oc) {
  spmv::RecodedSpmv engine(*oc.matrix, oc.source);
  Prng prng(7);
  std::vector<double> x(static_cast<std::size_t>(oc.matrix->cols));
  for (auto& v : x) v = prng.next_double() * 2.0 - 1.0;
  std::vector<double> y(static_cast<std::size_t>(oc.matrix->rows));
  engine.multiply(x, y);
  return y;
}

TEST(ContainerIndex, FooterAndScanAgree) {
  const Csr a = test_matrix(test_seed(91));
  const auto cm = compress(a, PipelineConfig::udp_dsh());
  const std::string with = temp_path("footer");
  const std::string without = temp_path("nofooter");
  write_compressed_file(with, cm, /*with_index=*/true);
  write_compressed_file(without, cm, /*with_index=*/false);

  const ContainerLayout lf = read_container_layout_file(with);
  const ContainerLayout ls = read_container_layout_file(without);
  EXPECT_TRUE(lf.index.from_footer);
  EXPECT_FALSE(ls.index.from_footer);
  ASSERT_EQ(lf.index.block_count(), cm.blocks.size());
  ASSERT_EQ(ls.index.block_count(), cm.blocks.size());
  EXPECT_EQ(lf.index.offsets, ls.index.offsets);
  EXPECT_EQ(lf.index.codec_ids, ls.index.codec_ids);
  // The indexed file is the plain container + index section + footer.
  EXPECT_EQ(lf.index.offsets.back(), ls.file_size);
  // Trailing-bytes compatibility: the historical reader still loads the
  // indexed file bitwise.
  const CompressedMatrix reread = read_compressed_file(with);
  ASSERT_EQ(reread.blocks.size(), cm.blocks.size());
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    EXPECT_EQ(reread.blocks[b].index_data, cm.blocks[b].index_data);
    EXPECT_EQ(reread.blocks[b].value_data, cm.blocks[b].value_data);
  }
}

TEST(ContainerIndex, StreamingWriterMatchesCompressBitwise) {
  const Csr a = test_matrix(test_seed(92));
  const auto cfg = PipelineConfig::udp_dsh();
  const auto cm = compress(a, cfg);
  const std::string whole = temp_path("whole");
  const std::string streamed = temp_path("streamwr");
  write_compressed_file(whole, cm, /*with_index=*/true);

  const StreamWriteResult res = write_compressed_stream(
      streamed, a.rows, a.cols, a.row_ptr, cfg,
      [&](std::size_t, std::uint64_t first_nnz,
          std::span<sparse::index_t> idx, std::span<double> val) {
        for (std::size_t i = 0; i < idx.size(); ++i) {
          idx[i] = a.col_idx[static_cast<std::size_t>(first_nnz) + i];
          val[i] = a.val[static_cast<std::size_t>(first_nnz) + i];
        }
      });
  EXPECT_EQ(res.block_count, cm.blocks.size());
  EXPECT_EQ(read_file(streamed), read_file(whole))
      << "streamed write must replay compress() bit-for-bit";
}

TEST(ContainerSource, BackendsServeIdenticalCompressedSpans) {
  const Csr a = test_matrix(test_seed(93));
  const auto cm = compress(a, PipelineConfig::udp_dsh());
  const std::string path = temp_path("parity");
  write_compressed_file(path, cm, /*with_index=*/true);

  for (const SourceKind kind :
       {SourceKind::kResident, SourceKind::kMmap, SourceKind::kStreamed}) {
    OpenedContainer oc = open_container(path, kind);
    EXPECT_EQ(oc.kind, kind);
    const std::size_t n = oc.matrix->blocking.blocks.size();
    ASSERT_EQ(n, cm.blocks.size()) << source_kind_name(kind);
    for (std::size_t b = 0; b < n; ++b) {
      oc.source->acquire(b, 1);
      const SourceBlockBytes sb = oc.source->block(b);
      ASSERT_EQ(sb.index_data.size(), cm.blocks[b].index_data.size());
      ASSERT_EQ(sb.value_data.size(), cm.blocks[b].value_data.size());
      EXPECT_TRUE(std::equal(sb.index_data.begin(), sb.index_data.end(),
                             cm.blocks[b].index_data.begin()))
          << source_kind_name(kind) << " block " << b;
      EXPECT_TRUE(std::equal(sb.value_data.begin(), sb.value_data.end(),
                             cm.blocks[b].value_data.begin()))
          << source_kind_name(kind) << " block " << b;
      oc.source->release(b, 1);
    }
    oc.source->end_run();
  }
}

TEST(ContainerSource, OffsetPastEofRejectedWithPath) {
  const Csr a = test_matrix(test_seed(94));
  const auto cm = compress(a, PipelineConfig::udp_dsh());
  const std::string path = temp_path("pasteof");
  write_compressed_file(path, cm, /*with_index=*/true);
  auto bytes = read_file(path);

  // The index section starts at offsets.back(); entry 1 lives 8 bytes
  // into it. Point it far past EOF.
  const ContainerLayout layout = read_container_layout_file(path);
  const std::uint64_t index_off = layout.index.offsets.back();
  const std::uint64_t huge = layout.file_size + (1ull << 32);
  std::memcpy(bytes.data() + index_off + 8, &huge, sizeof(huge));
  write_file(path, bytes);

  for (const SourceKind kind : {SourceKind::kMmap, SourceKind::kStreamed}) {
    try {
      open_container(path, kind);
      FAIL() << "offset past EOF must be rejected ("
             << source_kind_name(kind) << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << "error must name the file: " << e.what();
    }
  }
}

TEST(ContainerSource, OverlappingExtentsRejected) {
  const Csr a = test_matrix(test_seed(95));
  const auto cm = compress(a, PipelineConfig::udp_dsh());
  ASSERT_GT(cm.blocks.size(), 3u);
  const std::string path = temp_path("overlap");
  write_compressed_file(path, cm, /*with_index=*/true);
  auto bytes = read_file(path);

  // Rewind entry 2 onto entry 1's extent: offsets stop being strictly
  // increasing, i.e. records overlap.
  const ContainerLayout layout = read_container_layout_file(path);
  const std::uint64_t index_off = layout.index.offsets.back();
  const std::uint64_t overlap = layout.index.offsets[0];
  std::memcpy(bytes.data() + index_off + 2 * 8, &overlap, sizeof(overlap));
  write_file(path, bytes);

  for (const SourceKind kind : {SourceKind::kMmap, SourceKind::kStreamed}) {
    EXPECT_THROW(open_container(path, kind), Error)
        << source_kind_name(kind);
  }
}

TEST(ContainerSource, MidBandTruncationAtOpenRejected) {
  const Csr a = test_matrix(test_seed(96));
  const auto cm = compress(a, PipelineConfig::udp_dsh());
  const std::string path = temp_path("trunc_open");
  write_compressed_file(path, cm, /*with_index=*/true);
  auto bytes = read_file(path);

  // Cut mid block section: the footer is gone, so the open falls back to
  // the framing scan, which must reject the torn record.
  const ContainerLayout layout = read_container_layout_file(path);
  const std::uint64_t cut =
      (layout.index.offsets[layout.index.block_count() / 2] +
       layout.index.offsets[layout.index.block_count() / 2 + 1]) /
      2;
  bytes.resize(static_cast<std::size_t>(cut));
  write_file(path, bytes);

  for (const SourceKind kind : {SourceKind::kMmap, SourceKind::kStreamed}) {
    try {
      open_container(path, kind);
      FAIL() << "mid-band truncation must be rejected ("
             << source_kind_name(kind) << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(read_compressed_file(path), Error);
}

TEST(ContainerSource, TruncationUnderStreamedReaderIsShortRead) {
  const Csr a = test_matrix(test_seed(97));
  const auto cm = compress(a, PipelineConfig::udp_dsh());
  const std::string path = temp_path("trunc_live");
  write_compressed_file(path, cm, /*with_index=*/true);

  // Open against the intact file, then shrink it underneath the reader —
  // the storage fault model for a torn volume. The pread loop must
  // surface recode::Error naming the file, never return garbage.
  OpenedContainer oc = open_container(path, SourceKind::kStreamed);
  const auto bytes = read_file(path);
  auto cut = bytes;
  cut.resize(bytes.size() / 4);
  write_file(path, cut);
  try {
    spmv_through(oc);
    FAIL() << "short read must throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("short read"), std::string::npos) << msg;
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
  }
}

TEST(ContainerSource, CorruptionSweepOverStreamedReader) {
  const Csr a = test_matrix(test_seed(98));
  const auto cm = compress(a, PipelineConfig::udp_dsh());
  const std::string clean_path = temp_path("sweep_clean");
  write_compressed_file(clean_path, cm, /*with_index=*/true);
  const auto clean = read_file(clean_path);

  const auto variants = testing::corruption_variants(
      clean, clean, test_seed(99), /*per_kind=*/6);
  const std::string path = temp_path("sweep");
  int rejected = 0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    write_file(path, variants[v]);
    // Contract: decode everything or throw recode::Error — aborts, UB,
    // and foreign exception types are the only failures.
    try {
      OpenedContainer oc = open_container(path, SourceKind::kStreamed);
      spmv_through(oc);
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Most corruptions break framing somewhere; if none were rejected the
  // sweep is not exercising the error paths at all.
  EXPECT_GT(rejected, 0);
}

TEST(ContainerSource, WindowBudgetBoundsInFlightBytes) {
  const Csr a = test_matrix(test_seed(100));
  const auto cm = compress(a, PipelineConfig::udp_dsh());
  const std::string path = temp_path("budget");
  write_compressed_file(path, cm, /*with_index=*/true);
  const ContainerLayout layout = read_container_layout_file(path);

  // The serial engine leases 16-block chunks; the floor rule lets one
  // oversized chunk through alone, so the hard bound is
  // max(budget, largest single chunk).
  std::uint64_t max_chunk = 0;
  for (std::size_t first = 0; first < layout.index.block_count();
       first += 16) {
    const std::size_t count =
        std::min<std::size_t>(16, layout.index.block_count() - first);
    max_chunk = std::max(max_chunk, layout.index.offsets[first + count] -
                                        layout.index.offsets[first]);
  }

  for (const std::size_t budget : {std::size_t{1} << 12, std::size_t{1} << 16,
                                   std::size_t{4} << 20}) {
    StreamedOptions opts;
    opts.window_budget_bytes = budget;
    OpenedContainer oc = open_container(path, SourceKind::kStreamed, opts);
    const std::vector<double> y = spmv_through(oc);
    const SourceStats st = oc.source->stats();
    EXPECT_LE(st.peak_window_bytes, std::max<std::uint64_t>(budget, max_chunk))
        << "budget " << budget;
    EXPECT_EQ(st.blocks_served, cm.blocks.size());

    // Tiny budgets change scheduling, never results.
    OpenedContainer resident = open_container(path, SourceKind::kResident);
    EXPECT_EQ(y, spmv_through(resident)) << "budget " << budget;
  }
}

TEST(ContainerSource, UdpEngineRejectsOutOfCoreSources) {
  const Csr a = test_matrix(test_seed(101));
  const auto cm = compress(a, PipelineConfig::udp_dsh());
  const std::string path = temp_path("udp");
  write_compressed_file(path, cm, /*with_index=*/true);
  OpenedContainer oc = open_container(path, SourceKind::kStreamed);
  EXPECT_THROW((spmv::RecodedSpmv(*oc.matrix, oc.source,
                                  spmv::DecodeEngine::kUdpSimulated)),
               Error);
  // The executor goes through the same check, at construction...
  spmv::StreamingConfig udp_cfg;
  udp_cfg.decode_threads = 2;
  udp_cfg.engine = spmv::DecodeEngine::kUdpSimulated;
  EXPECT_THROW((spmv::StreamingExecutor(*oc.matrix, oc.source, udp_cfg)),
               Error);
  // ...and on an engine switch, which must leave the executor on the
  // software engine and fully usable.
  spmv::StreamingConfig sw_cfg;
  sw_cfg.decode_threads = 2;
  sw_cfg.fused_inline_blocks = 0;
  spmv::StreamingExecutor exec(*oc.matrix, oc.source, sw_cfg);
  EXPECT_THROW(exec.set_engine(spmv::DecodeEngine::kUdpSimulated), Error);
  EXPECT_EQ(exec.config().engine, spmv::DecodeEngine::kSoftware);
  Prng prng(7);
  std::vector<double> x(static_cast<std::size_t>(oc.matrix->cols));
  for (auto& v : x) v = prng.next_double() * 2.0 - 1.0;
  std::vector<double> y(static_cast<std::size_t>(oc.matrix->rows));
  std::vector<double> y_serial(y.size());
  spmv::RecodedSpmv(cm).multiply(x, y_serial);
  exec.multiply(x, y);
  EXPECT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                           y.size() * sizeof(double)));

  // A resident source carries real blocks; the UDP engine stays legal.
  OpenedContainer res = open_container(path, SourceKind::kResident);
  EXPECT_NO_THROW((spmv::RecodedSpmv(*res.matrix, res.source,
                                     spmv::DecodeEngine::kUdpSimulated)));
  EXPECT_NO_THROW((spmv::StreamingExecutor(*res.matrix, res.source, udp_cfg)));
}

}  // namespace
}  // namespace recode::codec
