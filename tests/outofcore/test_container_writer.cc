// Parallel streamed container writer: write_compressed_stream must write
// the same bytes as compress() + write_compressed(..., with_index=true)
// at every thread count, across the kSingle presets and the shapes that
// stress its windows (0 nnz, one block, a block count that no window
// divides, rows spanning block boundaries); spgemm_to_container, whose
// filler copies C's blocks straight out of the SpGEMM band slices, must
// match the serial spgemm + compress() file at every thread count, with
// one-block bands, C blocks spanning many bands, and leading bands that
// produce no output; a filler error in pass 1, in pass 2, and in the
// second and last windows (while the previous window's records append) is
// rethrown on the caller, leaves a file every reader rejects (even over a
// valid older container) and leaves the writer reusable; both writers
// rewrite a path in place without leaving a stale tail, and name the file
// on a storage fault; and the Huffman encode stage reports its time and
// bytes. Carries the concurrency label (tsan/sanitize repeat 3x).
#include "codec/container_writer.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/container_source.h"
#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/spgemm.h"
#include "spmv/streaming_executor.h"
#include "telemetry/telemetry.h"

namespace recode::codec {
namespace {

using sparse::Csr;

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 7};

std::string temp_path(const std::string& tag) {
  return "writer_" + tag + ".rcm";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The serial reference: compress() + write_compressed with the index.
std::string reference_bytes(const Csr& a, const PipelineConfig& cfg) {
  std::ostringstream os;
  write_compressed(os, compress(a, cfg), /*with_index=*/true);
  return os.str();
}

// A filler serving a resident CSR's nnz range (thread-safe: read-only).
BlockFiller csr_filler(const Csr& a) {
  return [&a](std::size_t, std::uint64_t first_nnz,
              std::span<sparse::index_t> idx, std::span<double> val) {
    for (std::size_t i = 0; i < idx.size(); ++i) {
      idx[i] = a.col_idx[static_cast<std::size_t>(first_nnz) + i];
      val[i] = a.val[static_cast<std::size_t>(first_nnz) + i];
    }
  };
}

StreamWriteResult write_stream(const std::string& path, const Csr& a,
                               const PipelineConfig& cfg,
                               const BlockFiller& fill, std::size_t threads) {
  return write_compressed_stream(path, a.rows, a.cols, a.row_ptr, cfg, fill,
                                 threads);
}

// The message of the recode::Error `f` throws, or "" when it throws none.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

struct Shape {
  const char* name;
  Csr matrix;
  std::size_t nnz_per_block;  // 0 = the preset's own block size
};

std::vector<Shape> make_shapes() {
  std::vector<Shape> out;
  sparse::Coo empty;
  empty.rows = empty.cols = 37;
  out.push_back({"zero_nnz", sparse::coo_to_csr(empty), 0});
  out.push_back({"one_block",
                 sparse::gen_random(40, 40, 300, sparse::ValueModel::kRandom,
                                    test_seed(151)),
                 0});
  // ~9000 nnz at 64 nnz/block: an odd block count above the largest
  // window exercised (16 blocks per worker x 7 workers), so no window
  // size divides it and the last window is partial.
  out.push_back({"partial_window",
                 sparse::gen_fem_like(1000, 9, 120,
                                      sparse::ValueModel::kSmoothField,
                                      test_seed(152)),
                 64});
  // Five rows of ~2400 nnz each: every row spans several blocks.
  out.push_back({"rows_span_blocks",
                 sparse::gen_random(5, 5000, 12000,
                                    sparse::ValueModel::kRandom,
                                    test_seed(153)),
                 0});
  return out;
}

// Built once per process (the generators log their seeds).
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> all = make_shapes();
  return all;
}

TEST(ContainerWriter, ByteIdenticalToCompressAtEveryThreadCount) {
  const std::pair<const char*, PipelineConfig> presets[] = {
      {"udp_dsh", PipelineConfig::udp_dsh()},
      {"udp_ds", PipelineConfig::udp_ds()},
      {"cpu_snappy", PipelineConfig::cpu_snappy()},
      {"udp_vsh", PipelineConfig::udp_vsh()},
  };
  for (const Shape& shape : shapes()) {
    for (const auto& [name, preset] : presets) {
      PipelineConfig cfg = preset;
      if (shape.nnz_per_block != 0) cfg.nnz_per_block = shape.nnz_per_block;
      const std::string ref = reference_bytes(shape.matrix, cfg);
      const std::size_t nblocks =
          sparse::make_blocking(shape.matrix, cfg.nnz_per_block)
              .block_count();
      if (shape.nnz_per_block != 0) {
        ASSERT_GT(nblocks, 16u * 7u) << shape.name;
        ASSERT_EQ(nblocks % 2, 1u) << shape.name;
      }
      const std::string path =
          temp_path(std::string(shape.name) + "_" + name);
      for (const std::size_t threads : kThreadCounts) {
        const StreamWriteResult res = write_stream(
            path, shape.matrix, cfg, csr_filler(shape.matrix), threads);
        EXPECT_EQ(res.block_count, nblocks);
        EXPECT_EQ(res.file_bytes, ref.size());
        EXPECT_EQ(read_file(path), ref)
            << shape.name << " " << name << " threads=" << threads;
      }
      std::remove(path.c_str());
    }
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  }
  return h;
}

TEST(ContainerWriter, FileBytesMatchPinnedDigests) {
  // Pinned before the encoder moved to EncodeArena, at every thread
  // count: workers reuse their arenas and the window slots across
  // blocks, so any state leaking from one block into the next shows.
  // 256 nnz per block gives ~120 blocks, several windows at each count.
  const Csr a = sparse::gen_fem_like(3000, 10, 80,
                                     sparse::ValueModel::kRandom, 2019);
  const struct {
    const char* name;
    PipelineConfig cfg;
    std::uint64_t digest;
  } pinned[] = {
      {"udp_dsh", PipelineConfig::udp_dsh(), 0xdfa35864fbd98d3aull},
      {"udp_vsh", PipelineConfig::udp_vsh(), 0x10e7507d60e1dea4ull},
  };
  const std::string path = temp_path("pinned");
  for (const auto& p : pinned) {
    PipelineConfig cfg = p.cfg;
    cfg.nnz_per_block = 256;
    for (const std::size_t threads : kThreadCounts) {
      write_stream(path, a, cfg, csr_filler(a), threads);
      EXPECT_EQ(fnv1a(read_file(path)), p.digest)
          << p.name << " threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

TEST(ContainerWriter, RowsSpanBlockBoundaries) {
  // The shape the battery relies on really has rows crossing blocks.
  const Csr& a = shapes()[3].matrix;
  const sparse::Blocking blocking =
      sparse::make_blocking(a, PipelineConfig::udp_dsh().nnz_per_block);
  std::size_t spanning = 0;
  for (std::size_t b = 0; b + 1 < blocking.block_count(); ++b) {
    if (blocking.blocks[b].last_row == blocking.blocks[b + 1].first_row) {
      ++spanning;
    }
  }
  EXPECT_GE(spanning, 5u);
}

// An A (n x n, exactly 8 nnz per row) and B for the band-fed writer. At
// 16 nnz per block every block boundary of A is a row boundary, so with
// blocks_per_band = 1 each band is two rows and C's 1024-nnz blocks
// straddle many bands. A's first 64 rows select only B's first 64 rows,
// which are empty, so the leading bands produce no output.
std::pair<Csr, Csr> many_band_pair(sparse::index_t n, std::uint64_t seed) {
  Prng prng(seed);
  sparse::Coo a, b;
  a.rows = a.cols = b.rows = b.cols = n;
  for (sparse::index_t r = 0; r < n; ++r) {
    for (sparse::index_t k = 0; k < 8; ++k) {
      const double v = prng.next_double() * 2.0 - 1.0;
      a.add(r, r < 64 ? (r + k) % 64 : (r + 37 * k) % n, v);
      if (r >= 64) b.add(r, (r * 3 + 101 * k) % n, -v);
    }
  }
  return {sparse::coo_to_csr(a), sparse::coo_to_csr(b)};
}

TEST(ContainerWriter, SpgemmToContainerMatchesSerialSpgemmAndCompress) {
  const Csr fem = sparse::gen_fem_like(600, 12, 120,
                                       sparse::ValueModel::kRandom,
                                       test_seed(154));
  const auto [a2, b2] = many_band_pair(3000, test_seed(155));
  PipelineConfig a2_cfg = PipelineConfig::udp_dsh();
  a2_cfg.nnz_per_block = 16;
  struct Case {
    const char* name;
    const Csr& a;
    const Csr& b;
    PipelineConfig a_cfg;
  };
  const Case cases[] = {{"fem", fem, fem, PipelineConfig::udp_dsh()},
                        {"many_bands", a2, b2, a2_cfg}};
  const PipelineConfig cfg = PipelineConfig::udp_dsh();
  const std::string a_path = temp_path("spgemm_a");
  const std::string c_path = temp_path("spgemm_c");
  for (const Case& tc : cases) {
    const CompressedMatrix cm = compress(tc.a, tc.a_cfg);
    const Csr c = spmv::spgemm(cm, tc.b);
    const std::string ref = reference_bytes(c, cfg);
    if (std::string(tc.name) == "many_bands") {
      const auto bands = spmv::make_row_bands(cm.blocking, 1);
      const std::size_t c_blocks =
          sparse::make_blocking(c, cfg.nnz_per_block).block_count();
      ASSERT_EQ(c.row_ptr[static_cast<std::size_t>(bands[0].end_row)], 0)
          << "the first band must produce no output";
      ASSERT_GT(bands.size(), 8 * c_blocks) << "C blocks must span many bands";
    }
    write_compressed_file(a_path, cm, /*with_index=*/true);
    for (const SourceKind kind :
         {SourceKind::kResident, SourceKind::kStreamed}) {
      OpenedContainer oc = open_container(a_path, kind);
      for (const std::size_t threads : kThreadCounts) {
        spmv::SpgemmConfig sc;
        sc.threads = threads;
        sc.blocks_per_band = 1;
        const StreamWriteResult res = spmv::spgemm_to_container(
            c_path, *oc.matrix, oc.source, tc.b, cfg, sc);
        EXPECT_EQ(res.file_bytes, ref.size());
        EXPECT_EQ(read_file(c_path), ref)
            << tc.name << " " << source_kind_name(kind)
            << " threads=" << threads;
      }
    }
  }
  std::remove(a_path.c_str());
  std::remove(c_path.c_str());
}

TEST(ContainerWriter, FillerErrorRethrowsOnCallerAndWriterStaysUsable) {
  const Shape& shape = shapes()[2];
  PipelineConfig cfg = PipelineConfig::udp_dsh();
  cfg.nnz_per_block = shape.nnz_per_block;
  const Csr& a = shape.matrix;
  const std::size_t nblocks =
      sparse::make_blocking(a, cfg.nnz_per_block).block_count();
  // The writer's Prng walk: a sampled block is filled in pass 1 and again
  // in pass 2. The first sampled block from the middle on is the target.
  Prng sampler(cfg.sample_seed);
  std::vector<bool> sampled(nblocks);
  std::size_t target = nblocks;
  for (std::size_t b = 0; b < nblocks; ++b) {
    sampled[b] = sampler.next_double() < cfg.huffman_sample_fraction;
    if (sampled[b] && b >= nblocks / 2 && target == nblocks) target = b;
  }
  ASSERT_LT(target, nblocks);
  // At 3 threads a pass-2 window holds 16 blocks per worker; from the
  // second window on, each window's run also appends the previous
  // window's records, so those faults land while an append is in flight.
  constexpr std::size_t kWindow = 16 * 3;
  ASSERT_GT(nblocks, 2 * kWindow) << "the shape must span three windows";
  const auto pass2_call = [&](std::size_t b) { return sampled[b] ? 2 : 1; };
  struct Fault {
    const char* what;
    std::size_t block;
    int call;  // which fill of the block throws
  };
  const Fault faults[] = {
      {"pass 1", target, 1},
      {"pass 2", target, 2},
      {"second window", kWindow + 5, pass2_call(kWindow + 5)},
      {"last window", nblocks - 1, pass2_call(nblocks - 1)},
  };

  const std::string ref = reference_bytes(a, cfg);
  const std::string path = temp_path("fault");
  const BlockFiller good = csr_filler(a);
  // Before each fault the path holds a different valid container, so the
  // bytes the faulted write leaves behind would parse if nothing marked
  // them invalid.
  const Csr& older = shapes()[3].matrix;
  std::uint64_t older_seed = 0;
  for (const Fault& fault : faults) {
    PipelineConfig older_cfg = PipelineConfig::udp_dsh();
    older_cfg.sample_seed += ++older_seed;
    write_compressed_file(path, compress(older, older_cfg), true);
    ASSERT_EQ(read_compressed_file(path).config.sample_seed,
              older_cfg.sample_seed);
    std::atomic<int> calls{0};
    const BlockFiller faulty = [&](std::size_t b, std::uint64_t first_nnz,
                                   std::span<sparse::index_t> idx,
                                   std::span<double> val) {
      if (b == fault.block && calls.fetch_add(1) + 1 == fault.call) {
        fail("writer test fault");
      }
      good(b, first_nnz, idx, val);
    };
    EXPECT_THROW(write_stream(path, a, cfg, faulty, 3), Error) << fault.what;
    const auto expect_rejected = [&](const char* reader, auto&& read) {
      const std::string msg = error_of(read);
      EXPECT_NE(msg.find("rcm: bad magic"), std::string::npos)
          << fault.what << " " << reader << ": " << msg;
      EXPECT_NE(msg.find(path), std::string::npos)
          << fault.what << " " << reader << ": " << msg;
    };
    expect_rejected("read_compressed_file",
                    [&] { read_compressed_file(path); });
    expect_rejected("read_container_layout_file",
                    [&] { read_container_layout_file(path); });
    for (const SourceKind kind : {SourceKind::kResident, SourceKind::kMmap,
                                  SourceKind::kStreamed}) {
      expect_rejected(source_kind_name(kind),
                      [&] { open_container(path, kind); });
    }
    // The next call on the same path writes the reference bytes.
    write_stream(path, a, cfg, good, 3);
    EXPECT_EQ(read_file(path), ref) << fault.what;
  }
  std::remove(path.c_str());
}

TEST(ContainerWriter, RewritesInPlaceWithoutStaleTail) {
  // Longer -> shorter -> longer at one path, for every sequence of the two
  // writers: each file must be exactly the reference bytes, at exactly
  // their size, whatever the path held before.
  PipelineConfig cfg = PipelineConfig::udp_dsh();
  cfg.nnz_per_block = shapes()[2].nnz_per_block;
  const Csr* sizes[] = {&shapes()[2].matrix, &shapes()[1].matrix,
                        &shapes()[3].matrix};
  std::vector<std::string> refs;
  for (const Csr* a : sizes) refs.push_back(reference_bytes(*a, cfg));
  ASSERT_GT(refs[0].size(), refs[1].size());
  ASSERT_GT(refs[2].size(), refs[1].size());
  const std::string path = temp_path("in_place");
  for (const std::size_t threads : {1, 3, 7}) {
    for (unsigned writers = 0; writers < 8; ++writers) {
      for (std::size_t i = 0; i < 3; ++i) {
        const Csr& a = *sizes[i];
        const bool stream = (writers >> i) & 1;
        if (stream) {
          write_stream(path, a, cfg, csr_filler(a), threads);
        } else {
          write_compressed_file(path, compress(a, cfg), /*with_index=*/true);
        }
        const std::string where = std::string(stream ? "stream" : "file") +
                                  " write " + std::to_string(i) +
                                  " writers=" + std::to_string(writers) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(std::filesystem::file_size(path), refs[i].size()) << where;
        EXPECT_EQ(read_file(path), refs[i]) << where;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ContainerWriter, StorageFaultsNameTheFile) {
  const Csr& a = shapes()[2].matrix;
  PipelineConfig cfg = PipelineConfig::udp_dsh();
  cfg.nnz_per_block = shapes()[2].nnz_per_block;
  const CompressedMatrix cm = compress(a, cfg);
  const std::string missing = "writer_no_such_dir/c.rcm";
  const std::string path = temp_path("after_fault");
  const std::string ref = reference_bytes(a, cfg);
  struct Target {
    std::string path;
    std::string message;
  };
  std::vector<Target> targets = {
      {missing, "rcm: cannot open for write: " + missing}};
  if (std::filesystem::exists("/dev/full")) {
    targets.push_back({"/dev/full", "rcm: write failed: /dev/full"});
  }
  for (const Target& target : targets) {
    for (const std::size_t threads : {1, 3}) {
      EXPECT_EQ(error_of([&] {
                  write_stream(target.path, a, cfg, csr_filler(a), threads);
                }),
                target.message)
          << "threads=" << threads;
      write_stream(path, a, cfg, csr_filler(a), threads);
      EXPECT_EQ(read_file(path), ref) << target.path << " threads=" << threads;
    }
    EXPECT_EQ(error_of([&] { write_compressed_file(target.path, cm, true); }),
              target.message);
    write_compressed_file(path, cm, true);
    EXPECT_EQ(read_file(path), ref) << target.path;
  }
  EXPECT_FALSE(std::filesystem::exists(missing));
  std::remove(path.c_str());
}

// Caps this process's file size (RLIMIT_FSIZE) for its lifetime, with
// SIGXFSZ ignored, so a write past the cap fails with EFBIG after a short
// write instead of killing the process.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    rlimit cap = saved_;
    cap.rlim_cur = std::min(bytes, saved_.rlim_max);
    setrlimit(RLIMIT_FSIZE, &cap);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
  }
  ~FileSizeCap() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = nullptr;
};

TEST(ContainerWriter, WriteFailingMidFileNamesItAndLeavesItRejected) {
  // A storage fault after some bytes are out: the write names the file,
  // and what it leaves is rejected rather than parsed. The path first
  // holds a file longer than the new container, so trimming it needs no
  // room past the cap and only the failing writes can report the fault.
  const Csr& a = shapes()[2].matrix;
  PipelineConfig cfg = PipelineConfig::udp_dsh();
  cfg.nnz_per_block = shapes()[2].nnz_per_block;
  const CompressedMatrix cm = compress(a, cfg);
  const std::string ref = reference_bytes(a, cfg);
  const std::string path = temp_path("capped");
  const std::string message = "rcm: write failed: " + path;
  for (const std::size_t threads : {0, 1, 3}) {  // 0: write_compressed_file
    std::ofstream(path, std::ios::binary) << std::string(2 * ref.size(), 'x');
    {
      const FileSizeCap cap(ref.size() / 2);
      EXPECT_EQ(error_of([&] {
                  if (threads == 0) {
                    write_compressed_file(path, cm, true);
                  } else {
                    write_stream(path, a, cfg, csr_filler(a), threads);
                  }
                }),
                message)
          << "threads=" << threads;
    }
    EXPECT_NE(error_of([&] { read_compressed_file(path); })
                  .find("rcm: bad magic (file: " + path + ")"),
              std::string::npos)
        << "threads=" << threads;
    write_stream(path, a, cfg, csr_filler(a), threads == 0 ? 1 : threads);
    EXPECT_EQ(read_file(path), ref) << "threads=" << threads;
  }
  std::remove(path.c_str());
}

TEST(ContainerWriter, RejectsNonSingleSelectionBeforeAnyWork) {
  const Csr& a = shapes()[1].matrix;
  const std::string path = temp_path("adaptive");
  std::remove(path.c_str());
  std::atomic<int> calls{0};
  const BlockFiller counting = [&](std::size_t, std::uint64_t,
                                   std::span<sparse::index_t>,
                                   std::span<double>) { calls.fetch_add(1); };
  for (const PipelineConfig& cfg :
       {PipelineConfig::udp_adaptive(), [] {
          PipelineConfig c = PipelineConfig::udp_dsh();
          c.selection = CodecSelection::kHeuristic;
          return c;
        }()}) {
    EXPECT_THROW(write_stream(path, a, cfg, counting, 3), Error);
  }
  EXPECT_EQ(calls.load(), 0) << "no block may be filled";
  EXPECT_FALSE(std::ifstream(path).good()) << "no file may be created";
}

TEST(ContainerWriter, FeedsHuffmanEncodeTelemetry) {
  auto& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& ns = reg.counter("codec.encode.huffman.ns");
  telemetry::Counter& bytes_out = reg.counter("codec.encode.huffman.bytes_out");
  const Shape& shape = shapes()[2];
  PipelineConfig cfg = PipelineConfig::udp_dsh();
  cfg.nnz_per_block = shape.nnz_per_block;
  const std::string path = temp_path("telemetry");
  const std::uint64_t ns0 = ns.value();
  const std::uint64_t out0 = bytes_out.value();
  const StreamWriteResult res =
      write_stream(path, shape.matrix, cfg, csr_filler(shape.matrix), 3);
  std::remove(path.c_str());
  if (!telemetry::kEnabled) {
    EXPECT_EQ(ns.value(), 0u);
    EXPECT_EQ(bytes_out.value(), 0u);
    return;
  }
  EXPECT_GT(ns.value(), ns0);
  // Pass 1 stops before Huffman, so the stage's output is exactly the
  // payloads pass 2 wrote.
  EXPECT_EQ(bytes_out.value() - out0, res.payload_bytes);
}

}  // namespace
}  // namespace recode::codec
