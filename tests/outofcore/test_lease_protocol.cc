// Lease-protocol audit: every consumer of the decoded-block stream —
// RecodedSpmv, StreamingExecutor (cache off and on), spgemm,
// spgemm_to_container and SpmspvEngine including its construction
// survey — driven over the resident, mmap and streamed backends at
// threads {1, 2, 3}, clean and with one block corrupted mid-run. An
// AuditSource wraps the real backend, forwards every call and records
// it, and the test asserts the protocol of codec/container_source.h:
//
//   - every acquire is released exactly once, and no lease is held at
//     the end of a call;
//   - a prefetched range is acquired only with the identical
//     (first, count), and on a clean run every prefetched range is
//     acquired before that run's end_run;
//   - block(b) is only called while a lease covering b is held;
//   - each run calls end_run exactly once, also after a throw.
//
// Then every consumer at window budgets from 4 KB to one band's extent
// and threads {1, 2, 3, 7}, bitwise against resident, and an acquire
// racing the end_run that reclaimed its prefetch — each under a
// watchdog, since a protocol bug shows as a hang.
//
// Carries the concurrency label (sanitize/tsan presets repeat it 3x).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/container.h"
#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"
#include "spmv/spgemm.h"
#include "spmv/spmspv.h"
#include "spmv/streaming_executor.h"

namespace recode::spmv {
namespace {

using codec::OpenedContainer;
using codec::PipelineConfig;
using codec::SourceKind;
using sparse::Csr;

constexpr SourceKind kAllKinds[] = {SourceKind::kResident, SourceKind::kMmap,
                                    SourceKind::kStreamed};
constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

// Forwards to a real backend and checks each call against the protocol.
// With a corrupt block armed, block() hands that block out with an empty
// index stream, so its decode throws recode::Error mid-run.
class AuditSource final : public codec::ContainerSource {
 public:
  explicit AuditSource(std::shared_ptr<codec::ContainerSource> inner)
      : inner_(std::move(inner)) {}

  codec::SourceKind kind() const override { return inner_->kind(); }

  void prefetch(std::size_t first, std::size_t count) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++prefetches_;
      if (overlaps(pending_, first, count, /*allow_equal=*/true) ||
          overlaps(held_, first, count, /*allow_equal=*/false)) {
        violation("prefetch overlaps a different staged range", first, count);
      }
      pending_[first] = count;
    }
    inner_->prefetch(first, count);
  }

  void acquire(std::size_t first, std::size_t count) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (overlaps(pending_, first, count, /*allow_equal=*/true) ||
          overlaps(held_, first, count, /*allow_equal=*/false)) {
        violation("acquire overlaps a different staged range", first, count);
      }
      // A matching prefetch is consumed whether or not the read succeeds.
      pending_.erase(first);
    }
    inner_->acquire(first, count);
    std::lock_guard<std::mutex> lk(mu_);
    ++acquires_;
    held_[first] = count;
  }

  codec::SourceBlockBytes block(std::size_t b) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++blocks_;
      const auto it = held_.upper_bound(b);
      if (it == held_.begin() || std::prev(it)->first +
                                         std::prev(it)->second <= b) {
        violation("block() outside any held lease", b, 1);
      }
    }
    codec::SourceBlockBytes bytes = inner_->block(b);
    if (b == corrupt_block_) bytes.index_data = bytes.index_data.first(0);
    return bytes;
  }

  void release(std::size_t first, std::size_t count) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto held = held_.find(first);
      if (held != held_.end() && held->second == count) {
        held_.erase(held);
        ++releases_;
      } else {
        violation("release of a range not held", first, count);
      }
    }
    inner_->release(first, count);
  }

  void end_run() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++end_runs_;
      if (!held_.empty()) violation("end_run with a lease held", 0, 0);
      unconsumed_ += pending_.size();
      pending_.clear();
    }
    inner_->end_run();
  }

  std::size_t range_extent_bytes(std::size_t first,
                                 std::size_t count) const override {
    return inner_->range_extent_bytes(first, count);
  }
  void reserve(std::size_t leases, std::size_t max_lease_bytes) override {
    inner_->reserve(leases, max_lease_bytes);
  }
  codec::SourceStats stats() const override { return inner_->stats(); }

  // Arms (or, with kNoBlock, disarms) the corrupt block. Only between
  // runs.
  void corrupt(std::size_t b) { corrupt_block_ = b; }

  // A snapshot of the counters, taken between runs.
  struct Tally {
    std::uint64_t prefetches = 0;
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::uint64_t blocks = 0;
    std::uint64_t end_runs = 0;
    std::uint64_t unconsumed = 0;  // prefetched ranges reclaimed by end_run
    std::size_t held = 0;
    std::vector<std::string> violations;
  };
  Tally tally() const {
    std::lock_guard<std::mutex> lk(mu_);
    return Tally{prefetches_, acquires_, releases_,  blocks_,
                 end_runs_,   unconsumed_, held_.size(), violations_};
  }

 private:
  using Ranges = std::map<std::size_t, std::size_t>;  // first -> count

  // True if [first, first + count) overlaps a range of `ranges`, other
  // than an identical one when allow_equal is set.
  static bool overlaps(const Ranges& ranges, std::size_t first,
                       std::size_t count, bool allow_equal) {
    for (const auto& [f, c] : ranges) {
      if (allow_equal && f == first && c == count) continue;
      if (f < first + count && first < f + c) return true;
    }
    return false;
  }

  void violation(const char* what, std::size_t first, std::size_t count) {
    violations_.push_back(std::string(what) + " [" + std::to_string(first) +
                          ", +" + std::to_string(count) + ")");
  }

  std::shared_ptr<codec::ContainerSource> inner_;
  std::size_t corrupt_block_ = kNoBlock;
  mutable std::mutex mu_;
  Ranges pending_;
  Ranges held_;
  std::uint64_t prefetches_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t end_runs_ = 0;
  std::uint64_t unconsumed_ = 0;
  std::vector<std::string> violations_;
};

// Runs `call` as `runs` runs of the protocol and checks the audit. A
// clean call must not throw and must consume every prefetch; a corrupt
// one must throw recode::Error. Either way every lease is released,
// nothing is held afterwards and each run ended exactly once.
template <typename Call>
void audit(AuditSource& src, bool corrupt, std::uint64_t runs,
           const std::string& tag, Call&& call) {
  const AuditSource::Tally before = src.tally();
  if (corrupt) {
    EXPECT_THROW(call(), Error) << tag;
  } else {
    call();
  }
  const AuditSource::Tally after = src.tally();
  for (const std::string& v : after.violations) ADD_FAILURE() << tag << ": " << v;
  EXPECT_EQ(after.held, 0u) << tag;
  EXPECT_EQ(after.acquires - before.acquires, after.releases - before.releases)
      << tag;
  EXPECT_EQ(after.end_runs - before.end_runs, runs) << tag;
  if (!corrupt) {
    EXPECT_EQ(after.unconsumed, before.unconsumed)
        << tag << ": a clean run left a prefetch unconsumed";
    EXPECT_GT(after.blocks, before.blocks) << tag;
    if (src.out_of_core()) {
      EXPECT_GT(after.prefetches, before.prefetches) << tag;
    }
  }
}

class LeaseProtocol : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::uint64_t seed = test_seed(131);
    a_ = sparse::gen_fem_like(4000, 9, 120, sparse::ValueModel::kSmoothField,
                              seed);
    cm_ = codec::compress(a_, PipelineConfig::udp_dsh());
    codec::write_compressed_file(path_, cm_, /*with_index=*/true);
    ASSERT_GT(cm_.blocks.size(), 32u);  // the executor's threaded path
    corrupt_block_ = cm_.blocks.size() / 2;
    Prng prng(seed + 1);
    x_.resize(static_cast<std::size_t>(a_.cols));
    for (double& v : x_) v = prng.next_double() * 2.0 - 1.0;
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(c_path_.c_str());
  }

  // One audited source per backend.
  std::shared_ptr<AuditSource> open(SourceKind kind,
                                    OpenedContainer& keep) const {
    keep = codec::open_container(path_, kind);
    return std::make_shared<AuditSource>(keep.source);
  }

  // Drives `body(source, tag, corrupt)` over every backend, clean and
  // with the corrupt block armed.
  template <typename Body>
  void for_each_case(Body&& body) const {
    for (const SourceKind kind : kAllKinds) {
      for (const bool corrupt : {false, true}) {
        OpenedContainer oc;
        const auto src = open(kind, oc);
        const std::string tag = std::string(codec::source_kind_name(kind)) +
                                (corrupt ? " corrupt" : " clean");
        body(*oc.matrix, src, tag, corrupt);
      }
    }
  }

  Csr a_;
  codec::CompressedMatrix cm_;
  std::size_t corrupt_block_ = 0;
  std::vector<double> x_;
  const std::string path_ = "lease_protocol_a.rcm";
  const std::string c_path_ = "lease_protocol_c.rcm";
};

TEST_F(LeaseProtocol, RecodedSpmv) {
  for_each_case([&](const codec::CompressedMatrix& m,
                    const std::shared_ptr<AuditSource>& src,
                    const std::string& tag, bool corrupt) {
    RecodedSpmv engine(m, src);
    std::vector<double> y(static_cast<std::size_t>(a_.rows));
    if (corrupt) src->corrupt(corrupt_block_);
    audit(*src, corrupt, 1, tag, [&] { engine.multiply(x_, y); });
    src->corrupt(kNoBlock);
    audit(*src, false, 1, tag + " after", [&] { engine.multiply(x_, y); });
  });
}

TEST_F(LeaseProtocol, StreamingExecutorCacheOffAndOn) {
  const std::size_t half = a_.nnz() * 6;  // half the decoded bytes
  for (const std::size_t threads : {1u, 2u, 3u}) {
    for (const std::size_t cache : {std::size_t{0}, half}) {
      for_each_case([&](const codec::CompressedMatrix& m,
                        const std::shared_ptr<AuditSource>& src,
                        const std::string& case_tag, bool corrupt) {
        StreamingConfig cfg;
        // threads == 1 is the inline path; otherwise `threads` workers.
        cfg.decode_threads = threads == 1 ? 1 : threads - 1;
        cfg.compute_threads = 1;
        cfg.blocks_per_band = 2;
        cfg.cache_budget_bytes = cache;
        if (threads == 1) cfg.fused_inline_blocks = SIZE_MAX;
        StreamingExecutor exec(m, src, cfg);
        const std::string tag = case_tag + " threads=" +
                                std::to_string(threads) +
                                " cache=" + std::to_string(cache);
        std::vector<double> y(static_cast<std::size_t>(a_.rows));
        // A cold run, then (cache on) a warm one that serves hits.
        audit(*src, false, 1, tag + " cold", [&] { exec.multiply(x_, y); });
        if (corrupt) {
          exec.clear_cache();
          src->corrupt(corrupt_block_);
        }
        audit(*src, corrupt, 1, tag, [&] { exec.multiply(x_, y); });
        EXPECT_EQ(exec.last_stats().workers,
                  std::min<std::size_t>(threads, exec.bands().size()))
            << tag;
      });
    }
  }
}

TEST_F(LeaseProtocol, SpgemmAndSpgemmToContainer) {
  for (const std::size_t threads : {1u, 2u, 3u}) {
    for_each_case([&](const codec::CompressedMatrix& m,
                      const std::shared_ptr<AuditSource>& src,
                      const std::string& case_tag, bool corrupt) {
      SpgemmConfig cfg;
      cfg.threads = threads;
      cfg.blocks_per_band = 2;
      const std::string tag =
          case_tag + " threads=" + std::to_string(threads);
      if (corrupt) src->corrupt(corrupt_block_);
      audit(*src, corrupt, 1, tag + " spgemm",
            [&] { (void)spgemm(m, src, a_, cfg); });
      audit(*src, corrupt, 1, tag + " spgemm_to_container", [&] {
        (void)spgemm_to_container(c_path_, m, src, a_,
                                  PipelineConfig::udp_dsh(), cfg);
      });
    });
  }
}

TEST_F(LeaseProtocol, SpmspvSurveyAndMultiply) {
  // A sparse frontier (most bands need only some runs) and the full one
  // (every block, so the corrupt block is reached).
  SparseVector sparse_x;
  SparseVector full_x;
  for (sparse::index_t c = 0; c < a_.cols; ++c) {
    if (c % 97 == 0) {
      sparse_x.indices.push_back(c);
      sparse_x.values.push_back(x_[static_cast<std::size_t>(c)]);
    }
    full_x.indices.push_back(c);
    full_x.values.push_back(x_[static_cast<std::size_t>(c)]);
  }
  for (const std::size_t threads : {1u, 2u, 3u}) {
    for_each_case([&](const codec::CompressedMatrix& m,
                      const std::shared_ptr<AuditSource>& src,
                      const std::string& case_tag, bool corrupt) {
      SpmspvConfig cfg;
      cfg.threads = threads;
      cfg.blocks_per_band = 2;
      const std::string tag =
          case_tag + " threads=" + std::to_string(threads);
      if (corrupt) {
        // The construction survey reads every block.
        src->corrupt(corrupt_block_);
        audit(*src, true, 1, tag + " survey",
              [&] { SpmspvEngine failed(m, src, cfg); });
        src->corrupt(kNoBlock);
      }
      std::unique_ptr<SpmspvEngine> engine;
      audit(*src, false, 1, tag + " survey",
            [&] { engine = std::make_unique<SpmspvEngine>(m, src, cfg); });
      std::vector<double> y(static_cast<std::size_t>(a_.rows));
      if (!corrupt) {
        audit(*src, false, 1, tag + " sparse",
              [&] { engine->multiply(sparse_x, y); });
      }
      if (corrupt) src->corrupt(corrupt_block_);
      audit(*src, corrupt, 1, tag + " full",
            [&] { engine->multiply(full_x, y); });
    });
  }
}

// Aborts the process, naming the case, if the case is still running
// after `seconds`. A lease-protocol regression shows as a hang; this
// turns it into a fast failure that names its case instead of a ctest
// timeout.
class Watchdog {
 public:
  explicit Watchdog(std::string name, int seconds = 30)
      : name_(std::move(name)), thread_([this, seconds] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, std::chrono::seconds(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: '%s' still running after %d s\n",
                         name_.c_str(), seconds);
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  const std::string name_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: it reads every member above
};

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Window budgets from below any lease (4 KB) to one block's and one
// band's largest extent, at every worker count: a synchronous acquire
// must never wait on budget that only unleased prefetches hold — a
// worker's own prefetch of its popped-ahead task included. Every
// consumer finishes and matches its resident result bitwise.
TEST_F(LeaseProtocol, EveryConsumerFinishesAtAnyWindowBudget) {
  constexpr std::size_t kBlocksPerBand = 2;
  std::size_t block_extent = 0;
  std::size_t band_extent = 0;
  {
    const OpenedContainer oc =
        codec::open_container(path_, SourceKind::kStreamed);
    const std::size_t nblocks = cm_.blocks.size();
    for (std::size_t b = 0; b < nblocks; ++b) {
      block_extent =
          std::max(block_extent, oc.source->range_extent_bytes(b, 1));
      const std::size_t n = std::min(kBlocksPerBand, nblocks - b);
      band_extent = std::max(band_extent, oc.source->range_extent_bytes(b, n));
    }
  }
  SparseVector full_x;
  for (sparse::index_t c = 0; c < a_.cols; ++c) {
    full_x.indices.push_back(c);
    full_x.values.push_back(x_[static_cast<std::size_t>(c)]);
  }
  std::vector<double> y_ref(static_cast<std::size_t>(a_.rows));
  RecodedSpmv(cm_).multiply(x_, y_ref);
  SpgemmConfig ref_cfg;
  ref_cfg.blocks_per_band = kBlocksPerBand;
  const Csr c_ref = spgemm(cm_, a_, ref_cfg);
  const std::string c_ref_path = "lease_protocol_c_ref.rcm";
  (void)spgemm_to_container(c_ref_path, cm_, nullptr, a_,
                            PipelineConfig::udp_dsh(), ref_cfg);
  const std::string c_ref_bytes = file_bytes(c_ref_path);
  std::remove(c_ref_path.c_str());
  std::vector<double> y_spmspv_ref(y_ref.size());
  {
    SpmspvConfig scfg;
    scfg.blocks_per_band = kBlocksPerBand;
    SpmspvEngine(cm_, scfg).multiply(full_x, y_spmspv_ref);
  }

  for (const std::size_t budget : {std::size_t{4096}, block_extent,
                                   band_extent}) {
    codec::StreamedOptions opts;
    opts.window_budget_bytes = budget;
    const auto streamed = [&] {
      OpenedContainer oc =
          codec::open_container(path_, SourceKind::kStreamed, opts);
      return std::make_pair(oc.matrix,
                            std::make_shared<AuditSource>(oc.source));
    };
    for (const std::size_t threads : {1u, 2u, 3u, 7u}) {
      const std::string tag = "budget=" + std::to_string(budget) +
                              " threads=" + std::to_string(threads);
      {
        const Watchdog dog(tag + " executor");
        auto [m, src] = streamed();
        StreamingConfig cfg;
        cfg.blocks_per_band = kBlocksPerBand;
        cfg.cache_budget_bytes = 0;
        // threads == 1 is the inline path; otherwise `threads` workers
        // on the threaded path however few blocks there are.
        cfg.decode_threads = threads == 1 ? 1 : threads - 1;
        cfg.compute_threads = 1;
        cfg.fused_inline_blocks = threads == 1 ? SIZE_MAX : 0;
        StreamingExecutor exec(*m, src, cfg);
        std::vector<double> y(y_ref.size());
        audit(*src, false, 1, tag + " executor",
              [&] { exec.multiply(x_, y); });
        EXPECT_EQ(exec.last_stats().workers,
                  std::min<std::size_t>(threads, exec.bands().size()))
            << tag;
        EXPECT_EQ(y, y_ref) << tag << " executor";
      }
      SpgemmConfig gcfg;
      gcfg.threads = threads;
      gcfg.blocks_per_band = kBlocksPerBand;
      {
        const Watchdog dog(tag + " spgemm");
        auto [m, src] = streamed();
        Csr c;
        audit(*src, false, 1, tag + " spgemm",
              [&] { c = spgemm(*m, src, a_, gcfg); });
        EXPECT_EQ(c.row_ptr, c_ref.row_ptr) << tag << " spgemm";
        EXPECT_EQ(c.col_idx, c_ref.col_idx) << tag << " spgemm";
        EXPECT_EQ(c.val, c_ref.val) << tag << " spgemm";
      }
      {
        const Watchdog dog(tag + " spgemm_to_container");
        auto [m, src] = streamed();
        audit(*src, false, 1, tag + " spgemm_to_container", [&] {
          (void)spgemm_to_container(c_path_, *m, src, a_,
                                    PipelineConfig::udp_dsh(), gcfg);
        });
        EXPECT_TRUE(file_bytes(c_path_) == c_ref_bytes)
            << tag << " spgemm_to_container";
      }
      {
        const Watchdog dog(tag + " spmspv");
        auto [m, src] = streamed();
        SpmspvConfig scfg;
        scfg.threads = threads;
        scfg.blocks_per_band = kBlocksPerBand;
        std::unique_ptr<SpmspvEngine> engine;
        audit(*src, false, 1, tag + " survey",
              [&] { engine = std::make_unique<SpmspvEngine>(*m, src, scfg); });
        std::vector<double> y(y_ref.size());
        audit(*src, false, 1, tag + " spmspv",
              [&] { engine->multiply(full_x, y); });
        EXPECT_EQ(y, y_spmspv_ref) << tag << " spmspv";
      }
    }
  }
}

// A run that fails mid-way leaves its prefetches to end_run, and the
// next run may lease the same range while the IO thread is still reading
// it: prefetch, end_run, acquire of one range, looped so the end_run
// lands on a queued, a reading and a ready window. The acquire must
// adopt or re-read the range, never wait on a window end_run reclaimed.
TEST_F(LeaseProtocol, AcquireAfterEndRunReclaimedItsPrefetch) {
  // A range of ~1 MB, so its read lasts long enough to be caught mid-way.
  const Csr big = sparse::gen_fem_like(
      40000, 9, 120, sparse::ValueModel::kSmoothField, test_seed(131));
  const codec::CompressedMatrix big_cm =
      codec::compress(big, PipelineConfig::udp_dsh());
  codec::write_compressed_file(c_path_, big_cm, /*with_index=*/true);
  const Watchdog dog("prefetch -> end_run -> acquire");
  const OpenedContainer oc =
      codec::open_container(c_path_, SourceKind::kStreamed);
  codec::ContainerSource& src = *oc.source;
  const std::size_t nblocks = big_cm.blocks.size();
  for (int i = 0; i < 1000; ++i) {
    src.prefetch(0, nblocks);
    // Staggers end_run across the IO thread's queue pop, read and
    // completion.
    std::this_thread::sleep_for(std::chrono::microseconds(i % 4 * 50));
    src.end_run();
    src.acquire(0, nblocks);
    const std::size_t b = static_cast<std::size_t>(i) % nblocks;
    const codec::SourceBlockBytes bytes = src.block(b);
    ASSERT_TRUE(std::equal(bytes.index_data.begin(), bytes.index_data.end(),
                           big_cm.blocks[b].index_data.begin(),
                           big_cm.blocks[b].index_data.end()))
        << "iteration " << i;
    src.release(0, nblocks);
  }
  src.end_run();
}

}  // namespace
}  // namespace recode::spmv
