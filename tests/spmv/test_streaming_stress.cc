// Concurrency stress for the streaming executor's error and shutdown
// paths: randomized worker counts and band sizes, and mid-stream
// corruption injected with the CorruptionEngine. The contract under
// test: a run always ends — every worker exits, nothing deadlocks or
// leaks — and the first recode::Error is rethrown on the caller's
// thread. Warmed multiplies additionally run under a global operator-new
// counting hook asserting the zero-steady-state-allocation guarantee,
// cold-decode and cache-served alike. Runs under the sanitize preset
// (and the tsan preset) via the `concurrency` ctest label.
#include "spmv/streaming_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "codec/fast_decode.h"
#include "codec/pipeline.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "testing/corrupt.h"

// ---------------------------------------------------------------------------
// Global allocation-counting hook (same pattern as test_fast_decode.cc).
// Every heap allocation in this binary bumps the counter; the steady-state
// test snapshots it around warmed multiply loops.
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

using codec::PipelineConfig;
using sparse::Csr;

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

Csr stress_matrix(std::uint64_t seed) {
  return sparse::gen_fem_like(2400, 9, 120, sparse::ValueModel::kSmoothField,
                              seed);
}

StreamingConfig random_config(Prng& prng, DecodeEngine engine) {
  StreamingConfig cfg;
  cfg.engine = engine;
  cfg.decode_threads = 1 + prng.next_below(7);
  cfg.compute_threads = 1 + prng.next_below(3);
  cfg.blocks_per_band = 1 + prng.next_below(5);
  return cfg;
}

TEST(StreamingStress, CleanRunsAcrossRandomConfigs) {
  const std::uint64_t seed = test_seed(41);
  Prng prng(seed);
  const Csr a = stress_matrix(seed);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 1);
  std::vector<double> y_serial(static_cast<std::size_t>(a.rows));
  RecodedSpmv serial(cm);
  serial.multiply(x, y_serial);

  for (int iter = 0; iter < 12; ++iter) {
    StreamingExecutor exec(cm,
                           random_config(prng, DecodeEngine::kSoftware));
    std::vector<double> y(y_serial.size());
    exec.multiply(x, y);
    ASSERT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                             y.size() * sizeof(double)))
        << "iter " << iter;
  }
}

// A block whose index stream is replaced by an empty payload is
// guaranteed to fail decode (size mismatch) — the deterministic
// mid-stream fault for asserting the rethrow path.
TEST(StreamingStress, MidStreamErrorRethrowsOnCallerAndDrains) {
  const std::uint64_t seed = test_seed(42);
  Prng prng(seed);
  const Csr a = stress_matrix(seed + 7);
  const auto clean = codec::compress(a, PipelineConfig::udp_dsh());
  ASSERT_GT(clean.blocks.size(), 6u);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 2);
  std::vector<double> y(static_cast<std::size_t>(a.rows));

  for (int iter = 0; iter < 10; ++iter) {
    auto cm = clean;
    // Fault a block somewhere past the first band so decode is mid-stream
    // with other bands already in flight when it fires.
    const std::size_t bad =
        1 + prng.next_below(static_cast<std::uint64_t>(cm.blocks.size() - 1));
    cm.blocks[bad].index_data.clear();
    StreamingExecutor exec(cm, random_config(prng, DecodeEngine::kSoftware));
    EXPECT_THROW(exec.multiply(x, y), recode::Error) << "iter " << iter;
    // The run must have ended: a second call on the same executor
    // throws again instead of deadlocking on a stuck worker.
    EXPECT_THROW(exec.multiply(x, y), recode::Error) << "iter " << iter;
  }
}

TEST(StreamingStress, CorruptionEngineInjectionNeverHangsOrCrashes) {
  const std::uint64_t seed = test_seed(43);
  Prng prng(seed);
  testing::CorruptionEngine corrupter(seed);
  const Csr a = stress_matrix(seed + 11);
  const auto clean = codec::compress(a, PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 3);
  std::vector<double> y(static_cast<std::size_t>(a.rows));

  int threw = 0, completed = 0;
  for (const auto kind : testing::kAllCorruptionKinds) {
    for (int variant = 0; variant < 4; ++variant) {
      auto cm = clean;
      const std::size_t bad =
          prng.next_below(static_cast<std::uint64_t>(cm.blocks.size()));
      auto& block = cm.blocks[bad];
      // Corrupt one of the two streams; splice uses the sibling stream.
      if (prng.next_below(2) == 0) {
        block.index_data =
            corrupter.apply(kind, block.index_data, block.value_data);
      } else {
        block.value_data =
            corrupter.apply(kind, block.value_data, block.index_data);
      }
      StreamingExecutor exec(cm,
                             random_config(prng, DecodeEngine::kSoftware));
      // Any outcome but a hang, crash, or sanitizer report is acceptable:
      // either the corruption is detected (recode::Error on the caller
      // thread) or the stream still decodes to a well-formed block.
      try {
        exec.multiply(x, y);
        ++completed;
      } catch (const recode::Error&) {
        ++threw;
      }
    }
  }
  // The corruption model is adversarial enough that at least one variant
  // must trip the decode checks (seed-independent: empty/truncated and
  // length-tampered streams always do).
  EXPECT_GT(threw, 0);
  SUCCEED() << threw << " rejected, " << completed << " decoded clean";
}

TEST(StreamingStress, UdpEngineMidStreamErrorRethrows) {
  const std::uint64_t seed = test_seed(44);
  Prng prng(seed);
  const Csr a = sparse::gen_banded(900, 7, 0.8,
                                   sparse::ValueModel::kFewDistinct, seed);
  auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  ASSERT_GT(cm.blocks.size(), 2u);
  cm.blocks[cm.blocks.size() - 1].value_data.clear();
  const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 4);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  StreamingConfig cfg = random_config(prng, DecodeEngine::kUdpSimulated);
  StreamingExecutor exec(cm, cfg);
  EXPECT_THROW(exec.multiply(x, y), recode::Error);
}

// Mid-stream faults against the band runner's claim cursor. The faulting
// worker moves the cursor past the end, so no worker claims another
// band; the rethrow comes once every worker has returned, and the
// executor must stay usable (throwing again, not deadlocking).
TEST(StreamingStress, MidStreamFaultRethrowsAndExecutorStaysUsable) {
  const std::uint64_t seed = test_seed(46);
  Prng prng(seed);
  const Csr a = stress_matrix(seed + 17);
  const auto clean = codec::compress(a, PipelineConfig::udp_dsh());
  ASSERT_GT(clean.blocks.size(), 6u);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 5);
  std::vector<double> y(static_cast<std::size_t>(a.rows));

  for (int iter = 0; iter < 12; ++iter) {
    auto cm = clean;
    // One to three faulted blocks scattered mid-stream: whichever worker
    // hits one first wins the gate's first-error slot; the rest must not
    // deadlock the drain.
    const int faults = 1 + static_cast<int>(prng.next_below(3));
    for (int f = 0; f < faults; ++f) {
      const std::size_t bad = 1 + prng.next_below(static_cast<std::uint64_t>(
                                      cm.blocks.size() - 1));
      cm.blocks[bad].index_data.clear();
    }
    StreamingConfig cfg = random_config(prng, DecodeEngine::kSoftware);
    cfg.fused_inline_blocks = 0;  // keep the threaded runner engaged
    StreamingExecutor exec(cm, cfg);
    EXPECT_THROW(exec.multiply(x, y), recode::Error) << "iter=" << iter;
    EXPECT_THROW(exec.multiply(x, y), recode::Error) << "iter=" << iter;
  }
}

// The warmed software/no-cache steady state performs ZERO heap
// allocations per multiply. Everything persistent — worker team, decode
// arenas, task id vectors, telemetry series — is built during
// construction or the warm runs; after that the only per-run work is
// resetting the claim cursor, decoding into grown arenas, and
// accumulating.
TEST(StreamingStress, WarmFusedMultiplyIsAllocationFree) {
  const std::uint64_t seed = test_seed(47);
  const Csr a = stress_matrix(seed + 29);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 6);
  std::vector<double> y_serial(static_cast<std::size_t>(a.rows));
  RecodedSpmv serial(cm);
  serial.multiply(x, y_serial);

  StreamingConfig cfg;
  cfg.engine = DecodeEngine::kSoftware;
  cfg.decode_threads = 3;
  cfg.compute_threads = 1;
  cfg.blocks_per_band = 2;
  cfg.fused_inline_blocks = 0;      // threaded runner + team engaged
  cfg.cache_budget_bytes = 0;       // no cache copies
  StreamingExecutor exec(cm, cfg);
  std::vector<double> y(y_serial.size());
  // Warm runs: spawn the team, grow every worker's arenas to the largest
  // block, register the telemetry series, and cover both serpentine scan
  // directions.
  exec.multiply(x, y);
  exec.multiply(x, y);

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 4; ++rep) {
    exec.multiply(x, y);
  }
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations across 4 warmed multiplies";
  ASSERT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                           y.size() * sizeof(double)));
  EXPECT_FALSE(exec.last_stats().inline_run);
}

// The cache-served steady state (the graph SpMM shape: a power-law
// matrix, k = 16, unlimited budget, no inline shortcut) is
// allocation-free too: once every band is
// pinned, a warm multiply only looks bands up and accumulates from the
// pinned copies, on the same persistent runner as a cold one.
TEST(StreamingStress, WarmCachedBatchIsAllocationFree) {
  const std::uint64_t seed = test_seed(48);
  const Csr a =
      sparse::gen_powerlaw(4000, 6.0, 0.9, sparse::ValueModel::kRandom, seed);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  constexpr int k = 16;
  const auto x = random_vector(static_cast<std::size_t>(a.cols) * k, seed + 8);
  std::vector<double> y_serial(static_cast<std::size_t>(a.rows) * k);
  RecodedSpmv serial(cm);
  serial.multiply_batch(x, y_serial, k);

  StreamingConfig cfg;
  cfg.decode_threads = 3;
  cfg.compute_threads = 1;
  cfg.blocks_per_band = 2;  // several tasks, so the team really runs
  cfg.fused_inline_blocks = 0;
  cfg.cache_budget_bytes = SIZE_MAX;
  StreamingExecutor exec(cm, cfg);
  std::vector<double> y(y_serial.size());
  // Warm runs: pin every band and cover both serpentine directions.
  for (int rep = 0; rep < 3; ++rep) exec.multiply_batch(x, y, k);

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 4; ++rep) exec.multiply_batch(x, y, k);
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << (after - before)
                                << " heap allocations across 4 warmed "
                                   "cache-served batch multiplies";
  ASSERT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                           y.size() * sizeof(double)));
  EXPECT_EQ(exec.last_stats().blocks_decoded, 0u);
  EXPECT_EQ(exec.last_stats().cache_hit_bands, exec.bands().size());
  EXPECT_FALSE(exec.last_stats().inline_run);
}

}  // namespace
}  // namespace recode::spmv
