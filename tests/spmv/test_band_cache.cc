// Decoded-band cache suite (ISSUE 5): BandCache policy unit tests (LRU
// order, byte budget, admission, eviction, clear) plus executor-level
// behaviour — warm runs decode zero blocks at an unlimited budget, a
// budget smaller than one band pins nothing, eviction churns under a
// tight budget, set_engine invalidates — all while staying bitwise
// identical to the uncached serial engine.
#include "spmv/band_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "codec/pipeline.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/streaming_executor.h"

namespace recode::spmv {
namespace {

using codec::PipelineConfig;
using sparse::Csr;

std::shared_ptr<const CachedBand> fake_band(std::size_t nnz) {
  auto band = std::make_shared<CachedBand>();
  band->blocks.resize(1);
  band->blocks[0].indices.resize(nnz);
  band->blocks[0].values.resize(nnz);
  band->bytes = decoded_band_bytes(nnz);
  return band;
}

TEST(BandCachePolicy, InsertLookupAndByteAccounting) {
  BandCache cache(decoded_band_bytes(100));
  EXPECT_EQ(cache.lookup(0), nullptr);
  ASSERT_TRUE(cache.insert(0, fake_band(40)));
  ASSERT_TRUE(cache.insert(1, fake_band(60)));
  EXPECT_NE(cache.lookup(0), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  const auto st = cache.stats();
  EXPECT_EQ(st.bands_pinned, 2u);
  EXPECT_EQ(st.bytes_pinned, decoded_band_bytes(100));
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 2u);
  EXPECT_EQ(st.evictions, 0u);
}

TEST(BandCachePolicy, RefusesOversizedAndZeroByteBands) {
  BandCache cache(decoded_band_bytes(10));
  EXPECT_FALSE(cache.admissible(0));
  EXPECT_FALSE(cache.admissible(decoded_band_bytes(11)));
  EXPECT_TRUE(cache.admissible(decoded_band_bytes(10)));
  EXPECT_FALSE(cache.insert(0, fake_band(11)));
  auto empty = std::make_shared<CachedBand>();  // bytes == 0
  EXPECT_FALSE(cache.insert(1, std::move(empty)));
  EXPECT_EQ(cache.stats().bands_pinned, 0u);
  EXPECT_EQ(cache.stats().bytes_pinned, 0u);
}

TEST(BandCachePolicy, EvictsLeastRecentlyUsedFirst) {
  // Three 30-nnz bands fit a 100-nnz budget; inserting a fourth must
  // evict exactly the least recently *touched* one.
  BandCache cache(decoded_band_bytes(100));
  ASSERT_TRUE(cache.insert(0, fake_band(30)));
  ASSERT_TRUE(cache.insert(1, fake_band(30)));
  ASSERT_TRUE(cache.insert(2, fake_band(30)));
  // Touch 0 and 2 so band 1 is the LRU victim.
  EXPECT_NE(cache.lookup(0), nullptr);
  EXPECT_NE(cache.lookup(2), nullptr);
  ASSERT_TRUE(cache.insert(3, fake_band(30)));
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(0), nullptr);
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bands_pinned, 3u);
}

TEST(BandCachePolicy, EvictsMultipleVictimsForOneLargeInsert) {
  BandCache cache(decoded_band_bytes(100));
  ASSERT_TRUE(cache.insert(0, fake_band(30)));
  ASSERT_TRUE(cache.insert(1, fake_band(30)));
  ASSERT_TRUE(cache.insert(2, fake_band(30)));
  ASSERT_TRUE(cache.insert(3, fake_band(90)));
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(cache.stats().bands_pinned, 1u);
  EXPECT_EQ(cache.stats().bytes_pinned, decoded_band_bytes(90));
  EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(BandCachePolicy, ReinsertReplacesExistingEntry) {
  BandCache cache(decoded_band_bytes(100));
  ASSERT_TRUE(cache.insert(0, fake_band(40)));
  ASSERT_TRUE(cache.insert(0, fake_band(70)));
  EXPECT_EQ(cache.stats().bands_pinned, 1u);
  EXPECT_EQ(cache.stats().bytes_pinned, decoded_band_bytes(70));
  const auto band = cache.lookup(0);
  ASSERT_NE(band, nullptr);
  EXPECT_EQ(band->bytes, decoded_band_bytes(70));
}

TEST(BandCachePolicy, EvictedBandSurvivesWhileReferenced) {
  // shared_ptr ownership is the mid-run eviction safety story: a holder
  // of a served band keeps the data alive after the cache drops it.
  BandCache cache(decoded_band_bytes(50));
  ASSERT_TRUE(cache.insert(0, fake_band(50)));
  const auto held = cache.lookup(0);
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(cache.insert(1, fake_band(50)));  // evicts band 0
  EXPECT_EQ(cache.lookup(0), nullptr);
  EXPECT_EQ(held->blocks[0].indices.size(), 50u);  // still alive
}

TEST(BandCachePolicy, RunProtectionShieldsUntouchedResidents) {
  // The threaded executor touches every band once per run in an order
  // the workers' claims do not fix. Bands resident at a begin_run()
  // boundary must survive until this run consumes them — an insert that
  // would need their bytes is refused, not serviced by thrashing.
  BandCache cache(decoded_band_bytes(100));
  cache.begin_run();
  ASSERT_TRUE(cache.insert(0, fake_band(30)));
  ASSERT_TRUE(cache.insert(1, fake_band(30)));
  ASSERT_TRUE(cache.insert(2, fake_band(30)));
  cache.begin_run();
  // All three residents are owed a visit this run: no victim available.
  EXPECT_FALSE(cache.insert(3, fake_band(30)));
  EXPECT_EQ(cache.stats().bands_pinned, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Once the run consumes band 0 it becomes an ordinary LRU victim,
  // while untouched 1 and 2 stay shielded.
  EXPECT_NE(cache.lookup(0), nullptr);
  ASSERT_TRUE(cache.insert(3, fake_band(30)));
  EXPECT_EQ(cache.lookup(0), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(BandCachePolicy, ProtectionLapsesAfterAnIdleRun) {
  // A band that sits out an entire run is dead weight for a shifted
  // working set — protection covers one run boundary, not forever.
  BandCache cache(decoded_band_bytes(50));
  cache.begin_run();
  ASSERT_TRUE(cache.insert(0, fake_band(50)));
  cache.begin_run();  // band 0 protected: owed a visit this run
  EXPECT_FALSE(cache.insert(1, fake_band(50)));
  cache.begin_run();  // band 0 went untouched a full run: victim again
  ASSERT_TRUE(cache.insert(1, fake_band(50)));
  EXPECT_EQ(cache.lookup(0), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
}

TEST(BandCachePolicy, RefusedInsertLeavesReplacementIntact) {
  // Re-inserting a band that is itself resident must not drop the old
  // copy when the insert is refused for lack of unprotected victims.
  BandCache cache(decoded_band_bytes(100));
  cache.begin_run();
  ASSERT_TRUE(cache.insert(0, fake_band(40)));
  ASSERT_TRUE(cache.insert(1, fake_band(60)));
  cache.begin_run();
  // Replacing band 0 with a bigger copy needs band 1's bytes too, but
  // band 1 is protected — refuse, and band 0 must still be served.
  EXPECT_FALSE(cache.insert(0, fake_band(80)));
  const auto band = cache.lookup(0);
  ASSERT_NE(band, nullptr);
  EXPECT_EQ(band->bytes, decoded_band_bytes(40));
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.stats().bytes_pinned, decoded_band_bytes(100));
}

TEST(BandCachePolicy, ClearDropsEverything) {
  BandCache cache(decoded_band_bytes(100));
  ASSERT_TRUE(cache.insert(0, fake_band(30)));
  ASSERT_TRUE(cache.insert(1, fake_band(30)));
  cache.clear();
  EXPECT_EQ(cache.stats().bands_pinned, 0u);
  EXPECT_EQ(cache.stats().bytes_pinned, 0u);
  EXPECT_EQ(cache.lookup(0), nullptr);
  EXPECT_EQ(cache.lookup(1), nullptr);
}

// --- Executor-level behaviour ---

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

struct Fixture {
  Csr a;
  codec::CompressedMatrix cm;
  std::vector<double> x;
  std::vector<double> y_serial;

  // A 2-D stencil: short rows, so block boundaries frequently align with
  // row boundaries and the partitioner yields several row bands (the
  // regime the cache tests need — fem-like matrices can collapse to one
  // giant band).
  explicit Fixture(std::uint64_t seed = 11, sparse::index_t nx = 90,
                   sparse::index_t ny = 100)
      : a(sparse::gen_stencil2d(nx, ny, sparse::ValueModel::kFewDistinct,
                                seed)),
        cm(codec::compress(a, PipelineConfig::udp_dsh())),
        x(random_vector(static_cast<std::size_t>(a.cols), seed + 1)),
        y_serial(static_cast<std::size_t>(a.rows)) {
    RecodedSpmv serial(cm);
    serial.multiply(x, y_serial);
  }

  std::size_t total_decoded_bytes() const {
    return decoded_band_bytes(a.nnz());
  }

  void expect_matches_serial(StreamingExecutor& exec,
                             const std::string& what) const {
    std::vector<double> y(y_serial.size(), -7.0);
    exec.multiply(x, y);
    ASSERT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                             y.size() * sizeof(double)))
        << what;
  }
};

TEST(BandCacheExecutor, WarmRunsServeEveryBandWithoutDecoding) {
  const Fixture f;
  StreamingConfig cfg;
  cfg.decode_threads = 4;
  cfg.compute_threads = 2;
  cfg.blocks_per_band = 2;
  cfg.cache_budget_bytes = SIZE_MAX;  // unlimited: everything pins
  StreamingExecutor exec(f.cm, cfg);

  f.expect_matches_serial(exec, "cold pass");
  const auto cold = exec.last_stats();
  EXPECT_EQ(cold.cache_hit_bands, 0u);
  EXPECT_EQ(cold.cache_miss_bands, exec.bands().size());
  EXPECT_EQ(cold.blocks_decoded, f.cm.blocks.size());
  EXPECT_EQ(cold.cache_bytes_pinned, f.total_decoded_bytes());

  for (int pass = 0; pass < 3; ++pass) {
    f.expect_matches_serial(exec, "warm pass " + std::to_string(pass));
    const auto warm = exec.last_stats();
    EXPECT_EQ(warm.cache_hit_bands, exec.bands().size());
    EXPECT_EQ(warm.cache_miss_bands, 0u);
    EXPECT_EQ(warm.cache_hit_blocks, f.cm.blocks.size());
    EXPECT_EQ(warm.blocks_decoded, 0u);    // no codec work at all
    EXPECT_EQ(warm.compressed_bytes, 0u);  // no compressed bytes moved
  }
  const auto st = exec.cache_stats();
  EXPECT_EQ(st.bands_pinned, exec.bands().size());
  EXPECT_EQ(st.evictions, 0u);
}

TEST(BandCacheExecutor, BudgetSmallerThanAnyBandPinsNothing) {
  const Fixture f;
  StreamingConfig cfg;
  cfg.decode_threads = 2;
  cfg.blocks_per_band = 4;
  cfg.cache_budget_bytes = 8;  // smaller than any band's decoded bytes
  StreamingExecutor exec(f.cm, cfg);
  for (int pass = 0; pass < 2; ++pass) {
    f.expect_matches_serial(exec, "pass " + std::to_string(pass));
    const auto stats = exec.last_stats();
    EXPECT_EQ(stats.cache_hit_bands, 0u);
    EXPECT_EQ(stats.cache_bytes_pinned, 0u);
    EXPECT_EQ(stats.blocks_decoded, f.cm.blocks.size());
  }
  EXPECT_EQ(exec.cache_stats().inserts, 0u);
}

TEST(BandCacheExecutor, TightBudgetEvictsAndStaysCorrect) {
  const Fixture f;
  ASSERT_GT(f.cm.blocks.size(), 4u);
  StreamingConfig cfg;
  cfg.decode_threads = 3;
  cfg.compute_threads = 2;
  cfg.blocks_per_band = 1;
  // Roughly a quarter of the matrix fits: bands pin and evict each other
  // pass after pass, and output must not care.
  cfg.cache_budget_bytes = f.total_decoded_bytes() / 4;
  StreamingExecutor exec(f.cm, cfg);
  for (int pass = 0; pass < 4; ++pass) {
    f.expect_matches_serial(exec, "pass " + std::to_string(pass));
  }
  const auto st = exec.cache_stats();
  EXPECT_GT(st.inserts, 0u);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes_pinned, cfg.cache_budget_bytes);
}

TEST(BandCacheExecutor, PartialBudgetMixesHitsAndDecodesBitwiseCorrectly) {
  const Fixture f;
  for (const auto engine :
       {DecodeEngine::kSoftware, DecodeEngine::kUdpSimulated}) {
    StreamingConfig cfg;
    cfg.engine = engine;
    cfg.decode_threads = 4;
    cfg.compute_threads = 2;
    cfg.blocks_per_band = 2;
    cfg.cache_budget_bytes = f.total_decoded_bytes() / 2;
    StreamingExecutor exec(f.cm, cfg);
    for (int pass = 0; pass < 3; ++pass) {
      f.expect_matches_serial(
          exec, std::string(decode_engine_name(engine)) + " pass " +
                    std::to_string(pass));
    }
    // Warm passes must serve at least one band from the cache...
    EXPECT_GT(exec.last_stats().cache_hit_bands, 0u);
    // ...while the budget bound holds.
    EXPECT_LE(exec.cache_stats().bytes_pinned, cfg.cache_budget_bytes);
  }
}

TEST(BandCacheExecutor, SetEngineInvalidatesPinnedBands) {
  const Fixture f;
  StreamingConfig cfg;
  cfg.decode_threads = 2;
  cfg.cache_budget_bytes = SIZE_MAX;
  StreamingExecutor exec(f.cm, cfg);
  f.expect_matches_serial(exec, "software cold");
  ASSERT_GT(exec.cache_stats().bands_pinned, 0u);

  exec.set_engine(DecodeEngine::kUdpSimulated);
  EXPECT_EQ(exec.cache_stats().bands_pinned, 0u);
  EXPECT_EQ(exec.cache_stats().bytes_pinned, 0u);

  // Cold again under the new engine, then warm — and still correct.
  f.expect_matches_serial(exec, "udp cold");
  EXPECT_EQ(exec.last_stats().cache_hit_bands, 0u);
  f.expect_matches_serial(exec, "udp warm");
  EXPECT_EQ(exec.last_stats().cache_hit_bands, exec.bands().size());

  // Same-engine set is a no-op: the cache stays warm.
  exec.set_engine(DecodeEngine::kUdpSimulated);
  EXPECT_GT(exec.cache_stats().bands_pinned, 0u);
}

TEST(BandCacheExecutor, ClearCacheForcesReWarm) {
  const Fixture f;
  StreamingConfig cfg;
  cfg.decode_threads = 2;
  cfg.cache_budget_bytes = SIZE_MAX;
  StreamingExecutor exec(f.cm, cfg);
  f.expect_matches_serial(exec, "cold");
  f.expect_matches_serial(exec, "warm");
  ASSERT_EQ(exec.last_stats().blocks_decoded, 0u);
  exec.clear_cache();
  EXPECT_EQ(exec.cache_stats().bands_pinned, 0u);
  f.expect_matches_serial(exec, "re-warm");
  EXPECT_EQ(exec.last_stats().blocks_decoded, f.cm.blocks.size());
}

TEST(BandCacheExecutor, DisabledCacheReportsZeroStats) {
  const Fixture f;
  StreamingConfig cfg;  // cache_budget_bytes defaults to 0 (off)
  cfg.decode_threads = 2;
  StreamingExecutor exec(f.cm, cfg);
  f.expect_matches_serial(exec, "uncached");
  const auto stats = exec.last_stats();
  EXPECT_EQ(stats.cache_hit_bands, 0u);
  EXPECT_EQ(stats.cache_miss_bands, 0u);
  EXPECT_EQ(stats.cache_bytes_pinned, 0u);
  const auto st = exec.cache_stats();
  EXPECT_EQ(st.bands_pinned, 0u);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 0u);
}

TEST(BandCacheExecutor, CachedBatchMultiplyMatchesSerialBatch) {
  const Fixture f;
  constexpr int k = 4;
  const auto x = random_vector(
      static_cast<std::size_t>(f.a.cols) * static_cast<std::size_t>(k), 31);
  std::vector<double> y_serial(static_cast<std::size_t>(f.a.rows) *
                               static_cast<std::size_t>(k));
  RecodedSpmv serial(f.cm);
  serial.multiply_batch(x, y_serial, k);

  StreamingConfig cfg;
  cfg.decode_threads = 3;
  cfg.compute_threads = 2;
  cfg.cache_budget_bytes = SIZE_MAX;
  StreamingExecutor exec(f.cm, cfg);
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<double> y(y_serial.size(), -3.0);
    exec.multiply_batch(x, y, k);
    ASSERT_EQ(0, std::memcmp(y.data(), y_serial.data(),
                             y.size() * sizeof(double)))
        << "pass " << pass;
  }
  EXPECT_EQ(exec.last_stats().blocks_decoded, 0u);
}

// The concurrency-label stressor the tsan preset repeats: many passes
// over one executor with a churn-inducing budget and uneven thread
// counts, asserting bitwise correctness each time.
TEST(BandCacheExecutor, ConcurrentChurnStress) {
  const Fixture f(29, 120, 130);  // larger grid: more bands to cycle
  // Budget sized off the actual band partition: every band admissible,
  // but only ~2 of the largest fit at once — guaranteed churn.
  const auto bands = make_row_bands(f.cm.blocking, 1);
  ASSERT_GT(bands.size(), 3u);
  std::size_t max_band_bytes = 0;
  for (const auto& band : bands) {
    std::size_t nnz = 0;
    for (std::size_t b = 0; b < band.block_count; ++b) {
      nnz += static_cast<std::size_t>(
          f.cm.blocking.blocks[band.first_block + b].count);
    }
    max_band_bytes = std::max(max_band_bytes, decoded_band_bytes(nnz));
  }
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    StreamingConfig cfg;
    cfg.decode_threads = threads;
    cfg.compute_threads = 2;
    cfg.blocks_per_band = 1;
    cfg.cache_budget_bytes = 2 * max_band_bytes;
    StreamingExecutor exec(f.cm, cfg);
    for (int pass = 0; pass < 6; ++pass) {
      f.expect_matches_serial(exec, "threads " + std::to_string(threads) +
                                        " pass " + std::to_string(pass));
    }
    EXPECT_GT(exec.cache_stats().evictions, 0u);
  }
}

}  // namespace
}  // namespace recode::spmv
