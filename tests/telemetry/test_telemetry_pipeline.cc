// Telemetry <-> pipeline integration: instrumentation must observe, not
// perturb. Tracing on vs off leaves StreamingExecutor output bitwise
// identical; the registry counters advance in step with the executor's
// own accounting; and the band runner's tail-wait samples land in the
// histogram the bench --json output exports.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "codec/pipeline.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/streaming_executor.h"
#include "telemetry/telemetry.h"

namespace recode::spmv {
namespace {

sparse::Csr test_matrix(std::uint64_t seed) {
  return sparse::gen_fem_like(4000, 10, 90, sparse::ValueModel::kSmoothField,
                              seed);
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

TEST(TelemetryPipeline, TracingDoesNotChangeSpmvOutput) {
  const sparse::Csr a = test_matrix(11);
  const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 12);

  StreamingConfig cfg;
  cfg.decode_threads = 2;
  cfg.compute_threads = 2;
  StreamingExecutor exec(cm, cfg);

  std::vector<double> y_off(static_cast<std::size_t>(a.rows));
  telemetry::Tracer::global().stop();
  exec.multiply(x, y_off);

  std::vector<double> y_on(y_off.size());
  telemetry::Tracer::global().start();
  exec.multiply(x, y_on);
  telemetry::Tracer::global().stop();

  EXPECT_EQ(std::memcmp(y_on.data(), y_off.data(),
                        y_on.size() * sizeof(double)),
            0)
      << "tracing changed SpMV output";
  if (telemetry::kEnabled) {
    // The traced run recorded the decode/accumulate spans.
    EXPECT_GT(telemetry::Tracer::global().event_count(), 0u);
  } else {
    EXPECT_EQ(telemetry::Tracer::global().event_count(), 0u);
  }
}

TEST(TelemetryPipeline, CountersTrackExecutorAccounting) {
  auto& reg = telemetry::MetricsRegistry::global();
  reg.reset();

  const sparse::Csr a = test_matrix(21);
  const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 22);
  std::vector<double> y(static_cast<std::size_t>(a.rows));

  StreamingConfig cfg;
  cfg.decode_threads = 2;
  cfg.fused_inline_blocks = 0;  // force the threaded path
  StreamingExecutor exec(cm, cfg);
  exec.multiply(x, y);

  telemetry::Counter& blocks = reg.counter("spmv.stream.blocks_decoded");
  telemetry::Counter& bytes = reg.counter("spmv.stream.compressed_bytes");
  telemetry::Counter& runs = reg.counter("spmv.stream.runs");
  if (!telemetry::kEnabled) {
    EXPECT_EQ(blocks.value(), 0u);
    EXPECT_EQ(runs.value(), 0u);
    return;
  }
  EXPECT_EQ(blocks.value(), exec.blocks_decoded());
  EXPECT_EQ(bytes.value(), exec.compressed_bytes_streamed());
  EXPECT_EQ(runs.value(), 1u);

  // Runner accounting closes: the run scheduled every band, and each
  // worker's tail wait is one acquire-wait sample per threaded run.
  const std::size_t workers = cfg.decode_threads + cfg.compute_threads;
  EXPECT_EQ(reg.counter("spmv.tasks.scheduled").value(),
            exec.bands().size());
  EXPECT_EQ(reg.histogram("spmv.sched.acquire_wait_us").count(), workers);
  exec.multiply(x, y);
  EXPECT_EQ(reg.histogram("spmv.sched.acquire_wait_us").count(),
            2 * workers);

  // The blocked-time split the overlap analysis consumes is populated,
  // and the run reports the runner's view of itself.
  const auto& st = exec.last_stats();
  EXPECT_GE(st.decode_blocked_seconds, 0.0);
  EXPECT_GE(st.compute_blocked_seconds, 0.0);
  EXPECT_TRUE(st.fused);
  EXPECT_FALSE(st.inline_run);
  EXPECT_EQ(st.workers, workers);
  EXPECT_EQ(st.steals, 0u);  // nothing is stolen from one claim cursor
}

// Schema contract: the bench/solver JSON consumers read the executor's
// task counters and the band runner's tail-wait histogram, and retired
// series — the per-band queues, and the steal counters and deque
// occupancy of the work-stealing scheduler the claim cursor replaced —
// must never reappear under any name.
TEST(TelemetryPipeline, SnapshotSchemaExportsRunnerSeriesNotRetiredOnes) {
  auto& reg = telemetry::MetricsRegistry::global();
  reg.reset();

  const sparse::Csr a = test_matrix(41);
  const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 42);
  std::vector<double> y(static_cast<std::size_t>(a.rows));

  StreamingConfig cfg;
  cfg.decode_threads = 3;
  cfg.compute_threads = 1;
  cfg.fused_inline_blocks = 0;  // threaded runner engaged
  StreamingExecutor exec(cm, cfg);
  exec.multiply(x, y);

  const telemetry::MetricsSnapshot snap = reg.snapshot();

  // The retired queue series died with the bounded-queue designs (the
  // per-band queues, then the ready/free slab queues), and the steal
  // series with the work-stealing scheduler; nothing may register under
  // their prefixes again — in the telemetry-off build either
  // (instruments still register by name there, they just never record).
  const std::string json = snap.to_json();
  for (const std::string prefix :
       {"spmv.band_queue.", "spmv.ready_queue.", "spmv.free_queue.",
        "spmv.steal.", "spmv.sched.deque"}) {
    EXPECT_EQ(json.find(prefix), std::string::npos)
        << "retired series " << prefix << " resurfaced in the JSON export";
    for (const auto& [n, v] : snap.counters) {
      EXPECT_NE(n.rfind(prefix, 0), 0u) << n;
    }
    for (const auto& h : snap.histograms) {
      EXPECT_NE(h.name.rfind(prefix, 0), 0u) << h.name;
    }
  }
  if (!telemetry::kEnabled) return;

  const auto has_counter = [&](const char* name) {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return true;
    }
    return false;
  };
  const auto has_histogram = [&](const char* name) {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return true;
    }
    return false;
  };

  // The executor and runner series the bench JSON exports.
  for (const char* name :
       {"spmv.stream.runs", "spmv.exec.fused_runs", "spmv.exec.inline_runs",
        "spmv.tasks.scheduled", "spmv.tasks.split_bands"}) {
    EXPECT_TRUE(has_counter(name)) << "missing counter " << name;
  }
  EXPECT_TRUE(has_histogram("spmv.sched.acquire_wait_us"));

  // And the JSON export carries the live series end-to-end.
  EXPECT_NE(json.find("spmv.tasks.scheduled"), std::string::npos);
  EXPECT_NE(json.find("spmv.sched.acquire_wait_us"), std::string::npos);
}

TEST(TelemetryPipeline, CodecStageCountersAttributeBytes) {
  auto& reg = telemetry::MetricsRegistry::global();
  reg.reset();

  const sparse::Csr a = test_matrix(31);
  const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
  if (!telemetry::kEnabled) {
    EXPECT_EQ(reg.counter("codec.encode.blocks").value(), 0u);
    return;
  }
  EXPECT_EQ(reg.counter("codec.encode.blocks").value(), cm.blocks.size());
  // The transform stage consumed exactly the raw index+value bytes.
  EXPECT_EQ(reg.counter("codec.encode.transform.bytes_in").value(),
            cm.nnz() * (sizeof(sparse::index_t) + sizeof(double)));

  // Decode it back: per-stage decode counters mirror the block count and
  // reproduce the raw bytes at the transform stage's output.
  codec::decompress(cm);
  EXPECT_EQ(reg.counter("codec.decode.blocks").value(), cm.blocks.size());
  EXPECT_EQ(reg.counter("codec.decode.transform.bytes_out").value(),
            cm.nnz() * (sizeof(sparse::index_t) + sizeof(double)));
}

}  // namespace
}  // namespace recode::spmv
