// Movement-ledger byte-conservation battery (ISSUE 8): every engine
// (serial RecodedSpmv, threaded StreamingExecutor) × {cold,
// warm-cached} × {single-codec, adaptive} pipeline must leave a run
// window whose flow graph passes the conservation check — stage-out ==
// next-stage-in down the codec chain, and decoded + cache-served ==
// kernel-consumed. With RECODE_TELEMETRY=OFF every window is all-zero
// and conserves trivially (the notelem build runs this file unchanged);
// the exact-byte assertions are gated on kEnabled.
//
// The ledger is process-global and monotonic, so each case works on the
// snapshot delta around its own workload; gtest runs cases sequentially
// and the multiplies inside a window are internally multi-threaded,
// which is exactly the production feeding pattern.
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codec/pipeline.h"
#include "common/minijson.h"
#include "common/prng.h"
#include "common/timer.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"
#include "spmv/streaming_executor.h"
#include "telemetry/telemetry.h"

namespace recode::telemetry {
namespace {

namespace mj = recode::minijson;

struct Combo {
  const char* name;
  spmv::DecodeEngine engine;
  codec::PipelineConfig pipeline;
};

std::vector<Combo> combos() {
  return {
      {"software/single", spmv::DecodeEngine::kSoftware,
       codec::PipelineConfig::udp_dsh()},
      {"software/adaptive", spmv::DecodeEngine::kSoftware,
       codec::PipelineConfig::udp_adaptive()},
      {"udp-sim/single", spmv::DecodeEngine::kUdpSimulated,
       codec::PipelineConfig::udp_dsh()},
      {"udp-sim/adaptive", spmv::DecodeEngine::kUdpSimulated,
       codec::PipelineConfig::udp_adaptive()},
  };
}

sparse::Csr test_matrix() {
  return sparse::gen_stencil2d(96, 96, sparse::ValueModel::kStencilCoeffs, 1);
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

// Snapshots the global ledger around `body` and builds the run report.
RunReport window(const std::string& label,
                 const std::function<void()>& body) {
  const LedgerSnapshot begin = MovementLedger::global().snapshot();
  Timer timer;
  body();
  return make_run_report(label, begin, MovementLedger::global().snapshot(),
                         timer.seconds());
}

void expect_conserves(const RunReport& r) {
  std::string why;
  EXPECT_TRUE(r.conservation_check(&why)) << r.label << ": " << why;
}

TEST(Ledger, SerialEngineColdConserves) {
  const sparse::Csr a = test_matrix();
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 3);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  for (const Combo& c : combos()) {
    const auto cm = codec::compress(a, c.pipeline);
    spmv::RecodedSpmv engine(cm, c.engine);
    const RunReport r = window(std::string("serial/") + c.name,
                               [&] { engine.multiply(x, y); });
    expect_conserves(r);
    if (!kEnabled) continue;
    // Cold serial run: the kernel consumed exactly one decode of the
    // matrix stream — nnz * (4B index + 8B value) — and the decode
    // chain, not the cache, supplied all of it.
    const auto& kernel = r.flows.hop(Hop::kKernel);
    EXPECT_EQ(kernel.bytes_in, a.nnz() * 12) << c.name;
    EXPECT_EQ(r.flows.kernel_nnz, a.nnz()) << c.name;
    EXPECT_EQ(r.flows.kernel_flops, 2 * a.nnz()) << c.name;
    EXPECT_EQ(r.flows.hop(Hop::kCache).bytes_out, 0u) << c.name;
    EXPECT_EQ(r.flows.hop(Hop::kTransform).bytes_out, kernel.bytes_in)
        << c.name;
    // Compression means the container hop read fewer bytes than the
    // transform hop produced.
    EXPECT_LT(r.flows.hop(Hop::kContainer).bytes_in, kernel.bytes_in)
        << c.name;
    EXPECT_GT(r.decode_served_fraction(), 0.99) << c.name;
  }
}

TEST(Ledger, StreamingExecutorColdConserves) {
  const sparse::Csr a = test_matrix();
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 5);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  for (const Combo& c : combos()) {
    const auto cm = codec::compress(a, c.pipeline);
    spmv::StreamingConfig cfg;
    cfg.engine = c.engine;
    cfg.decode_threads = 2;
    cfg.cache_budget_bytes = 0;  // cold every time
    spmv::StreamingExecutor exec(cm, cfg);
    const RunReport r = window(std::string("stream-cold/") + c.name,
                               [&] { exec.multiply(x, y); });
    expect_conserves(r);
    if (!kEnabled) continue;
    EXPECT_EQ(r.flows.hop(Hop::kKernel).bytes_in, a.nnz() * 12) << c.name;
    EXPECT_EQ(r.flows.hop(Hop::kCache).bytes_out, 0u) << c.name;
  }
}

TEST(Ledger, StreamingExecutorWarmCacheConserves) {
  const sparse::Csr a = test_matrix();
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 7);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  for (const Combo& c : combos()) {
    const auto cm = codec::compress(a, c.pipeline);
    spmv::StreamingConfig cfg;
    cfg.engine = c.engine;
    cfg.decode_threads = 2;
    cfg.cache_budget_bytes = SIZE_MAX;
    spmv::StreamingExecutor exec(cm, cfg);
    // One cold multiply (decodes and pins) + three warm ones inside the
    // same window: the mixed decode/cache flow must still balance.
    const RunReport r = window(std::string("stream-warm/") + c.name, [&] {
      for (int rep = 0; rep < 4; ++rep) exec.multiply(x, y);
    });
    expect_conserves(r);
    if (!kEnabled) continue;
    // 4 multiplies consumed 4 decodes' worth of matrix bytes...
    EXPECT_EQ(r.flows.hop(Hop::kKernel).bytes_in, 4 * a.nnz() * 12)
        << c.name;
    // ...and at an unlimited budget some of them came from the cache.
    EXPECT_GT(r.flows.hop(Hop::kCache).bytes_out, 0u) << c.name;
    EXPECT_GT(r.cache_served_fraction(), 0.0) << c.name;
    EXPECT_NEAR(r.cache_served_fraction() + r.decode_served_fraction(), 1.0,
                1e-12)
        << c.name;
  }
}

TEST(Ledger, WarmOnlyWindowConserves) {
  // Window opened after the cache is already hot: kernel bytes come
  // mostly (possibly entirely) from the cache hop, and the graph must
  // conserve with little to no decode traffic inside the window.
  const sparse::Csr a = test_matrix();
  const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 9);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  spmv::StreamingConfig cfg;
  cfg.decode_threads = 2;
  cfg.cache_budget_bytes = SIZE_MAX;
  spmv::StreamingExecutor exec(cm, cfg);
  for (int rep = 0; rep < 3; ++rep) exec.multiply(x, y);  // outside window
  const RunReport r = window("stream-warm-only", [&] {
    for (int rep = 0; rep < 2; ++rep) exec.multiply(x, y);
  });
  expect_conserves(r);
  if (!kEnabled) return;
  EXPECT_EQ(r.flows.hop(Hop::kKernel).bytes_in, 2 * a.nnz() * 12);
  EXPECT_GT(r.flows.hop(Hop::kCache).bytes_out, 0u);
}

TEST(Ledger, ScheduledWorkersConserve) {
  // Four threaded workers: the decode and kernel hops are fed from
  // several threads at once, each claiming bands from the one cursor.
  const sparse::Csr a = test_matrix();
  const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 11);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  spmv::StreamingConfig cfg;
  cfg.decode_threads = 2;
  cfg.compute_threads = 2;
  cfg.fused_inline_blocks = 1;     // don't take the inline path
  spmv::StreamingExecutor exec(cm, cfg);
  const RunReport r =
      window("stream-scheduled", [&] { exec.multiply(x, y); });
  expect_conserves(r);
  if (!kEnabled) return;
  EXPECT_EQ(r.flows.hop(Hop::kKernel).bytes_in, a.nnz() * 12);
}

TEST(Ledger, BatchMultiplyConserves) {
  // SpMM (k right-hand sides): per-block kernel bytes scale the vector
  // traffic and flops by k while the matrix stream is consumed once.
  const sparse::Csr a = test_matrix();
  const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
  constexpr int k = 3;
  const auto x =
      random_vector(static_cast<std::size_t>(a.cols) * k, 13);
  std::vector<double> y(static_cast<std::size_t>(a.rows) * k);
  spmv::RecodedSpmv engine(cm);
  const RunReport r =
      window("serial-batch", [&] { engine.multiply_batch(x, y, k); });
  expect_conserves(r);
  if (!kEnabled) return;
  EXPECT_EQ(r.flows.hop(Hop::kKernel).bytes_in, a.nnz() * 12);
  EXPECT_EQ(r.flows.kernel_flops, 2 * a.nnz() * k);
}

TEST(Ledger, DecodeOnlyWindowConserves) {
  // No kernel ran: the transform-out == kernel-in edge is skipped and a
  // pure decode pass is a legal flow graph (rcm_tool info --report).
  const sparse::Csr a = test_matrix();
  const auto cm = codec::compress(a, codec::PipelineConfig::udp_adaptive());
  std::vector<sparse::index_t> indices;
  std::vector<double> values;
  const RunReport r = window("decode-only", [&] {
    for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
      codec::decompress_block(cm, b, indices, values);
    }
  });
  expect_conserves(r);
  if (!kEnabled) return;
  EXPECT_EQ(r.flows.hop(Hop::kKernel).ops, 0u);
  EXPECT_EQ(r.flows.hop(Hop::kTransform).bytes_out, a.nnz() * 12);
  EXPECT_EQ(r.flows.hop(Hop::kContainer).ops, cm.blocks.size());
}

TEST(Ledger, TamperedFlowsFailTheCheck) {
  // The check must actually bite: a synthetic graph that balances
  // passes, and breaking any single edge fails with a diagnostic.
  // Plain-struct snapshots, so this runs identically under notelem.
  LedgerSnapshot s;
  const auto set = [&](Hop h, std::uint64_t in, std::uint64_t out) {
    auto& f = s.hops[static_cast<int>(h)];
    f.bytes_in = in;
    f.bytes_out = out;
    f.ops = 1;
  };
  set(Hop::kContainer, 110, 100);
  set(Hop::kHuffman, 100, 150);
  set(Hop::kSnappy, 150, 200);
  set(Hop::kTransform, 200, 240);
  set(Hop::kCache, 60, 60);
  set(Hop::kKernel, 300, 80);  // 240 decoded + 60 cache-served
  s.kernel_nnz = 25;
  RunReport r;
  r.label = "synthetic";
  r.wall_seconds = 1.0;
  r.flows = s;
  expect_conserves(r);

  for (int h = 0; h < kHopCount; ++h) {
    RunReport broken = r;
    // Every hop's outflow feeds an edge except the kernel's (bytes_out
    // is the result rows written — the graph's sink); tamper with what
    // the kernel consumed instead.
    if (static_cast<Hop>(h) == Hop::kKernel) {
      broken.flows.hops[h].bytes_in += 1;
    } else {
      broken.flows.hops[h].bytes_out += 1;
    }
    std::string why;
    EXPECT_FALSE(broken.conservation_check(&why))
        << "hop " << hop_name(static_cast<Hop>(h))
        << " tamper went undetected";
    EXPECT_FALSE(why.empty());
  }

  // Cache inserting more than was ever decoded is also a violation.
  RunReport over = r;
  over.flows.hops[static_cast<int>(Hop::kCache)].bytes_in = 500;
  EXPECT_FALSE(over.conservation_check());
}

TEST(Ledger, RunReportJsonSchema) {
  const sparse::Csr a = test_matrix();
  const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 17);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  spmv::RecodedSpmv engine(cm);
  RunReport r = window("json-schema", [&] { engine.multiply(x, y); });
  r.engine = "software";
  r.host_cores = 4;

  bool ok = false;
  const mj::Value doc = mj::parse(r.to_json_string(), ok);
  ASSERT_TRUE(ok) << "run report JSON failed to parse";
  EXPECT_EQ(doc.at("schema").str(), "recode-run-v1");
  EXPECT_EQ(doc.at("label").str(), "json-schema");
  EXPECT_EQ(doc.at("engine").str(), "software");
  EXPECT_DOUBLE_EQ(doc.at("host_cores").num(), 4.0);
  EXPECT_TRUE(doc.at("conservation_ok").boolean());
  for (int h = 0; h < kHopCount; ++h) {
    const mj::Value& hop = doc.at("hops").at(hop_name(static_cast<Hop>(h)));
    for (const char* f : {"bytes_in", "bytes_out", "ns", "ops", "wall_gbps"}) {
      EXPECT_TRUE(hop.has(f)) << f;
    }
  }
  for (const char* f :
       {"compressed_bytes_per_nnz", "decoded_bytes_per_nnz",
        "kernel_bytes_per_nnz", "arithmetic_intensity",
        "cache_served_fraction", "decode_served_fraction"}) {
    EXPECT_TRUE(doc.at("roofline").has(f)) << f;
  }
  if (kEnabled) {
    EXPECT_DOUBLE_EQ(doc.at("hops").at("kernel").at("bytes_in").num(),
                     static_cast<double>(a.nnz() * 12));
    EXPECT_NEAR(doc.at("roofline").at("decoded_bytes_per_nnz").num(), 12.0,
                1e-9);
  }
  // The table renderer names every hop and gives a verdict.
  const std::string table = r.render_table();
  for (int h = 0; h < kHopCount; ++h) {
    EXPECT_NE(table.find(hop_name(static_cast<Hop>(h))), std::string::npos);
  }
  EXPECT_NE(table.find("conservation"), std::string::npos);
}

}  // namespace
}  // namespace recode::telemetry
