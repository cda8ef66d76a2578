// rcm_tool — command-line utility around the ".rcm" compressed-matrix
// container: compress a Matrix Market file (or a generated matrix),
// inspect a container, verify it on the UDP simulator, or decompress
// back to Matrix Market.
//
//   rcm_tool --mode=compress   --mtx in.mtx --out m.rcm [--pipeline dsh|ds|snappy|vsh|adaptive|auto] [--index]
//   rcm_tool --mode=info       --rcm m.rcm [--report[=r.json]]
//   rcm_tool --mode=verify     --rcm m.rcm [--udp]
//   rcm_tool --mode=decompress --rcm m.rcm --out out.mtx
//   rcm_tool --mode=spgemm     --rcm a.rcm [--rcm-b b.rcm] --out c.rcm [--threads N]
//
// With no --mtx, compress generates a demo FEM-like matrix first.
// info --report runs one decode pass through the movement ledger and
// prints the byte-flow table (recode-run-v1 JSON too when given a path).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "codec/container.h"
#include "codec/pipeline.h"
#include "codec/registry.h"
#include "codec/selector.h"
#include "common/cli.h"
#include "common/table.h"
#include "common/timer.h"
#include "sparse/generators.h"
#include "sparse/matrix_market.h"
#include "sparse/stats.h"
#include "spmv/spgemm.h"
#include "telemetry/telemetry.h"
#include "udpprog/matrix_decoder.h"

using namespace recode;

namespace {

codec::PipelineConfig pipeline_by_name(const std::string& name,
                                       const sparse::Csr& csr) {
  if (name == "dsh") return codec::PipelineConfig::udp_dsh();
  if (name == "ds") return codec::PipelineConfig::udp_ds();
  if (name == "snappy") return codec::PipelineConfig::cpu_snappy();
  if (name == "vsh") return codec::PipelineConfig::udp_vsh();
  if (name == "adaptive") return codec::PipelineConfig::udp_adaptive();
  if (name == "auto") return codec::select_pipeline(csr);
  fail("unknown --pipeline: " + name + " (dsh|ds|snappy|vsh|adaptive|auto)");
}

int mode_compress(const std::string& mtx, const std::string& out,
                  const std::string& pipeline, bool with_index) {
  sparse::Csr csr;
  if (mtx.empty()) {
    std::printf("no --mtx given; generating a demo FEM-like matrix\n");
    csr = sparse::gen_fem_like(30000, 13, 300,
                               sparse::ValueModel::kSmoothField, 1);
  } else {
    csr = sparse::coo_to_csr(sparse::read_matrix_market_file(mtx));
  }
  const auto cfg = pipeline_by_name(pipeline, csr);
  const auto cm = codec::compress(csr, cfg);
  codec::write_compressed_file(out, cm, with_index);
  if (with_index) {
    std::printf("block-offset index: %zu entries + footer appended\n",
                cm.blocks.size() + 1);
  }
  std::printf("%s: %d x %d, %zu nnz -> %s\n",
              mtx.empty() ? "generated" : mtx.c_str(), csr.rows, csr.cols,
              csr.nnz(), out.c_str());
  std::printf("pipeline: index=%s snappy=%d huffman=%d, %zu blocks of %zu "
              "nnz\n",
              codec::transform_name(cfg.index_transform), cfg.snappy,
              cfg.huffman, cm.blocks.size(), cfg.nnz_per_block);
  std::printf("%.2f bytes/nnz (%.1f%% of 12 B/nnz CSR)\n", cm.bytes_per_nnz(),
              100.0 * cm.bytes_per_nnz() / 12.0);
  return 0;
}

int mode_info(const std::string& rcm, const std::string& report) {
  const auto cm = codec::read_compressed_file(rcm);
  Table t({"field", "value"});
  t.add_row({"rows", std::to_string(cm.rows)});
  t.add_row({"cols", std::to_string(cm.cols)});
  t.add_row({"nnz", std::to_string(cm.nnz())});
  t.add_row({"blocks", std::to_string(cm.blocks.size())});
  t.add_row({"nnz/block", std::to_string(cm.config.nnz_per_block)});
  t.add_row({"index transform",
             codec::transform_name(cm.config.index_transform)});
  t.add_row({"value transform",
             codec::transform_name(cm.config.value_transform)});
  t.add_row({"snappy", cm.config.snappy ? "yes" : "no"});
  t.add_row({"huffman", cm.config.huffman ? "yes" : "no"});
  t.add_row({"codec selection",
             codec::codec_selection_name(cm.config.selection)});
  std::size_t switched = 0;
  const auto base_id = codec::codec_id_for(cm.config);
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    if (cm.block_codec_id(b) != base_id) ++switched;
  }
  t.add_row({"blocks off baseline codec", std::to_string(switched)});
  t.add_row({"stream bytes", std::to_string(cm.stream_bytes())});
  t.add_row({"bytes/nnz", Table::num(cm.bytes_per_nnz(), 3)});
  // The block-offset index out-of-core sources navigate by: footer-backed
  // when compress ran with --index, otherwise reconstructed here by one
  // scan of the record framing (what an index-less open would do).
  const auto layout = codec::read_container_layout_file(rcm);
  t.add_row({"block index",
             layout.index.from_footer ? "footer" : "scanned (no footer)"});
  if (layout.index.from_footer) {
    t.add_row({"index bytes",
               std::to_string(layout.file_size -
                              layout.index.offsets.back())});
  }
  if (!layout.index.offsets.empty()) {
    std::uint64_t max_extent = 0;
    for (std::size_t b = 0; b < layout.index.block_count(); ++b) {
      max_extent = std::max(max_extent, layout.index.extent_bytes(b));
    }
    t.add_row({"block section offset",
               std::to_string(layout.block_section_offset)});
    t.add_row({"largest block extent", std::to_string(max_extent)});
  }
  t.print();

  if (!report.empty()) {
    // One full decode pass inside a ledger window. No kernel runs, so
    // the conservation check stops at the transform hop (a decode-only
    // run is a legal flow graph).
    const auto begin = telemetry::MovementLedger::global().snapshot();
    Timer timer;
    std::vector<sparse::index_t> indices;
    std::vector<double> values;
    for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
      codec::decompress_block(cm, b, indices, values);
    }
    auto run = telemetry::make_run_report(
        "rcm_tool info " + rcm, begin,
        telemetry::MovementLedger::global().snapshot(), timer.seconds());
    run.engine = "software";
    run.host_cores = static_cast<int>(std::thread::hardware_concurrency());
    std::printf("%s", run.render_table().c_str());
    // A bare --report parses as the value "true": print only. Anything
    // else is a path for the recode-run-v1 JSON.
    if (report != "true") {
      telemetry::write_run_report_file(report, run);
      std::printf("wrote run report to %s\n", report.c_str());
    }
    if (!run.conservation_check()) return 1;
  }
  return 0;
}

int mode_verify(const std::string& rcm, bool udp) {
  const auto cm = codec::read_compressed_file(rcm);
  const sparse::Csr csr = codec::decompress(cm);  // throws on corruption
  csr.validate();
  std::printf("software decode: OK (%zu nnz, %zu blocks)\n", csr.nnz(),
              cm.blocks.size());
  if (udp) {
    udpprog::MatrixDecodeOptions opts;
    opts.max_sampled_blocks = 32;
    const auto result = udpprog::simulate_matrix_decode(cm, &csr, opts);
    std::printf("UDP simulator: OK (%zu blocks simulated, %.1f us/block, "
                "%.1f GB/s on 64 lanes)\n",
                result.simulated_blocks, result.mean_block_micros,
                result.throughput_bytes_per_sec / 1e9);
  }
  return 0;
}

// C = A * B between containers, written straight back to a container
// through the streaming writer (C's compressed form never sits in RAM).
// With no --rcm-b the tool squares A (B = A), the Galerkin-style default.
int mode_spgemm(const std::string& rcm, const std::string& rcm_b,
                const std::string& out, const std::string& pipeline,
                std::size_t threads) {
  if (rcm.empty()) fail("spgemm needs --rcm=<A container>");
  const auto a = codec::read_compressed_file(rcm);
  // Gustavson needs random row access into B: decode it once up front.
  const sparse::Csr b = rcm_b.empty()
                            ? codec::decompress(a)
                            : codec::decompress(codec::read_compressed_file(rcm_b));
  // "auto" selects C's pipeline from B's structure — C's sparsity is the
  // Gustavson expansion of B's rows, so B is the proxy available before
  // the multiply runs.
  const auto out_cfg = pipeline_by_name(pipeline, b);
  spmv::SpgemmConfig cfg;
  cfg.threads = threads;
  spmv::SpgemmStats stats;
  Timer timer;
  const auto wr = spmv::spgemm_to_container(out, a, nullptr, b, out_cfg, cfg,
                                            &stats);
  const double ms = timer.seconds() * 1e3;
  std::printf("%s x %s -> %s\n", rcm.c_str(),
              rcm_b.empty() ? rcm.c_str() : rcm_b.c_str(), out.c_str());
  std::printf("%llu products, %llu bitmap-walk rows, %llu sorted-list rows, "
              "%zu tasks on %zu workers, %.1f ms\n",
              static_cast<unsigned long long>(stats.products),
              static_cast<unsigned long long>(stats.rows_dense),
              static_cast<unsigned long long>(stats.rows_merge),
              stats.tasks, stats.workers, ms);
  std::printf("C: %zu blocks, %llu payload bytes\n", wr.block_count,
              static_cast<unsigned long long>(wr.payload_bytes));
  return 0;
}

int mode_decompress(const std::string& rcm, const std::string& out) {
  const auto cm = codec::read_compressed_file(rcm);
  const sparse::Csr csr = codec::decompress(cm);
  sparse::write_matrix_market_file(out, sparse::csr_to_coo(csr));
  std::printf("%s -> %s (%zu nnz)\n", rcm.c_str(), out.c_str(), csr.nnz());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string mode = cli.get_string(
      "mode", "compress", "compress | info | verify | decompress | spgemm");
  const std::string mtx =
      cli.get_string("mtx", "", "Matrix Market input (compress)");
  const std::string rcm = cli.get_string(
      "rcm", "", "container input (info/verify/decompress/spgemm)");
  const std::string rcm_b = cli.get_string(
      "rcm-b", "", "spgemm: B container (default: square --rcm)");
  const auto threads = static_cast<std::size_t>(
      cli.get_int("threads", 1, "spgemm: worker threads"));
  const std::string out =
      cli.get_string("out", "matrix.rcm", "output path");
  const std::string pipeline = cli.get_string(
      "pipeline", "dsh", "dsh | ds | snappy | vsh | adaptive | auto (compress)");
  const bool udp =
      cli.get_bool("udp", false, "also verify on the UDP simulator");
  const bool with_index = cli.get_bool(
      "index", false,
      "compress: append the block-offset index + footer for out-of-core "
      "sources");
  const std::string report = cli.get_string(
      "report", "",
      "info: decode once and print the movement-ledger table; give a "
      "path to also write the recode-run-v1 JSON");
  cli.done();

  try {
    if (mode == "compress") return mode_compress(mtx, out, pipeline, with_index);
    if (mode == "info") return mode_info(rcm, report);
    if (mode == "verify") return mode_verify(rcm, udp);
    if (mode == "decompress") return mode_decompress(rcm, out);
    if (mode == "spgemm") {
      return mode_spgemm(rcm, rcm_b, out, pipeline, threads);
    }
    fail("unknown --mode: " + mode);
  } catch (const Error& e) {
    // Malformed input (a corrupt or truncated container) must end in a
    // diagnostic and a failing exit code, not std::terminate.
    std::fprintf(stderr, "rcm_tool: error: %s\n", e.what());
    return 1;
  }
}
