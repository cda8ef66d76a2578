// Microbenchmarks for the SpMV kernels and the recoded executor.
//
// Two tables:
//   - the plain-CSR host kernels (serial, parallel, merge-based) and the
//     recoded serial multiply (decode + kernel) on a FEM-like matrix, in
//     GFLOP/s;
//   - the accumulate kernel alone (spmv::accumulate_block_batch over
//     pre-decoded blocks, nothing decoded in the timed loop) on three
//     structures — FEM-like, circuit (~4 nnz/row) and a shuffled power-law
//     graph — at k = 1, 3, 4 and 16 right-hand sides. Short rows, odd k
//     (k = 3 takes two column-tile passes) and the wide gathers of k = 16
//     each stress a different part of the kernel.
//
// --json writes every number as a recode-bench-v1 result
// (kernel_gflops_<matrix>_k<k>, csr_*_gflops, recoded_gflops).
#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "codec/pipeline.h"
#include "common/thread_pool.h"
#include "sparse/generators.h"
#include "sparse/reorder.h"
#include "spmv/kernels.h"
#include "spmv/recoded.h"

namespace recode::bench {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = prng.next_double() * 2.0 - 1.0;
  return x;
}

// gen_powerlaw numbers its hubs first; relabel the vertices with a
// seeded random permutation so the gathers carry no degree order.
sparse::Csr shuffled_powerlaw(sparse::index_t n, std::uint64_t seed) {
  const sparse::Csr g =
      sparse::gen_powerlaw(n, 8.0, 0.9, sparse::ValueModel::kRandom, seed);
  std::vector<sparse::index_t> perm(static_cast<std::size_t>(n));
  for (sparse::index_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  Prng prng(seed + 3);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[prng.next_below(i)]);
  }
  return sparse::permute_symmetric(g, perm);
}

double gflops(std::size_t nnz, int k, double seconds) {
  return 2.0 * static_cast<double>(nnz) * k / seconds / 1e9;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = static_cast<sparse::index_t>(
      cli.get_int("n", 50000, "rows of the FEM-like matrix (CSR table)"));
  const auto kernel_n = static_cast<sparse::index_t>(cli.get_int(
      "kernel-n", 200000, "rows of each kernel-sweep matrix"));
  const int reps =
      static_cast<int>(cli.get_int("reps", 5, "timed repetitions (best-of)"));
  const double min_ms = cli.get_double(
      "min-ms", 100.0, "minimum measured milliseconds per timing sample");
  const auto env_seed = test_seed(7);
  const auto seed = static_cast<std::uint64_t>(cli.get_int(
      "seed", static_cast<std::int64_t>(env_seed),
      "matrix generator seed (default honors RECODE_TEST_SEED)"));
  BenchReport report(cli, "micro_spmv");
  cli.done();
  const double min_s = min_ms / 1e3;

  print_header("micro_spmv",
               "host CSR kernels, recoded multiply, accumulate kernel sweep");

  // --- Host CSR kernels and the recoded multiply on one FEM-like matrix.
  {
    const sparse::Csr a = sparse::gen_fem_like(
        n, 12, n / 50 + 8, sparse::ValueModel::kSmoothField, seed);
    const auto x = random_vector(static_cast<std::size_t>(a.cols), seed + 1);
    std::vector<double> y(static_cast<std::size_t>(a.rows));
    ThreadPool pool;
    const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
    spmv::RecodedSpmv recoded(cm);

    Table table({"kernel", "nnz", "GFLOP/s"});
    const auto record = [&](const std::string& name, double seconds) {
      const double g = gflops(a.nnz(), 1, seconds);
      table.add_row({name, std::to_string(a.nnz()), Table::num(g, 3)});
      report.add_result(name + "_gflops", g);
    };
    record("csr_serial",
           best_seconds(reps, min_s, [&] { spmv::spmv_csr(a, x, y); }));
    record("csr_parallel", best_seconds(reps, min_s, [&] {
             spmv::spmv_csr_parallel(a, x, y, pool);
           }));
    record("csr_merge", best_seconds(reps, min_s, [&] {
             spmv::spmv_csr_merge(a, x, y, pool);
           }));
    // The one conservation-checked ledger window: every block decoded
    // here reaches the kernel.
    report.run_begin("micro_spmv", "software");
    record("recoded", best_seconds(reps, min_s,
                                   [&] { recoded.multiply(x, y); }));
    report.run_end();
    report.add_result("nnz", static_cast<double>(a.nnz()));
    table.print();
  }

  // --- The accumulate kernel alone, over pre-decoded blocks.
  struct Case {
    const char* name;
    sparse::Csr a;
  };
  const Case cases[] = {
      {"fem", sparse::gen_fem_like(kernel_n, 12, kernel_n / 50 + 8,
                                   sparse::ValueModel::kSmoothField, seed)},
      {"circuit",
       sparse::gen_circuit(kernel_n, 3, sparse::ValueModel::kRandom, seed)},
      {"powerlaw", shuffled_powerlaw(kernel_n, seed)},
  };
  const int ks[] = {1, 3, 4, 16};
  Table sweep({"matrix", "nnz/row", "k", "GFLOP/s"});
  for (const Case& c : cases) {
    const auto cm = codec::compress(c.a, codec::PipelineConfig::udp_dsh());
    const std::size_t nb = cm.blocking.block_count();
    std::vector<std::vector<sparse::index_t>> idx(nb);
    std::vector<std::vector<double>> val(nb);
    for (std::size_t b = 0; b < nb; ++b) {
      codec::decompress_block(cm, b, idx[b], val[b]);
    }
    const double per_row = static_cast<double>(c.a.nnz()) /
                           static_cast<double>(c.a.rows);
    for (const int k : ks) {
      const auto kk = static_cast<std::size_t>(k);
      const auto x = random_vector(static_cast<std::size_t>(c.a.cols) * kk,
                                   seed + 2);
      std::vector<double> y(static_cast<std::size_t>(c.a.rows) * kk);
      const double s = best_seconds(reps, min_s, [&] {
        for (std::size_t b = 0; b < nb; ++b) {
          spmv::accumulate_block_batch(cm.blocking.blocks[b], cm.row_ptr,
                                       idx[b], val[b], x, y, k);
        }
      });
      const double g = gflops(c.a.nnz(), k, s);
      sweep.add_row({c.name, Table::num(per_row, 1), std::to_string(k),
                     Table::num(g, 3)});
      report.add_result("kernel_gflops_" + std::string(c.name) + "_k" +
                            std::to_string(k),
                        g);
    }
  }
  sweep.print();

  const bool conservation_ok = report.run_conservation_ok();
  report.add_result("conservation_ok", conservation_ok ? 1.0 : 0.0);
  report.write();
  print_expected(
      "CSR SpMV is memory-bound (Fig 3: ~16.7 GFLOP/s on the paper's "
      "32-core host); per-nnz kernel work is amortized over k, so GFLOP/s "
      "rises with k until the k-wide x gathers saturate the memory system.");
  return conservation_ok ? 0 : 1;
}

}  // namespace
}  // namespace recode::bench

int main(int argc, char** argv) { return recode::bench::run(argc, argv); }
