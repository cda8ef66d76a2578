// perfbench: the repository benchmark binary.
//
//   perfbench --workload cg-mesh|spmm-graph|spgemm-write --seed N
//             --seconds S --trace 0|1 [--tiny] [--corrupt]
//             [--work-dir DIR]
//
// Prints host and size lines, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// without a result on bad arguments or a setup failure.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>

#include "harness/bench.h"
#include "harness/workloads.h"

namespace perfbench {

void record_run_facts(Metrics& m, const Options& o, const Loop& loop,
                      const recode::codec::CompressedMatrix& cm,
                      const std::vector<double>& compress_s,
                      std::size_t threads) {
  m.set("codec.compress_s", median(compress_s));
  m.set("codec.encode_mb_s",
        12.0 * static_cast<double>(cm.nnz()) / 1e6 / median(compress_s));
  m.set("telemetry.trace_overhead_frac", loop.times(Loop::kTraced).p50() /
                                             loop.times(Loop::kUntraced).p50() - 1.0);
  m.set("host.threads_started", static_cast<double>(threads));
  m.set("run.seed", static_cast<double>(o.seed));
}

void record_executor(Metrics& m, const ExecutorTotals& t,
                     const recode::codec::CompressedMatrix& cm, double op_ms_p50) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, t.ops));
  const double workers = static_cast<double>(t.workers);
  m.set("spmv.busy_s_per_op", t.busy_s / ops);
  m.set("spmv.blocked_s_per_op", t.blocked_s / ops);
  m.set("spmv.utilization", t.wall_s > 0 ? t.busy_s / (t.wall_s * workers) : 0.0);
  m.set("spmv.steals", t.steals / ops);
  m.set("spmv.tasks", t.tasks / ops);
  m.set("spmv.fused", t.fused_ops / ops);
  const double block_bytes = 12.0 * static_cast<double>(cm.nnz()) /
                             static_cast<double>(cm.blocks.size());
  m.set("codec.decoded_mb_per_op", t.blocks_decoded / ops * block_bytes / 1e6);
  m.set("spmv.parallel_efficiency", m.get("spmv.serial_ms") / (workers * op_ms_p50));
  m.set("spmv.x_of_csr", op_ms_p50 / m.get("spmv.csr_par_ms"));
}

void record_latency(Metrics& m, const OpTimes& times) {
  const std::vector<double>& op_ms = times.op_ms();
  m.set("op_ms_p50", times.p50());
  m.set("op_ms_p90", times.p90());
  m.set("ops_per_s", times.ops_per_s());
  std::printf("ops: %zu timed; p50 %.3f ms, p90 %.3f ms (whole-run p90 %.3f), "
              "%.3f ops/s\n",
              op_ms.size(), times.p50(), times.p90(), quantile(op_ms, 0.9),
              times.ops_per_s());
}

void finish_trace(const SpanLog& log, const Options& o) {
  std::map<std::string, std::size_t> counts;
  for (const SpanLog::Span& s : log.spans()) ++counts[s.name];
  std::printf("%-28s %10s %12s %12s\n", "span", "count", "total s", "self s");
  for (const auto& [name, count] : counts) {
    std::printf("%-28s %10zu %12.6f %12.6f\n", name.c_str(), count,
                log.total_seconds(name.c_str()), log.self_seconds(name.c_str()));
  }
  log.write_chrome_trace(o.work_dir + "/" + o.workload + "-trace.json");
}

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload cg-mesh|spmm-graph|"
               "spgemm-write --seed N --seconds S --trace 0|1 [--tiny] "
               "[--corrupt] [--work-dir DIR]\n",
               msg);
  return 1;
}

int run(int argc, char** argv) {
  Options o;
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (arg == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
    given.insert(arg);
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!given.count(required)) return usage(("missing " + std::string(required)).c_str());
  }
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  Outcome (*workload)(const Options&, Metrics&) = nullptr;
  if (o.workload == "cg-mesh") workload = run_cg_mesh;
  if (o.workload == "spmm-graph") workload = run_spmm_graph;
  if (o.workload == "spgemm-write") workload = run_spgemm_write;
  if (!workload) return usage(("unknown workload " + o.workload).c_str());

  std::printf("perfbench %s: seed %llu, %.3g s, trace %d; host nproc %zu, "
              "LLC %.1f MB\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, host_nproc(),
              static_cast<double>(host_llc_bytes()) / 1e6);
  if (o.trace) {
    std::printf("kernel byte counts (spmv.kernel_gbps) are computed from "
                "nnz, rows and k, not measured\n");
  }
  Metrics m;
  const Outcome outcome = workload(o, m);
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "perfbench: no op completed in %.3g s\n", o.seconds);
    return 1;
  }
  std::fflush(stdout);
  std::printf("%s\n", m.result_json(outcome, o.trace).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // One malloc arena: with the default per-thread arenas, the per-op
  // SpGEMM teams land in a varying set of arenas and peak RSS swings by
  // ~30% from run to run (33 vs 43 MB on spgemm-write).
  mallopt(M_ARENA_MAX, 1);
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", e.what());
    return 1;
  }
}
