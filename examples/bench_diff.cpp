// bench_diff — the bench regression gate: compares a freshly produced
// recode-bench-v1 (or recode-run-v1) JSON against a committed baseline
// (BENCH_*.json) with per-metric tolerances and exits nonzero on any
// regression.
//
//   bench_diff --baseline=BENCH_streaming.json --fresh=/tmp/fresh.json
//              [--structural-only] [--ratio-tol=0.15] [--timing-tol=0.60]
//              [--inject-regression=<key>:<factor>]
//
// Metric classes (keyed by name, recode-bench-v1 "results"):
//   exact      — structure and correctness flags that must match bitwise:
//                bitwise_ok, conservation_ok, nnz, blocks, rhs,
//                cg_iterations_*, power_iterations, tasks_*, fused_*,
//                the graph-kernel structure keys (c_nnz, spgemm_products,
//                spgemm_rows_*, container_blocks, frontier_skip_ratio*,
//                frontier_nnz*, bfs_reached, bfs_max_level),
//                engine (string).
//   model      — deterministic model outputs (udp_*, *bytes_per_nnz,
//                decoded_mb, the run block's kernel-hop byte flows):
//                tight tolerance, portable across hosts.
//   ratio      — dimensionless measured quantities (speedup_*,
//                overlap_efficiency_*, cache_hit_rate_*): --ratio-tol,
//                direction-aware (only a worsening fails).
//   timing     — absolute wall times (*_ms, *_micros, *_seconds): the
//                loosest class (--timing-tol), also direction-aware.
//   skipped    — host-dependent keys (host_cores, degraded_*,
//                split_bands_*, cache_pinned_mb_*).
//
// Scaling-series keys (suffix _tN) are skipped when either file marks
// that point degraded_tN=1 — an oversubscribed host (8 workers on 1
// core) measures scheduling, not scaling, and must not read as a
// regression against a multi-core baseline (ROADMAP open item 1).
//
// --structural-only restricts the comparison to the exact and model
// classes — the deterministic, host-portable subset — for CI gating
// where absolute timings are meaningless across runner generations.
//
// --inject-regression=key:factor multiplies the FRESH value of `key`
// before comparing; it exists so the gate's failure path is testable
// (ctest asserts the injected 20% throughput drop trips it).
//
// A baseline key missing from the fresh file is a failure: silently
// dropped metrics are regressions of the report itself.
//
// Exit codes: 0 pass, 1 regression(s), 2 usage/parse error.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/minijson.h"
#include "common/table.h"

using namespace recode;
namespace mj = recode::minijson;

namespace {

enum class Class { kExact, kModel, kRatio, kTiming, kSkip, kString };

// Direction of "better" for direction-aware classes.
enum class Better { kHigher, kLower, kNone };

bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

bool starts_with(const std::string& s, const std::string& pre) {
  return s.compare(0, pre.size(), pre) == 0;
}

bool contains(const std::string& s, const std::string& sub) {
  return s.find(sub) != std::string::npos;
}

Class classify(const std::string& key) {
  if (key == "engine") return Class::kString;
  if (key == "host_cores" || starts_with(key, "degraded_") ||
      starts_with(key, "split_bands_") ||
      starts_with(key, "cache_pinned_mb")) {
    return Class::kSkip;
  }
  if (key == "bitwise_ok" || key == "conservation_ok" || key == "nnz" ||
      key == "blocks" || key == "rhs" || key == "power_iterations" ||
      starts_with(key, "cg_iterations") || starts_with(key, "tasks_") ||
      starts_with(key, "fused_") ||
      // Graph kernels: deterministic structure of the fixed-seed run.
      key == "c_nnz" || key == "spgemm_products" ||
      starts_with(key, "spgemm_rows_") || key == "container_blocks" ||
      starts_with(key, "frontier_skip_ratio") ||
      starts_with(key, "frontier_nnz") || key == "bfs_reached" ||
      key == "bfs_max_level") {
    return Class::kExact;
  }
  if (starts_with(key, "udp_") || contains(key, "bytes_per_nnz") ||
      key == "decoded_mb") {
    return Class::kModel;
  }
  if (ends_with(key, "_ms") || ends_with(key, "_micros") ||
      ends_with(key, "_seconds") || contains(key, "_ms_")) {
    return Class::kTiming;
  }
  return Class::kRatio;
}

Better direction(const std::string& key, Class cls) {
  if (cls == Class::kTiming) return Better::kLower;  // time: less is better
  if (starts_with(key, "speedup") || contains(key, "efficiency") ||
      contains(key, "hit_rate") || contains(key, "throughput")) {
    return Better::kHigher;
  }
  if (contains(key, "bytes_per_nnz") || key == "decoded_mb") {
    return Better::kLower;
  }
  return Better::kNone;  // symmetric: any drift beyond tol fails
}

double tolerance(Class cls, double ratio_tol, double timing_tol) {
  switch (cls) {
    case Class::kExact: return 0.0;
    case Class::kModel: return 1e-3;
    case Class::kRatio: return ratio_tol;
    case Class::kTiming: return timing_tol;
    default: return 0.0;
  }
}

const char* class_name(Class cls) {
  switch (cls) {
    case Class::kExact: return "exact";
    case Class::kModel: return "model";
    case Class::kRatio: return "ratio";
    case Class::kTiming: return "timing";
    case Class::kSkip: return "skip";
    case Class::kString: return "string";
  }
  return "?";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("bench_diff: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

mj::Value parse_file(const std::string& path) {
  bool ok = false;
  mj::Value v = mj::parse(read_file(path), ok);
  if (!ok || !v.is_object()) fail("bench_diff: " + path + " is not JSON");
  return v;
}

// The comparable numeric map of one file. recode-bench-v1 contributes
// its "results"; a "run" block (or a bare recode-run-v1 file)
// contributes its deterministic byte flows and roofline under "run."
// prefixed keys, plus run.conservation_ok.
struct Doc {
  std::string schema;
  std::vector<std::pair<std::string, double>> nums;
  std::vector<std::pair<std::string, std::string>> strs;

  bool has(const std::string& key) const {
    for (const auto& [k, v] : nums) {
      if (k == key) return true;
    }
    return false;
  }
  double num(const std::string& key) const {
    for (const auto& [k, v] : nums) {
      if (k == key) return v;
    }
    return std::nan("");
  }
};

void add_run_block(const mj::Value& run, Doc& doc) {
  if (run.has("conservation_ok")) {
    doc.nums.emplace_back("run.conservation_ok",
                          run.at("conservation_ok").boolean() ? 1.0 : 0.0);
  }
  if (run.has("hops")) {
    for (const auto& [hop, flow] : run.at("hops").object()) {
      for (const char* f : {"bytes_in", "bytes_out", "ops"}) {
        if (flow.has(f)) {
          const mj::Value& fv = flow.at(f);
          doc.nums.emplace_back("run.hops." + hop + "." + f,
                                fv.is_null() ? std::nan("") : fv.num());
        }
      }
    }
  }
  if (run.has("roofline")) {
    for (const auto& [k, v] : run.at("roofline").object()) {
      // Fractions depend on cache behavior (measured), byte ratios on
      // the codec (model); only the latter belong in the portable set.
      // JSON null is the NaN empty-input convention (stats.h) — keep
      // the key as NaN so it round-trips instead of reading as a
      // silently dropped metric.
      if ((v.is_number() || v.is_null()) && contains(k, "bytes_per")) {
        doc.nums.emplace_back("run.roofline." + k,
                              v.is_null() ? std::nan("") : v.num());
      }
    }
  }
}

Doc load_doc(const std::string& path) {
  const mj::Value v = parse_file(path);
  Doc doc;
  doc.schema = v.has("schema") ? v.at("schema").str() : "?";
  if (doc.schema == "recode-run-v1") {
    add_run_block(v, doc);
    return doc;
  }
  if (doc.schema != "recode-bench-v1") {
    fail("bench_diff: " + path + ": unknown schema " + doc.schema);
  }
  if (v.has("results")) {
    for (const auto& [k, r] : v.at("results").object()) {
      if (r.is_number()) {
        doc.nums.emplace_back(k, r.num());
      } else if (r.is_null()) {
        // JsonWriter emits null for non-finite doubles (the stats.h
        // NaN-when-empty convention); parse it back to NaN rather than
        // dropping the key, so null baselines round-trip.
        doc.nums.emplace_back(k, std::nan(""));
      } else if (r.is_string()) {
        doc.strs.emplace_back(k, r.str());
      }
    }
  }
  if (v.has("run")) add_run_block(v.at("run"), doc);
  return doc;
}

// run.* keys: the kernel hop consumes a workload-fixed byte count
// (nnz * 12 per multiply), so it and its roofline ratio are portable
// model outputs. The decode-side hops record how those bytes were
// *produced*, and on a cached workload the decode/cache split depends
// on hit/miss interleaving — measured, not modeled, so ratio class
// (and excluded from --structural-only).
Class classify_full(const std::string& key) {
  if (starts_with(key, "run.")) {
    if (key == "run.conservation_ok") return Class::kExact;
    if (starts_with(key, "run.hops.kernel.") ||
        key == "run.roofline.kernel_bytes_per_nnz") {
      return Class::kModel;
    }
    return Class::kRatio;
  }
  return classify(key);
}

bool degraded_point(const Doc& d, const std::string& key) {
  const std::size_t pos = key.rfind("_t");
  if (pos == std::string::npos) return false;
  for (std::size_t i = pos + 2; i < key.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(key[i]))) return false;
  }
  if (pos + 2 == key.size()) return false;
  const std::string flag = "degraded" + key.substr(pos);
  const auto check = [&](const Doc& doc) {
    return doc.has(flag) && doc.num(flag) != 0.0;
  };
  return check(d);
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string baseline_path =
      cli.get_string("baseline", "", "committed BENCH_*.json baseline");
  const std::string fresh_path =
      cli.get_string("fresh", "", "freshly produced bench/run JSON");
  const bool structural = cli.get_bool(
      "structural-only", false,
      "compare only the deterministic, host-portable metric classes");
  const double ratio_tol = cli.get_double(
      "ratio-tol", 0.15, "relative tolerance for dimensionless metrics");
  const double timing_tol = cli.get_double(
      "timing-tol", 0.60, "relative tolerance for absolute wall times");
  const std::string inject = cli.get_string(
      "inject-regression", "",
      "key:factor — scale the fresh value of `key` (gate self-test)");
  cli.done();
  if (baseline_path.empty() || fresh_path.empty()) {
    std::fprintf(stderr, "bench_diff: --baseline and --fresh are required\n");
    return 2;
  }

  Doc base = load_doc(baseline_path);
  Doc fresh = load_doc(fresh_path);

  if (!inject.empty()) {
    const std::size_t colon = inject.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "bench_diff: --inject-regression wants key:factor\n");
      return 2;
    }
    const std::string key = inject.substr(0, colon);
    const double factor = std::stod(inject.substr(colon + 1));
    bool found = false;
    for (auto& [k, v] : fresh.nums) {
      if (k == key) {
        v *= factor;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "bench_diff: inject key %s not in fresh file\n",
                   key.c_str());
      return 2;
    }
    std::fprintf(stderr, "[bench_diff] injected %s *= %g\n", key.c_str(),
                 factor);
  }

  Table t({"metric", "class", "baseline", "fresh", "delta", "verdict"});
  int regressions = 0;
  int compared = 0, skipped = 0;

  for (const auto& [key, expect] : base.strs) {
    std::string got;
    bool present = false;
    for (const auto& [k, v] : fresh.strs) {
      if (k == key) {
        got = v;
        present = true;
      }
    }
    const bool ok = present && got == expect;
    if (!ok) ++regressions;
    ++compared;
    t.add_row({key, "string", expect, present ? got : "(missing)", "-",
               ok ? "ok" : "FAIL"});
  }

  for (const auto& [key, base_v] : base.nums) {
    const Class cls = classify_full(key);
    if (cls == Class::kSkip) {
      ++skipped;
      continue;
    }
    if (structural && cls != Class::kExact && cls != Class::kModel) {
      ++skipped;
      continue;
    }
    if (degraded_point(base, key) || degraded_point(fresh, key)) {
      ++skipped;
      continue;
    }
    if (!fresh.has(key)) {
      ++regressions;
      ++compared;
      t.add_row({key, class_name(cls), Table::num(base_v, 4), "(missing)",
                 "-", "FAIL"});
      continue;
    }
    const double fresh_v = fresh.num(key);
    // NaN metrics (JSON null, the stats.h empty-input convention) are
    // compared by kind, not value: NaN vs NaN is a match ("still no
    // samples"), NaN vs a number in either direction is a real change
    // in what the bench measured and fails.
    if (std::isnan(base_v) || std::isnan(fresh_v)) {
      const bool ok = std::isnan(base_v) && std::isnan(fresh_v);
      if (!ok) ++regressions;
      ++compared;
      t.add_row({key, class_name(cls),
                 std::isnan(base_v) ? "null" : Table::num(base_v, 4),
                 std::isnan(fresh_v) ? "null" : Table::num(fresh_v, 4), "-",
                 ok ? "ok" : "FAIL"});
      continue;
    }
    const double tol = tolerance(cls, ratio_tol, timing_tol);
    const double denom = std::fabs(base_v) > 1e-12 ? std::fabs(base_v) : 1.0;
    const double rel = (fresh_v - base_v) / denom;
    bool ok;
    if (cls == Class::kExact) {
      ok = fresh_v == base_v;
    } else {
      switch (direction(key, cls)) {
        case Better::kHigher: ok = rel >= -tol; break;  // only drops fail
        case Better::kLower: ok = rel <= tol; break;    // only rises fail
        case Better::kNone: ok = std::fabs(rel) <= tol; break;
      }
    }
    if (!ok) ++regressions;
    ++compared;
    char delta[32];
    std::snprintf(delta, sizeof(delta), "%+.1f%%", rel * 100.0);
    t.add_row({key, class_name(cls), Table::num(base_v, 4),
               Table::num(fresh_v, 4), delta, ok ? "ok" : "FAIL"});
  }

  t.print();
  std::printf("bench_diff: %d compared, %d skipped, %d regression(s)%s\n",
              compared, skipped, regressions,
              structural ? " [structural-only]" : "");
  return regressions == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_diff: error: %s\n", e.what());
    return 2;
  }
}
