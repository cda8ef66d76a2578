// Shared helpers for the figure-reproduction bench binaries.
//
// Every fig*/abl* binary prints: a header naming the paper figure it
// regenerates, an aligned table with one row per matrix (or sweep point),
// summary geomeans, and an "EXPECTED (paper)" line quoting the published
// result so the shape comparison is one glance.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "sparse/suite.h"
#include "telemetry/json_writer.h"
#include "telemetry/telemetry.h"

namespace recode::bench {

inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

// "Fig 14" -> "fig14": CSV/file-friendly experiment ids.
inline std::string slug(const std::string& figure) {
  std::string out;
  for (char c : figure) {
    if (c == ' ') continue;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

inline void print_expected(const std::string& text) {
  std::printf("EXPECTED (paper): %s\n", text.c_str());
}

// Suite options shared by the collection-wide benches (Figs 10-13).
// Defaults are sized for a single-core CI host; --count=369 --max-nnz=8e8
// reproduces the paper's full sweep given time.
inline sparse::SuiteOptions suite_options_from_cli(Cli& cli,
                                                   int default_count) {
  sparse::SuiteOptions opts;
  opts.count = static_cast<int>(cli.get_int(
      "count", default_count,
      "matrices in the synthetic TAMU-like collection (paper: 369)"));
  opts.min_nnz = static_cast<std::size_t>(cli.get_int(
      "min-nnz", 100000, "smallest matrix nnz (paper: 1e6)"));
  opts.max_nnz = static_cast<std::size_t>(cli.get_int(
      "max-nnz", 1000000, "largest matrix nnz (paper: 8e8)"));
  // --seed wins; otherwise RECODE_TEST_SEED (logged) overrides the default
  // so randomized bench/smoke failures are reproducible.
  const std::uint64_t env_seed = test_seed(2019);
  opts.seed = static_cast<std::uint64_t>(cli.get_int(
      "seed", static_cast<std::int64_t>(env_seed),
      "suite generator seed (default honors RECODE_TEST_SEED)"));
  if (opts.seed != env_seed) {
    std::fprintf(stderr, "[recode] --seed=%llu overrides the logged seed\n",
                 static_cast<unsigned long long>(opts.seed));
  }
  return opts;
}

// --threads flag shared by benches with a measured (as opposed to
// modelled) execution mode. Logged to stderr next to the seed line so a
// recorded run names both reproduction knobs.
inline std::size_t threads_from_cli(Cli& cli, std::int64_t def,
                                    const std::string& help) {
  const auto threads = cli.get_int("threads", def, help);
  if (threads > 0) {
    std::fprintf(stderr, "[recode] --threads=%lld\n",
                 static_cast<long long>(threads));
  }
  return static_cast<std::size_t>(threads < 0 ? 0 : threads);
}

// Representative-suite scale shared by the 7-matrix benches (Figs 12,
// 14-17). scale=1 reproduces the published dimensions.
inline double scale_from_cli(Cli& cli, double default_scale = 0.25) {
  return cli.get_double(
      "scale", default_scale,
      "representative-matrix size scale in (0,1]; 1.0 = published dims");
}

// Microbench timing: calibrates an iteration count to >= min_seconds of
// work, then reports the best-of-reps per-iteration time in seconds.
template <typename F>
double best_seconds(int reps, double min_seconds, F&& fn) {
  int iters = 1;
  for (;;) {
    Timer t;
    for (int i = 0; i < iters; ++i) fn();
    if (t.seconds() >= min_seconds || iters >= (1 << 22)) break;
    iters *= 2;
  }
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() / iters);
  }
  return best;
}

// Machine-readable bench output: registers --json=<path>, --trace=<path>
// and --report=<path> on the Cli (construct before cli.done()), starts
// the tracer when a trace was requested, collects named results during
// the run, and on write() emits:
//
//   --trace:  Chrome trace_event JSON (chrome://tracing / Perfetto),
//   --json:   {"schema":"recode-bench-v1","experiment":...,
//              "results":{...},"run":<recode-run-v1>,"metrics":...},
//   --report: the recode-run-v1 movement-ledger report alone.
//
// The run report covers the window bracketed by run_begin()/run_end()
// (benches place it around the measured decode+kernel work, excluding
// compression and any decode-without-kernel projections, so the byte
// conservation check binds). All flags default off, so table output and
// exit codes are unchanged when they are absent.
class BenchReport {
 public:
  BenchReport(Cli& cli, std::string experiment)
      : experiment_(std::move(experiment)),
        json_path_(cli.get_string(
            "json", "", "write a recode-bench-v1 results+metrics JSON here")),
        trace_path_(cli.get_string(
            "trace", "",
            "write a Chrome trace_event JSON here (Perfetto-loadable)")),
        report_path_(cli.get_string(
            "report", "",
            "write the recode-run-v1 movement-ledger report JSON here")) {
    if (!trace_path_.empty()) telemetry::Tracer::global().start();
  }

  bool tracing() const { return !trace_path_.empty(); }

  void add_result(const std::string& key, double v) {
    results_.push_back({key, v, std::string(), true});
  }
  void add_result(const std::string& key, const std::string& v) {
    results_.push_back({key, 0.0, v, false});
  }

  // Brackets the measured region the movement-ledger run report covers.
  // run_begin() names the run ("fig14", engine "software"/"udp-sim"/"");
  // run_end() freezes the window. Nestable calls are not supported — the
  // last complete window wins.
  void run_begin(const std::string& label, const std::string& engine = "") {
    run_label_ = label;
    run_engine_ = engine;
    run_start_ = telemetry::MovementLedger::global().snapshot();
    run_timer_.reset();
    run_open_ = true;
  }

  void run_end() {
    if (!run_open_) return;
    run_open_ = false;
    report_ = telemetry::make_run_report(
        run_label_, run_start_,
        telemetry::MovementLedger::global().snapshot(), run_timer_.seconds());
    report_.engine = run_engine_;
    report_.host_cores =
        static_cast<int>(std::thread::hardware_concurrency());
    have_report_ = true;
  }

  bool have_run_report() const { return have_report_; }
  const telemetry::RunReport& run_report() const { return report_; }

  // The run window's byte-conservation verdict: true when no window was
  // captured or telemetry is off (nothing to check), so callers can fold
  // it into their exit code unconditionally.
  bool run_conservation_ok() const {
    return !have_report_ || report_.conservation_check();
  }

  // Writes whichever outputs were requested. Call once, after the last
  // measured work; stops the tracer so the trace ends at the bench's end.
  void write() {
    if (run_open_) run_end();  // forgive a missing run_end()
    if (!trace_path_.empty()) {
      auto& tracer = telemetry::Tracer::global();
      tracer.stop();
      tracer.write_chrome_trace(trace_path_);
      std::fprintf(stderr, "[recode] wrote Chrome trace (%zu events) to %s\n",
                   tracer.event_count(), trace_path_.c_str());
    }
    if (have_report_ && !report_path_.empty()) {
      telemetry::write_run_report_file(report_path_, report_);
      std::fprintf(stderr, "[recode] wrote run report to %s\n",
                   report_path_.c_str());
    }
    if (have_report_ && telemetry::kEnabled) {
      std::string why;
      if (!report_.conservation_check(&why)) {
        std::fprintf(stderr, "[recode] ledger conservation FAILED: %s\n",
                     why.c_str());
      }
    }
    if (json_path_.empty()) return;
    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("schema", "recode-bench-v1");
    w.kv("experiment", experiment_);
    w.kv("telemetry_enabled", telemetry::kEnabled);
    w.key("results");
    w.begin_object();
    for (const auto& r : results_) {
      if (r.is_number) {
        w.kv(r.key, r.num);
      } else {
        w.kv(r.key, std::string_view(r.str));
      }
    }
    w.end_object();
    if (have_report_) {
      w.key("run");
      w.raw(report_.to_json_string());
    }
    w.key("metrics");
    w.raw(telemetry::MetricsRegistry::global().snapshot().to_json());
    w.end_object();
    std::FILE* f = std::fopen(json_path_.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "[recode] cannot open --json path %s\n",
                   json_path_.c_str());
      return;
    }
    const std::string& s = w.str();
    std::fwrite(s.data(), 1, s.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "[recode] wrote metrics JSON to %s\n",
                 json_path_.c_str());
  }

 private:
  struct Result {
    std::string key;
    double num;
    std::string str;
    bool is_number;
  };

  std::string experiment_;
  std::string json_path_;
  std::string trace_path_;
  std::string report_path_;
  std::vector<Result> results_;
  std::string run_label_;
  std::string run_engine_;
  telemetry::LedgerSnapshot run_start_;
  Timer run_timer_;
  bool run_open_ = false;
  bool have_report_ = false;
  telemetry::RunReport report_;
};

}  // namespace recode::bench
