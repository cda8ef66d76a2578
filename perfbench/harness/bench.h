// Shared plumbing of the repository benchmark: options, the metric
// table, timing and percentile helpers, the in-memory span log, output
// hashing, and host probes.
//
// Every workload runs as one closed loop driven by one caller thread and
// reports the same end-to-end metrics; a traced run (--trace 1) reports
// the per-layer metrics instead. Layer spans are recorded by the
// benchmark around its own calls into the library (src/ is untouched).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     // self-test size: seconds, not minutes
  bool corrupt = false;  // flip one byte of one block after setup
  std::string work_dir = ".";
};

// Ops attempted / failed and whether every check passed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  // setup-level checks (reference, sizes)
};

// Metric values by name. Units live in the metric table (bench.cc);
// set() refuses names the table does not define.
class Metrics {
 public:
  void set(const std::string& name, double value);
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const;

  // The final result line: {"correct", "attempted", "failed", "metrics"}
  // with every end-to-end (traced = false) or per-layer (traced = true)
  // metric. Per-layer metrics a workload does not exercise read 0.
  std::string result_json(const Outcome& outcome, bool traced) const;
  // Names of end-to-end metrics the workload failed to set.
  std::vector<std::string> missing_end_to_end() const;

 private:
  std::map<std::string, double> values_;
};

double seconds_between(Clock::time_point a, Clock::time_point b);

// Per-op timing of a closed loop: latency of each completed op, and each
// op's cycle — from its start to the next op's start, minus the time the
// benchmark spent checking its output — so throughput counts the work
// between ops (CG vector updates, solve restarts) but not the checks.
class OpTimes {
 public:
  Clock::time_point start() {
    const auto now = Clock::now();
    mark_cycle(now);
    return now;
  }
  // The op completed at `end` after starting at `begin`.
  void completed(Clock::time_point begin, Clock::time_point end) {
    op_ms_.push_back(seconds_between(begin, end) * 1e3);
  }
  // The benchmark's output check ran from `begin` to now.
  void checked(Clock::time_point begin) {
    check_s_ += seconds_between(begin, Clock::now());
  }

  const std::vector<double>& op_ms() const { return op_ms_; }
  double p50() const;
  // Median over consecutive windows of kP90Window ops of each window's
  // p90 (plain p90 below one window): at least 10 samples lie beyond each
  // window's p90, and a burst of host contention inside one window does
  // not move the run's figure.
  double p90() const;
  // Median over windows of kWindow consecutive cycles of ops / seconds.
  double ops_per_s() const;

  static constexpr std::size_t kWindow = 8;
  static constexpr std::size_t kP90Window = 100;

 private:
  void mark_cycle(Clock::time_point now);

  std::vector<double> op_ms_;
  std::vector<double> cycle_s_;
  Clock::time_point last_start_{};
  bool started_ = false;
  double check_s_ = 0.0;
};

// The closed loop's phases: a short untimed warm-up (the first parallel
// ops after a serial stretch, such as the reference solve, run slowly
// until the host spreads the vCPUs again), then the measured ops — in a
// traced run an untraced half and a traced half, with the library's
// Tracer on in the traced half.
class Loop {
 public:
  enum Phase { kWarmup, kUntraced, kTraced, kPhases };

  explicit Loop(const Options& o);
  // Moves to the phase the elapsed time is in; false once time is up.
  bool next();
  bool traced() const { return phase_ == kTraced; }
  OpTimes& times() { return times_[phase_]; }
  const OpTimes& times(Phase p) const { return times_[p]; }

 private:
  const Options& o_;
  double warmup_s_ = 0.0;
  Clock::time_point start_ = Clock::now();
  Phase phase_ = kWarmup;
  OpTimes times_[kPhases];
};

// Linear-interpolated quantile (q in [0, 1]) of a sample; 0 if empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// Spans recorded by the benchmark around its calls into a layer: name,
// start, end and the span that caused it, kept in memory and written out
// as a Chrome trace when the run ends.
class SpanLog {
 public:
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

  struct Span {
    const char* name;
    std::size_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  std::size_t record(const char* name, std::size_t parent,
                     Clock::time_point start, Clock::time_point end);
  // A span whose children are recorded before it ends: open() stamps the
  // start, close() the end.
  std::size_t open(const char* name, std::size_t parent = kRoot);
  void close(std::size_t id);
  const std::vector<Span>& spans() const { return spans_; }

  // Summed duration of every span named `name`, minus the part covered
  // by its child spans (self time).
  double self_seconds(const char* name) const;
  double total_seconds(const char* name) const;

  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

// Times fn() and records it as one span; returns the duration in seconds.
template <typename Fn>
double timed_span(SpanLog& log, const char* name, std::size_t parent, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  log.record(name, parent, t0, t1);
  return seconds_between(t0, t1);
}

// 64-bit word-wise FNV-1a over the exact bit patterns (bitwise compare).
std::uint64_t hash_doubles(std::span<const double> v);

// Deterministic uniform [-1, 1) vector from a seed.
std::vector<double> random_vector(std::size_t n, std::uint64_t seed);

// Host probes.
std::size_t host_nproc();
std::size_t host_llc_bytes();      // largest cache level's size, 0 if unknown
std::size_t library_threads();     // threads of this process besides the caller
double peak_rss_mb();              // getrusage(RUSAGE_SELF) high-water mark

// Flips one byte in the middle of `data` (corruption self-test).
void flip_middle_byte(std::span<std::uint8_t> data);

// Records the matrix sizes every result carries (size.* metrics) and
// prints them next to the LLC size.
void record_sizes(Metrics& m, const char* what, std::size_t nnz,
                  std::size_t compressed_bytes);

}  // namespace perfbench
