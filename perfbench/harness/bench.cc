#include "harness/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/prng.h"
#include "telemetry/trace.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// The benchmark's metric table; BENCHMARK.json lists the same names and
// units (the self-test checks that they agree).
constexpr MetricDef kMetrics[] = {
    // End-to-end, from the untraced run.
    {"setup_s", "s", true},
    {"op_ms_p50", "ms", true},
    {"op_ms_p90", "ms", true},
    {"ops_per_s", "1/s", true},
    {"bytes_per_nnz", "B/nnz", true},
    {"peak_rss_mb", "MB", true},
    // codec: single-thread replays over the workload's block payloads.
    {"codec.huffman_gbps", "GB/s", false},
    {"codec.snappy_gbps", "GB/s", false},
    {"codec.transform_gbps", "GB/s", false},
    {"codec.block_decode_us_p50", "us", false},
    {"codec.decoded_mb_per_op", "MB", false},
    {"codec.compress_s", "s", false},
    {"codec.encode_mb_s", "MB/s", false},
    {"codec.write_s", "s", false},
    // codec storage (ContainerSource).
    {"source.read_gbps", "GB/s", false},
    {"source.peak_window_mb", "MB", false},
    {"source.sync_reads", "count", false},
    {"source.prefetch_hits", "count", false},
    // spmv executor.
    {"spmv.serial_ms", "ms", false},
    {"spmv.parallel_efficiency", "ratio", false},
    {"spmv.busy_s_per_op", "s", false},
    {"spmv.blocked_s_per_op", "s", false},
    {"spmv.utilization", "ratio", false},
    {"spmv.steals", "count", false},
    {"spmv.tasks", "count", false},
    {"spmv.fused", "ratio", false},
    {"spmv.cache_hit_rate", "ratio", false},
    {"spmv.cache_pinned_mb", "MB", false},
    // spmv kernel and same-host baselines.
    {"spmv.kernel_gbps", "GB/s", false},
    {"spmv.csr_ms", "ms", false},
    {"spmv.csr_par_ms", "ms", false},
    {"spmv.x_of_csr", "ratio", false},
    {"layers.decode_frac", "ratio", false},
    {"layers.residual_frac", "ratio", false},
    {"layers.encode_write_frac", "ratio", false},
    // spmv SpGEMM.
    {"spgemm.kernel_ms", "ms", false},
    {"spgemm.serial_ms", "ms", false},
    {"spgemm.parallel_efficiency", "ratio", false},
    {"spgemm.products", "count", false},
    {"spgemm.rows_dense", "count", false},
    {"spgemm.rows_merge", "count", false},
    {"spgemm.c_nnz", "count", false},
    // solver.
    {"solver.iterations", "count", false},
    {"solver.self_ms_per_iter", "ms", false},
    // telemetry.
    {"telemetry.trace_overhead_frac", "ratio", false},
    // Host and sizes recorded with every traced result.
    {"host.nproc", "count", false},
    {"host.threads_started", "count", false},
    {"host.llc_mb", "MB", false},
    {"size.csr_mb", "MB", false},
    {"size.compressed_mb", "MB", false},
    {"size.decoded_mb", "MB", false},
    {"size.csr_over_llc", "ratio", false},
    {"run.seed", "count", false},
};

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& d : kMetrics) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

// Shortest round-trip decimal form: every digit as measured.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Metrics::set(const std::string& name, double value) {
  if (!find_metric(name)) {
    throw std::logic_error("perfbench: undefined metric " + name);
  }
  values_[name] = value;
}

double Metrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::vector<std::string> Metrics::missing_end_to_end() const {
  std::vector<std::string> missing;
  for (const MetricDef& d : kMetrics) {
    if (d.end_to_end && !has(d.name)) missing.push_back(d.name);
  }
  return missing;
}

std::string Metrics::result_json(const Outcome& outcome, bool traced) const {
  const bool correct = outcome.checks_ok && outcome.failed == 0 &&
                       outcome.attempted > 0 && missing_end_to_end().empty();
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted
     << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : kMetrics) {
    if (d.end_to_end == traced) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << d.name << "\": {\"value\": " << number(get(d.name))
       << ", \"unit\": \"" << d.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void OpTimes::mark_cycle(Clock::time_point now) {
  if (started_) cycle_s_.push_back(seconds_between(last_start_, now) - check_s_);
  last_start_ = now;
  started_ = true;
  check_s_ = 0.0;
}

double OpTimes::ops_per_s() const {
  std::vector<double> rates;
  for (std::size_t i = 0; i + kWindow <= cycle_s_.size(); i += kWindow) {
    double s = 0.0;
    for (std::size_t j = i; j < i + kWindow; ++j) s += cycle_s_[j];
    if (s > 0) rates.push_back(static_cast<double>(kWindow) / s);
  }
  return median(rates);
}

double OpTimes::p50() const { return median(op_ms_); }

double OpTimes::p90() const {
  if (op_ms_.size() < kP90Window) return quantile(op_ms_, 0.9);
  std::vector<double> window_p90;
  for (std::size_t i = 0; i + kP90Window <= op_ms_.size(); i += kP90Window) {
    window_p90.push_back(quantile(
        std::vector<double>(op_ms_.begin() + i, op_ms_.begin() + i + kP90Window), 0.9));
  }
  return median(window_p90);
}

Loop::Loop(const Options& o) : o_(o), warmup_s_(std::min(1.0, o.seconds / 10)) {}

bool Loop::next() {
  const double elapsed = seconds_between(start_, Clock::now()) - warmup_s_;
  recode::telemetry::Tracer& tracer = recode::telemetry::Tracer::global();
  if (elapsed >= o_.seconds) {
    if (phase_ == kTraced) tracer.stop();
    return false;
  }
  const Phase next = elapsed < 0                                ? kWarmup
                     : o_.trace && elapsed >= o_.seconds / 2 ? kTraced
                                                              : kUntraced;
  if (next == kTraced && phase_ != kTraced) tracer.start();
  phase_ = next;
  return true;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::size_t SpanLog::record(const char* name, std::size_t parent,
                            Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, parent, start, end});
  return spans_.size() - 1;
}

std::size_t SpanLog::open(const char* name, std::size_t parent) {
  const auto now = Clock::now();
  return record(name, parent, now, now);
}

void SpanLog::close(std::size_t id) { spans_[id].end = Clock::now(); }

double SpanLog::total_seconds(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += seconds_between(s.start, s.end);
  }
  return total;
}

double SpanLog::self_seconds(const char* name) const {
  double total = total_seconds(name);
  for (const Span& s : spans_) {
    if (s.parent != kRoot && std::strcmp(spans_[s.parent].name, name) == 0) {
      total -= seconds_between(s.start, s.end);
    }
  }
  return total;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = seconds_between(epoch_, s.start) * 1e6;
    const double dur = seconds_between(s.start, s.end) * 1e6;
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << number(ts)
        << ",\"dur\":" << number(dur) << ",\"args\":{\"id\":" << i
        << ",\"parent\":"
        << (s.parent == kRoot ? std::string("null") : std::to_string(s.parent))
        << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::uint64_t hash_doubles(std::span<const double> v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double d : v) {
    std::uint64_t w = 0;
    std::memcpy(&w, &d, sizeof(w));
    h = (h ^ w) * 0x100000001b3ull;
  }
  return h;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  recode::Prng prng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

std::size_t host_nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t host_llc_bytes() {
  namespace fs = std::filesystem;
  std::size_t best_level = 0;
  std::size_t best_bytes = 0;
  std::error_code ec;
  const fs::path dir("/sys/devices/system/cpu/cpu0/cache");
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::ifstream level_in(entry.path() / "level");
    std::ifstream size_in(entry.path() / "size");
    std::size_t level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) continue;
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level > best_level || (level == best_level && bytes > best_bytes)) {
      best_level = level;
      best_bytes = bytes;
    }
  }
  return best_bytes;
}

std::size_t library_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      const std::size_t threads = std::strtoull(line.c_str() + 8, nullptr, 10);
      return threads > 0 ? threads - 1 : 0;
    }
  }
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void flip_middle_byte(std::span<std::uint8_t> data) {
  if (data.empty()) throw std::runtime_error("perfbench: empty payload");
  data[data.size() / 2] ^= 0x5a;
}

void record_sizes(Metrics& m, const char* what, std::size_t nnz,
                  std::size_t compressed_bytes) {
  const std::size_t llc = host_llc_bytes();
  // CSR as the paper counts it: 4 B index + 8 B value per nnz (row_ptr
  // excluded); the decoded form the executor holds is the same 12 B/nnz.
  const double csr_mb = static_cast<double>(nnz) * 12.0 / 1e6;
  m.set("size.csr_mb", csr_mb);
  m.set("size.decoded_mb", csr_mb);
  m.set("size.compressed_mb", static_cast<double>(compressed_bytes) / 1e6);
  m.set("host.llc_mb", static_cast<double>(llc) / 1e6);
  m.set("size.csr_over_llc", llc ? csr_mb * 1e6 / static_cast<double>(llc) : 0);
  m.set("host.nproc", static_cast<double>(host_nproc()));
  std::printf(
      "%s: %zu nnz; CSR %.1f MB, compressed %.1f MB, decoded %.1f MB; "
      "LLC %.1f MB (%s)\n",
      what, nnz, csr_mb, static_cast<double>(compressed_bytes) / 1e6, csr_mb,
      static_cast<double>(llc) / 1e6,
      llc == 0 ? "LLC size unknown"
               : (csr_mb * 1e6 <= static_cast<double>(llc)
                      ? "the CSR baseline fits in the LLC"
                      : "the CSR baseline exceeds the LLC"));
}

}  // namespace perfbench
