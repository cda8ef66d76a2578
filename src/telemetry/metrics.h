// Process-wide metrics: counters, gauges, and log2-bucketed histograms,
// registered by name in a MetricsRegistry and snapshotable to plain
// structs / JSON (the bench --json output and the observability story of
// README "Observability").
//
// Hot-path contract: Counter::add, Gauge::set and Histogram::observe are
// a handful of relaxed atomic operations with no locks; with
// RECODE_TELEMETRY=OFF they compile to empty inline bodies (zero
// overhead, verified by the telemetry-off CI build). Registration
// (MetricsRegistry::counter/gauge/histogram) takes a mutex and is meant
// for setup paths — resolve the reference once and keep it; references
// stay valid for the registry's lifetime, including across reset().
#pragma once

#ifndef RECODE_TELEMETRY_ENABLED
#define RECODE_TELEMETRY_ENABLED 1
#endif

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace recode::telemetry {

inline constexpr bool kEnabled = RECODE_TELEMETRY_ENABLED != 0;

// Monotonic event/byte counter. add() is one relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
#if RECODE_TELEMETRY_ENABLED
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    static_cast<void>(n);
#endif
  }

  std::uint64_t value() const {
#if RECODE_TELEMETRY_ENABLED
    return value_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

  void reset() {
#if RECODE_TELEMETRY_ENABLED
    value_.store(0, std::memory_order_relaxed);
#endif
  }

#if RECODE_TELEMETRY_ENABLED
 private:
  std::atomic<std::uint64_t> value_{0};
#endif
};

// Last-value gauge (utilization ratios, derived model outputs).
class Gauge {
 public:
  void set(double v) {
#if RECODE_TELEMETRY_ENABLED
    value_.store(v, std::memory_order_relaxed);
#else
    static_cast<void>(v);
#endif
  }

  double value() const {
#if RECODE_TELEMETRY_ENABLED
    return value_.load(std::memory_order_relaxed);
#else
    return 0.0;
#endif
  }

  void reset() {
#if RECODE_TELEMETRY_ENABLED
    value_.store(0.0, std::memory_order_relaxed);
#endif
  }

#if RECODE_TELEMETRY_ENABLED
 private:
  std::atomic<double> value_{0.0};
#endif
};

struct HistogramBucket {
  double upper = 0.0;  // exclusive upper bound of the bucket's range
  std::uint64_t count = 0;
};

// count/sum/min/max plus the non-empty log2 buckets, ascending by bound.
// min/max are NaN when count == 0 (the stats.h empty-input convention).
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();
  std::vector<HistogramBucket> buckets;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  // Quantile estimate from the log2 buckets: finds the bucket holding
  // the rank-q observation and interpolates log-linearly inside it
  // (geometric within [2^(i-1), 2^i), linear within the [0,1) bucket),
  // then clamps to the observed min/max. NaN when empty.
  double quantile(double q) const;

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
};

// Log2-bucketed histogram over non-negative values (wait times in
// microseconds, queue depths, job cycles). Bucket 0 counts values < 1;
// bucket i >= 1 counts [2^(i-1), 2^i). observe() is a few relaxed
// atomics (bucket add, count, sum, CAS min/max) — no locks.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double v) {
#if RECODE_TELEMETRY_ENABLED
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    update_min(v);
    update_max(v);
#else
    static_cast<void>(v);
#endif
  }

  std::uint64_t count() const {
#if RECODE_TELEMETRY_ENABLED
    return count_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

  // Bucket index for a value (exposed for the bucket-boundary tests).
  static int bucket_index(double v) {
    if (!(v >= 1.0)) return 0;  // also catches negatives and NaN
    if (v >= 9.223372036854775808e18) return kBuckets - 1;  // 2^63
    const auto n = static_cast<std::uint64_t>(v);
    const int idx = std::bit_width(n);  // floor(log2(n)) + 1
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  // Exclusive upper bound of bucket i (2^i; bucket 0 is [0, 1)).
  static double bucket_upper(int i) {
    return i <= 0 ? 1.0 : std::ldexp(1.0, i);
  }

  HistogramSnapshot snapshot() const;
  void reset();

#if RECODE_TELEMETRY_ENABLED
 private:
  void update_min(double v) {
    double cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void update_max(double v) {
    double cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
#endif
};

// Point-in-time copy of every registered instrument, ready for JSON.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  //  max,mean,buckets:[{upper,count},...]}}}
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  // The process-wide registry every instrumented module reports into.
  static MetricsRegistry& global();

  // Returns the instrument registered under `name`, creating it on first
  // use. References remain valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  // Zeroes every instrument in place (references stay valid). For tests
  // and for benches that scope their --json output to a phase.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// RAII stage probe: adds the scope's elapsed nanoseconds to a counter
// (per-codec-stage time attribution). Empty when telemetry is off.
class StageTimer {
 public:
  explicit StageTimer(Counter& ns_counter)
#if RECODE_TELEMETRY_ENABLED
      : counter_(&ns_counter) {
  }
  ~StageTimer() {
    counter_->add(static_cast<std::uint64_t>(timer_.seconds() * 1e9));
  }
#else
  {
    static_cast<void>(ns_counter);
  }
  ~StageTimer() = default;
#endif

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

#if RECODE_TELEMETRY_ENABLED
 private:
  Timer timer_;
  Counter* counter_;
#endif
};

}  // namespace recode::telemetry
