// Wall-clock timer used by the host-side throughput measurements
// (CPU decompression baseline, microbenches).
#pragma once

#include <chrono>

namespace recode {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double micros() const { return seconds() * 1e6; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace recode
