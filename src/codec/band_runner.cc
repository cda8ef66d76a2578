#include "codec/band_runner.h"

#include <algorithm>
#include <exception>
#include <string>

#include "telemetry/telemetry.h"

namespace recode::codec {

namespace {

// Resolved once (registration locks; workers never touch the registry).
telemetry::Histogram& acquire_wait_us() {
  static telemetry::Histogram& h =
      telemetry::MetricsRegistry::global().histogram(
          "spmv.sched.acquire_wait_us");
  return h;
}

}  // namespace

BandRunner::BandRunner(std::size_t workers)
    : pool_(workers), exhausted_at_(pool_.size()) {
  acquire_wait_us();  // register the series before any run
}

void BandRunner::run(const std::vector<std::uint32_t>& order, Body body,
                     void* ctx, Lookahead lookahead, bool serial) {
  order_ = &order;
  body_ = body;
  lookahead_ = lookahead;
  ctx_ = ctx;
  stats_ = BandRunStats{};
  if (pool_.size() == 1 || serial) {
    stats_.workers = 1;
    run_inline();
    return;
  }

  stats_.workers = pool_.size();
  cursor_ = 0;
  // The pool returns once every worker has returned and rethrows the
  // first error; the tail waits are recorded on both paths. The last
  // worker to find the cursor exhausted ran the run's last body.
  std::exception_ptr error;
  try {
    pool_.run(&BandRunner::worker_entry, this);
  } catch (...) {
    error = std::current_exception();
  }
  if constexpr (telemetry::kEnabled) {
    const Clock::time_point end =
        *std::max_element(exhausted_at_.begin(), exhausted_at_.end());
    for (const Clock::time_point t : exhausted_at_) {
      const double s = std::chrono::duration<double>(end - t).count();
      acquire_wait_us().observe(s * 1e6);
      stats_.acquire_wait_seconds += s;
    }
  }
  if (error) std::rethrow_exception(error);
}

void BandRunner::run_inline() {
  const std::vector<std::uint32_t>& order = *order_;
  if (lookahead_ && !order.empty()) lookahead_(ctx_, order[0]);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (lookahead_ && i + 1 < order.size()) lookahead_(ctx_, order[i + 1]);
    body_(ctx_, order[i], 0);
  }
}

void BandRunner::worker_entry(void* self, std::size_t worker) {
  static_cast<BandRunner*>(self)->worker_loop(worker);
}

void BandRunner::worker_loop(std::size_t worker) {
  if (telemetry::Tracer::global().enabled()) {
    telemetry::Tracer::global().set_thread_name("band-" +
                                                std::to_string(worker));
  }
  const std::vector<std::uint32_t>& order = *order_;
  const std::size_t n = order.size();
  const auto claim = [this] { return cursor_++; };
  try {
    // With a lookahead hook the worker claims its next task and hints it
    // before running the one in hand, so it only ever hints a task it
    // will run itself.
    std::size_t i = claim();
    while (i < n) {
      const std::size_t next = lookahead_ ? claim() : n;
      if (next < n) lookahead_(ctx_, order[next]);
      body_(ctx_, order[i], worker);
      i = lookahead_ ? next : claim();
    }
  } catch (...) {
    cursor_ = n;  // no further claims
    if constexpr (telemetry::kEnabled) exhausted_at_[worker] = Clock::now();
    throw;
  }
  if constexpr (telemetry::kEnabled) exhausted_at_[worker] = Clock::now();
}

}  // namespace recode::codec
