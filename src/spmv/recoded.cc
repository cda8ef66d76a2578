#include "spmv/recoded.h"

#include <algorithm>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace recode::spmv {

namespace {

// Kernel-hop ledger feed, one call per accumulated block (never per nnz).
// Byte model: the kernel consumes the decoded matrix stream (4 B index +
// 8 B value per nnz) and writes the block's result rows; vector traffic
// is the x gathers plus the y read-modify-write, both scaled by the
// batch width k.
inline void ledger_kernel_block(const sparse::BlockRange& range, int k) {
  if constexpr (telemetry::kEnabled) {
    const auto count = static_cast<std::uint64_t>(range.count);
    const std::uint64_t rows = static_cast<std::uint64_t>(range.last_row) -
                               static_cast<std::uint64_t>(range.first_row) + 1;
    const auto kk = static_cast<std::uint64_t>(k);
    telemetry::MovementLedger& ledger = telemetry::MovementLedger::global();
    telemetry::MovementLedger::HopFlow& f =
        ledger.hop(telemetry::Hop::kKernel);
    f.bytes_in.add(count * 12);
    f.bytes_out.add(rows * 8 * kk);
    f.ops.add(1);
    ledger.kernel_vector_bytes().add(count * 8 * kk + rows * 16 * kk);
    ledger.kernel_flops().add(2 * count * kk);
    ledger.kernel_nnz().add(count);
  }
}

// The gather x[col_idx[i]] is the only irregular access in the Fig 7 loop
// and dominates its stalls on large matrices. Hint the loads a fixed
// distance ahead; 16 iterations covers typical L2 latency at one nnz per
// cycle without thrashing the prefetch queues. A pure scheduling hint:
// result bits are unaffected, so the parallel ≡ serial guarantee holds.
constexpr std::size_t kPrefetchDistance = 16;

// Out-of-core lease granularity for the serial engine: enough blocks
// that the source's prefetch covers real read latency, small enough that
// at most two chunks of compressed bytes are addressable at once.
constexpr std::size_t kSourceChunkBlocks = 16;

codec::ContainerSource& checked(
    const std::shared_ptr<codec::ContainerSource>& source) {
  RECODE_CHECK(source != nullptr);
  return *source;
}

inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

}  // namespace

void accumulate_block(const sparse::BlockRange& range,
                      std::span<const sparse::offset_t> row_ptr,
                      std::span<const sparse::index_t> indices,
                      std::span<const double> values,
                      std::span<const double> x, std::span<double> y) {
  telemetry::StageTimer ledger_timer(
      telemetry::MovementLedger::global().hop(telemetry::Hop::kKernel).ns);
  // Walk the decoded streams, advancing the row as nnz positions cross
  // row_ptr boundaries (the Fig 7 inner loop, block-tiled).
  sparse::index_t row = range.first_row;
  for (std::size_t i = 0; i < range.count; ++i) {
    if (i + kPrefetchDistance < range.count) {
      prefetch_read(&x[static_cast<std::size_t>(indices[i + kPrefetchDistance])]);
    }
    const auto k = static_cast<sparse::offset_t>(range.first_nnz + i);
    while (k >= row_ptr[static_cast<std::size_t>(row) + 1]) ++row;
    y[static_cast<std::size_t>(row)] +=
        values[i] * x[static_cast<std::size_t>(indices[i])];
  }
  ledger_kernel_block(range, 1);
}

void accumulate_block_batch(const sparse::BlockRange& range,
                            std::span<const sparse::offset_t> row_ptr,
                            std::span<const sparse::index_t> indices,
                            std::span<const double> values,
                            std::span<const double> x, std::span<double> y,
                            int k) {
  if (k == 1) {
    accumulate_block(range, row_ptr, indices, values, x, y);
    return;
  }
  telemetry::StageTimer ledger_timer(
      telemetry::MovementLedger::global().hop(telemetry::Hop::kKernel).ns);
  sparse::index_t row = range.first_row;
  for (std::size_t i = 0; i < range.count; ++i) {
    if (i + kPrefetchDistance < range.count) {
      prefetch_read(&x[static_cast<std::size_t>(indices[i + kPrefetchDistance]) *
                       static_cast<std::size_t>(k)]);
    }
    const auto pos = static_cast<sparse::offset_t>(range.first_nnz + i);
    while (pos >= row_ptr[static_cast<std::size_t>(row) + 1]) ++row;
    const double v = values[i];
    const double* xr =
        &x[static_cast<std::size_t>(indices[i]) * static_cast<std::size_t>(k)];
    double* yr =
        &y[static_cast<std::size_t>(row) * static_cast<std::size_t>(k)];
    for (int j = 0; j < k; ++j) yr[j] += v * xr[j];
  }
  ledger_kernel_block(range, k);
}

RecodedSpmv::RecodedSpmv(const codec::CompressedMatrix& cm,
                         DecodeEngine engine)
    : RecodedSpmv(cm, codec::make_resident_source(cm), engine) {}

RecodedSpmv::RecodedSpmv(const codec::CompressedMatrix& cm,
                         std::shared_ptr<codec::ContainerSource> source,
                         DecodeEngine engine)
    : cm_(&cm),
      source_(std::move(source)),
      decoder_(cm, checked(source_), engine) {}

void RecodedSpmv::multiply(std::span<const double> x, std::span<double> y) {
  multiply_batch(x, y, 1);
}

// Chunked loop: lease kSourceChunkBlocks at a time, and hint the *next*
// chunk before decoding the current one so an out-of-core source's reads
// run ahead of decode (leases and hints are no-ops for resident sources).
void RecodedSpmv::multiply_batch(std::span<const double> x,
                                 std::span<double> y, int k) {
  RECODE_CHECK(k >= 1);
  RECODE_CHECK(x.size() ==
               static_cast<std::size_t>(cm_->cols) * static_cast<std::size_t>(k));
  RECODE_CHECK(y.size() ==
               static_cast<std::size_t>(cm_->rows) * static_cast<std::size_t>(k));
  std::fill(y.begin(), y.end(), 0.0);

  const std::size_t nblocks = cm_->blocking.blocks.size();
  std::size_t first = 0;
  std::size_t count = std::min(kSourceChunkBlocks, nblocks);
  if (count > 0) source_->prefetch(first, count);
  try {
    while (first < nblocks) {
      source_->acquire(first, count);
      const std::size_t next_first = first + count;
      const std::size_t next_count =
          std::min(kSourceChunkBlocks, nblocks - next_first);
      if (next_count > 0) source_->prefetch(next_first, next_count);
      for (std::size_t b = first; b < first + count; ++b) {
        const BlockStreams s = decoder_.decode(b);
        ++blocks_decoded_;
        compressed_bytes_streamed_ += s.stream_bytes;
        udp_cycles_ += s.udp_cycles;
        accumulate_block_batch(cm_->blocking.blocks[b], cm_->row_ptr,
                               s.indices, s.values, x, y, k);
      }
      source_->release(first, count);
      first = next_first;
      count = next_count;
    }
  } catch (...) {
    // Release the lease the failure interrupted (a no-op when acquire
    // itself threw), then reclaim any prefetched successor at the run
    // boundary.
    source_->release(first, count);
    source_->end_run();
    throw;
  }
  source_->end_run();
}

}  // namespace recode::spmv
