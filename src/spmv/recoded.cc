#include "spmv/recoded.h"

#include <algorithm>
#include <type_traits>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace recode::spmv {

namespace {

// Kernel-hop ledger feed, one call per accumulated block (never per nnz).
// Byte model: the kernel consumes the decoded matrix stream (4 B index +
// 8 B value per nnz) and writes the block's result rows; vector traffic
// is the x gathers plus the y read-modify-write, both scaled by the
// batch width k. The y term is exact: block_tile reads and writes each
// covered row once per row segment.
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

// The gather of x's row col_idx[i] is the only irregular access in the
// Fig 7 loop and dominates its stalls on large matrices. Hint the whole
// tile-wide slice of that row (both cache lines of a 16-wide tile) a
// fixed distance ahead; 16 iterations covers typical L2 latency at one
// nnz per cycle without thrashing the prefetch queues. A pure scheduling
// hint: result bits are unaffected, so the parallel ≡ serial guarantee
// holds.
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

// One T-column tile of the batch kernel over one block: columns
// [j0, j0 + T) of every covered row. The block's nnz run splits into row
// segments; each segment loads its T partial sums from y into acc, adds
// v * x[col][j0 + j] in nnz order, and stores acc once at its end. A row
// that spans blocks resumes from the partial sum in y, and empty rows are
// never touched, so every y element sees exactly the one-nnz-at-a-time
// loop's operations. acc stays in registers because nothing inside a
// segment stores through y, which may alias x.
template <int T>
void block_tile(const sparse::BlockRange& range,
                const sparse::offset_t* row_ptr, const sparse::index_t* idx,
                const double* val, const double* x, double* y, std::size_t k,
                std::size_t j0) {
  const std::size_t n = range.count;
  auto row = static_cast<std::size_t>(range.first_row);
  std::size_t i = 0;
  while (i < n) {
    const auto pos = static_cast<sparse::offset_t>(range.first_nnz + i);
    while (pos >= row_ptr[row + 1]) ++row;
    const std::size_t end = std::min(
        static_cast<std::size_t>(row_ptr[row + 1]) - range.first_nnz, n);
    double* yr = y + row * k + j0;
    double acc[T];
    for (int j = 0; j < T; ++j) acc[j] = yr[j];
    for (; i < end; ++i) {
      if (i + kPrefetchDistance < n) {
        const double* xp =
            x + static_cast<std::size_t>(idx[i + kPrefetchDistance]) * k + j0;
        for (int j = 0; j < T; j += 8) prefetch_read(xp + j);
      }
      const double v = val[i];
      const double* xr = x + static_cast<std::size_t>(idx[i]) * k + j0;
      for (int j = 0; j < T; ++j) acc[j] += v * xr[j];
    }
    for (int j = 0; j < T; ++j) yr[j] = acc[j];
  }
}

}  // namespace

void accumulate_block(const sparse::BlockRange& range,
                      std::span<const sparse::offset_t> row_ptr,
                      std::span<const sparse::index_t> indices,
                      std::span<const double> values,
                      std::span<const double> x, std::span<double> y) {
  accumulate_block_batch(range, row_ptr, indices, values, x, y, 1);
}

void accumulate_block_batch(const sparse::BlockRange& range,
                            std::span<const sparse::offset_t> row_ptr,
                            std::span<const sparse::index_t> indices,
                            std::span<const double> values,
                            std::span<const double> x, std::span<double> y,
                            int k) {
  telemetry::StageTimer ledger_timer(
      telemetry::MovementLedger::global().hop(telemetry::Hop::kKernel).ns);
  // The tile ladder, chosen once per block: 16-wide tiles while 16
  // columns remain, then at most one tile each of 8, 4, 2 and 1.
  const auto kk = static_cast<std::size_t>(k);
  std::size_t j0 = 0;
  const auto tile = [&](auto width) {
    block_tile<decltype(width)::value>(range, row_ptr.data(), indices.data(),
                                       values.data(), x.data(), y.data(), kk,
                                       j0);
    j0 += decltype(width)::value;
  };
  while (kk - j0 >= 16) tile(std::integral_constant<int, 16>{});
  if (kk - j0 >= 8) tile(std::integral_constant<int, 8>{});
  if (kk - j0 >= 4) tile(std::integral_constant<int, 4>{});
  if (kk - j0 >= 2) tile(std::integral_constant<int, 2>{});
  if (kk - j0 >= 1) tile(std::integral_constant<int, 1>{});
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
