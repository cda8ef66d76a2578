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
    : RecodedSpmv(cm, nullptr, engine) {}

RecodedSpmv::RecodedSpmv(const codec::CompressedMatrix& cm,
                         std::shared_ptr<codec::ContainerSource> source,
                         DecodeEngine engine)
    : cm_(&cm), stream_(cm, std::move(source), 1, 1, engine) {}

void RecodedSpmv::multiply(std::span<const double> x, std::span<double> y) {
  multiply_batch(x, y, 1);
}

void RecodedSpmv::multiply_batch(std::span<const double> x,
                                 std::span<double> y, int k) {
  RECODE_CHECK(k >= 1);
  RECODE_CHECK(x.size() ==
               static_cast<std::size_t>(cm_->cols) * static_cast<std::size_t>(k));
  RECODE_CHECK(y.size() ==
               static_cast<std::size_t>(cm_->rows) * static_cast<std::size_t>(k));
  std::fill(y.begin(), y.end(), 0.0);
  stream_.walk([&](std::size_t b, const BlockStreams& s) {
    accumulate_block_batch(cm_->blocking.blocks[b], cm_->row_ptr, s.indices,
                           s.values, x, y, k);
  });
}

}  // namespace recode::spmv
