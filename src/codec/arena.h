// Reusable scratch memory for the allocation-free codec paths.
//
// Both arenas own a small fixed set of byte slabs that grow
// monotonically and are reused block after block: once an arena has seen
// the largest block of a matrix, every further block through it performs
// zero heap allocations (the property the StreamingExecutor's steady
// state, the container writer and the zero-alloc tests assert). Every
// slab carries kArenaSlop trailing bytes so the word-wise Snappy decoder
// (8/16-byte copies) may overshoot its logical end without ever writing
// outside owned memory. The Huffman lane decoder emits 2 bytes per probe
// and never writes past the declared count.
//
// DecodeArena ownership rule: arena slabs never escape the worker that
// owns the arena. Anything that must outlive the next decode into the
// same arena — in particular a spmv::BandCache entry pinning a decoded
// band across multiply calls — takes an exact-sized copy of the decoded
// streams; cache-owned memory in turn never rejoins a worker's slab
// pool. The alternative (detaching slabs into the cache) would pin the
// geometric-growth padding too and force the arena to re-grow per
// cached block, so copies are both the simpler and the cheaper policy.
//
// EncodeArena ownership rule: one arena per encoding thread, never
// shared — a container-writer worker owns one for its whole write, and
// compress() owns one for its block loop and its selection trials. The
// spans an encode leaves in its slabs (the pre-Huffman streams) are
// valid only until the next encode through the same arena; the finished
// payloads are copied into caller-owned CompressedBlock buffers, which
// keep their capacity across blocks.
//
// EncodeArena also owns Snappy's 16K-entry match table, reused across
// calls without re-zeroing through epoch stamps. An entry holds
// base + pos + 1 for the call whose base epoch is `base`; any entry
// <= base counts as empty. Each call advances the epoch by n + 1, past
// every stamp it can write, so to a later call everything an earlier
// call wrote reads as empty: empty-vs-hit decisions, and so the output
// bytes, are exactly those of a freshly zeroed table. When a call's
// stamps would pass 2^32 - 1 the table is re-zeroed and the epoch
// restarts at 0 (a 64 KB memset once per ~4 GB encoded).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace recode::codec {

// Trailing writable margin on every slab. Must cover the largest
// overshoot of any fast decoder: 16-byte literal chunks and 8-byte match
// chunks in Snappy (<= 15 bytes past the logical end). The Huffman
// decoder never writes past the declared count.
inline constexpr std::size_t kArenaSlop = 16;

// The slab machinery both arenas share: N slots, each one buffer that
// grows geometrically and then stays.
template <std::size_t N>
class SlabArena {
 public:
  // Returns a buffer of at least `size` + kArenaSlop bytes for `slot`,
  // growing geometrically on first use and reused (no allocation, stable
  // capacity) once large enough. The returned memory is uninitialized.
  std::uint8_t* slab(std::size_t slot, std::size_t size) {
    Slab& s = slabs_[slot];
    const std::size_t need = size + kArenaSlop;
    if (s.capacity < need) {
      std::size_t cap = s.capacity == 0 ? 4096 : s.capacity;
      while (cap < need) cap *= 2;
      s.data = std::make_unique<std::uint8_t[]>(cap);
      s.capacity = cap;
      ++allocations_;
    }
    return s.data.get();
  }

  // Usable bytes currently owned by `slot` (capacity minus the slop that
  // decoders may overshoot into), for callers that size-check retained
  // views.
  std::size_t slot_capacity(std::size_t slot) const {
    const std::size_t cap = slabs_[slot].capacity;
    return cap < kArenaSlop ? 0 : cap - kArenaSlop;
  }

  // Grow events since construction. Steady-state work through a warmed
  // arena keeps this constant — the allocation-free contract.
  std::uint64_t allocations() const { return allocations_; }

  // Total bytes owned across all slabs (observability / tests).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.capacity;
    return total;
  }

 protected:
  std::uint64_t allocations_ = 0;

 private:
  struct Slab {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t capacity = 0;
  };

  std::array<Slab, N> slabs_;
};

// Slab roles. Scratch slabs ping-pong intermediate stage outputs inside
// one stream decode; the index/value slabs hold a block's final decoded
// streams (and stay valid until the next decode into the same arena).
class DecodeArena : public SlabArena<4> {
 public:
  enum Slot : std::size_t {
    kScratchA = 0,
    kScratchB = 1,
    kIndexOut = 2,
    kValueOut = 3,
    kSlotCount = 4,
  };
};

// Snappy's match table: 2^kSnappyHashBits 4-byte entries (snappy.cc).
inline constexpr int kSnappyHashBits = 14;

class EncodeArena : public SlabArena<5> {
 public:
  // Slab roles. Each stream's transform and Snappy outputs have their own
  // slab, so both streams' pre-Huffman bytes stay readable together (the
  // writer's pass-1 histograms); the Huffman lanes of the stream in hand
  // go to kLanes before the frame is assembled in the caller's buffer.
  enum Slot : std::size_t {
    kIndexTransform = 0,
    kIndexSnappy = 1,
    kValueTransform = 2,
    kValueSnappy = 3,
    kLanes = 4,
    kSlotCount = 5,
  };

  // `first_epoch` is where the Snappy table's epoch starts; only tests
  // pass anything but 0, to force the 2^32 wrap.
  explicit EncodeArena(std::uint64_t first_epoch = 0) : epoch_(first_epoch) {}

  // The match table handed to one Snappy encode of n < 2^32 bytes: the
  // call stamps entries base + pos + 1 and treats entries <= base as
  // empty. Allocates the table on first use; re-zeros it when the call's
  // stamps would pass 2^32 - 1.
  struct SnappyTable {
    std::uint32_t* entries;
    std::uint32_t base;
  };
  SnappyTable snappy_table(std::size_t n) {
    constexpr std::size_t kEntries = std::size_t{1} << kSnappyHashBits;
    if (!table_) {
      table_ = std::make_unique<std::uint32_t[]>(kEntries);  // zeroed
      ++allocations_;
    }
    if (epoch_ + n > 0xFFFFFFFFu) {
      std::fill_n(table_.get(), kEntries, 0u);
      epoch_ = 0;
    }
    const auto base = static_cast<std::uint32_t>(epoch_);
    epoch_ += n + 1;
    return {table_.get(), base};
  }

  // The next call's base epoch (tests).
  std::uint64_t epoch() const { return epoch_; }

 private:
  std::unique_ptr<std::uint32_t[]> table_;
  std::uint64_t epoch_;
};

}  // namespace recode::codec
