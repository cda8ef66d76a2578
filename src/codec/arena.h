// Reusable decode scratch memory for the allocation-free fast decode path.
//
// A DecodeArena owns a small fixed set of byte slabs that grow
// monotonically and are reused block after block: once the arena has seen
// the largest block of a matrix, every further decode through it performs
// zero heap allocations (the property the StreamingExecutor's steady
// state and the zero-alloc test assert). Every slab carries kArenaSlop
// trailing bytes so the word-wise Snappy decoder (8/16-byte copies) may
// overshoot its logical end without ever writing outside owned memory.
// The Huffman lane decoder emits 2 bytes per probe and never writes past
// the declared count.
//
// Ownership rule: arena slabs never escape the worker that owns the
// arena. Anything that must outlive the next decode into the same arena
// — in particular a spmv::BandCache entry pinning a decoded band across
// multiply calls — takes an exact-sized copy of the decoded streams;
// cache-owned memory in turn never rejoins a worker's slab pool. The
// alternative (detaching slabs into the cache) would pin the
// geometric-growth padding too and force the arena to re-grow per
// cached block, so copies are both the simpler and the cheaper policy.
#pragma once

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

class DecodeArena {
 public:
  // Slab roles. Scratch slabs ping-pong intermediate stage outputs inside
  // one stream decode; the index/value slabs hold a block's final decoded
  // streams (and stay valid until the next decode into the same arena).
  enum Slot : std::size_t {
    kScratchA = 0,
    kScratchB = 1,
    kIndexOut = 2,
    kValueOut = 3,
    kSlotCount = 4,
  };

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

  // Grow events since construction. Steady-state decode through a warmed
  // arena keeps this constant — the allocation-free contract.
  std::uint64_t allocations() const { return allocations_; }

  // Total bytes owned across all slabs (observability / tests).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.capacity;
    return total;
  }

 private:
  struct Slab {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t capacity = 0;
  };

  std::array<Slab, kSlotCount> slabs_;
  std::uint64_t allocations_ = 0;
};

}  // namespace recode::codec
