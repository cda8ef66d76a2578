// Out-of-core access to compressed containers: the paper's thesis —
// compressed blocks are the right unit of data movement — applied to
// storage bandwidth. A ContainerSource hands the decode engines the
// compressed streams of any block on demand, from one of three
// backends:
//
//   ResidentSource   the fully-in-RAM path (cm.blocks); every consumer
//                    reaches resident matrices through it too
//                    (make_resident_source), so no engine keeps a
//                    separate in-RAM decode branch,
//   MmapSource       a read-only mmap of the .rcm file; prefetch is
//                    madvise(WILLNEED) touch-ahead, acquire touches the
//                    pages so the fault cost lands on the prefetcher,
//   StreamedSource   pread into a pool of recycled read windows with a
//                    bounded budget of in-flight compressed bytes; a
//                    background IO thread services prefetches so reads
//                    overlap decode the way decode overlaps the kernel.
//
// The lease protocol, per contiguous block range (a band, a run of
// frontier-needed blocks, or a serial chunk). One module drives it:
// spmv::BlockStream (spmv/block_decoder.h), through which every decoding
// consumer reaches blocks. A range that was prefetched is later leased
// with the same (first, count):
//
//   prefetch(first, n)   hint, never blocks; drops when the window
//                        budget or queue is full (acquire then reads
//                        synchronously — correctness never depends on a
//                        prefetch happening)
//   acquire(first, n)    blocks until the range's bytes are addressable;
//                        never waits on window budget held only by
//                        prefetches no acquire has claimed (it reclaims
//                        them), nor on a prefetch end_run reclaimed
//                        mid-read (it adopts that window)
//   block(b)             compressed index/value spans, valid while the
//                        covering lease is held
//   release(first, n)    ends the lease acquire(first, n) began and
//                        recycles its window
//   end_run()            run boundary: reclaims everything not in use,
//                        prefetched ranges no task leased included
//
// Out-of-core backends record the leading `storage -> container` ledger
// hop at block() time (bytes_in = the on-disk extent including record
// framing, bytes_out = payload + codec-id dispatch byte, which is
// exactly the container hop's input — conservation-checked), and read
// nanoseconds at IO time. Resident sources record no storage flow.
//
// Both out-of-core backends open via the block-offset index
// (codec/container.h): footer when present, else a one-pass scan.
// Hostile inputs — extents past EOF, overlapping or reordered offsets,
// truncated records — surface as recode::Error at open or at block(),
// never as over-allocation beyond the window budget.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "codec/container.h"
#include "codec/pipeline.h"

namespace recode::codec {

enum class SourceKind { kResident, kMmap, kStreamed };

const char* source_kind_name(SourceKind kind);

// Compressed streams of one block, aliasing backend-owned memory
// (cm.blocks, the mmap view, or a pooled read window). Valid until the
// covering lease is released.
struct SourceBlockBytes {
  ByteSpan index_data;
  ByteSpan value_data;
};

// Monotonic per-source counters (snapshot with stats()).
struct SourceStats {
  std::uint64_t bytes_read = 0;      // on-disk extent bytes fetched/touched
  std::uint64_t read_ns = 0;         // time inside pread / page touches
  std::uint64_t blocks_served = 0;   // block() calls
  std::uint64_t prefetch_hits = 0;   // acquires satisfied by a prefetch
  std::uint64_t prefetch_drops = 0;  // prefetch hints dropped (budget/queue)
  std::uint64_t sync_reads = 0;      // acquires that had to read inline
  std::uint64_t peak_window_bytes = 0;  // streamed: max in-flight bytes
};

class ContainerSource {
 public:
  virtual ~ContainerSource() = default;

  virtual SourceKind kind() const = 0;
  bool out_of_core() const { return kind() != SourceKind::kResident; }

  virtual void prefetch(std::size_t first, std::size_t count) {
    (void)first;
    (void)count;
  }
  virtual void acquire(std::size_t first, std::size_t count) {
    (void)first;
    (void)count;
  }
  virtual SourceBlockBytes block(std::size_t b) = 0;
  virtual void release(std::size_t first, std::size_t count) {
    (void)first;
    (void)count;
  }
  virtual void end_run() {}

  // On-disk extent bytes of a contiguous block range, record framing
  // included; 0 when the backend doesn't track extents (resident).
  virtual std::size_t range_extent_bytes(std::size_t first,
                                         std::size_t count) const {
    (void)first;
    (void)count;
    return 0;
  }

  // Capacity hint from the module driving the lease protocol: at most
  // `leases` ranges held or staged concurrently, none larger than
  // `max_lease_bytes` of extent. StreamedSource pre-provisions its
  // window pool so a warmed steady state never allocates — without the
  // hint, pool growth is demand-driven and a rare concurrency spike can
  // allocate long after the pool looks warm. No-op elsewhere.
  virtual void reserve(std::size_t leases, std::size_t max_lease_bytes) {
    (void)leases;
    (void)max_lease_bytes;
  }
  virtual SourceStats stats() const { return {}; }
};

struct StreamedOptions {
  // Bound on in-flight compressed bytes across queued, reading, ready,
  // and in-use windows. A single range larger than the budget is still
  // served (one oversized window at a time), and a synchronous read
  // reclaims unleased prefetches rather than waiting on them, so tiny
  // budgets degrade to serial reads instead of deadlocking.
  std::size_t window_budget_bytes = 64ull << 20;
};

// Wraps an already-resident matrix; block() aliases cm.blocks. The
// matrix must outlive the source.
std::shared_ptr<ContainerSource> make_resident_source(
    const CompressedMatrix& cm);

// An opened container plus the source that serves its blocks. For
// out-of-core kinds the matrix is header-only (blocks empty; blocking,
// codec ids, and tables populated) — O(header + index) resident bytes.
struct OpenedContainer {
  std::shared_ptr<CompressedMatrix> matrix;
  std::shared_ptr<ContainerSource> source;
  BlockIndex index;
  std::uint32_t version = kContainerVersion;
  std::uint64_t file_size = 0;
  SourceKind kind = SourceKind::kResident;
};

// Opens `path` with the requested backend. Resident reads the whole
// container into RAM (read_compressed_file); mmap/streamed read only
// the header and block-offset index. Throws recode::Error (with the
// path in the message) on any corruption.
OpenedContainer open_container(const std::string& path, SourceKind kind,
                               const StreamedOptions& opts = {});

}  // namespace recode::codec
