// Bytes-budgeted, scan-aware LRU cache of decoded row bands for the
// streaming executor's iterative-solver regime.
//
// The paper's recoding argument (Figs 16/17) trades decode work against
// memory traffic: a block decoded many times amortizes its one-time
// encode, and a *hot set held decoded in plain CSR* skips the codec chain
// entirely at the cost of pinned memory. BandCache turns that
// memory-power tradeoff into a runtime policy: bands whose decoded CSR
// streams fit the byte budget are pinned after their first decode and
// accumulated straight from the pinned copy on later iterations; cold
// bands keep streaming through the decoders. Budget 0 disables the
// cache, SIZE_MAX pins everything.
//
// Ownership contract: cached bands own exact-sized copies of the decoded
// index/value streams — they are built *from* the per-worker
// codec::DecodeArena slabs but never alias them, so a cached band
// outlives any slab recycling and a slab never escapes its worker's pool
// (the arena.h ownership rule). Entries are handed out as
// shared_ptr<const CachedBand>; eviction drops the cache's reference,
// and in-flight readers keep theirs until the run ends, so eviction can
// never free memory a worker is still accumulating from.
//
// Scan protection: the executor touches every band exactly once per
// multiply, in an order the workers' claims do not fix. Pure
// LRU under that regime is the textbook thrash case — an insert can
// evict a resident band moments before the scan reaches it, and an
// unlucky completion order yields zero hits from a half-full cache.
// begin_run() marks a run boundary: bands resident at the boundary are
// *protected* until the new run touches them (they are exactly the
// bands the scan is about to want), while bands already consumed this
// run, or idle for a full run, are fair victims. An insert that cannot
// fit without evicting a protected band is refused outright. The
// resulting invariant is order-independent: every warm run hits at
// least once per band that was resident when it started. Callers that
// never call begin_run() get plain byte-budgeted LRU.
//
// Thread safety: every method is safe to call concurrently (one mutex;
// all operations are per-band, not per-block, so the lock is off the
// block-decode hot path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sparse/formats.h"

namespace recode::spmv {

// One decoded block of a cached band: exact-sized copies of the decoded
// streams, immutable after insert.
struct CachedBlock {
  std::size_t block = 0;  // global block index
  std::vector<sparse::index_t> indices;
  std::vector<double> values;
};

struct CachedBand {
  std::vector<CachedBlock> blocks;
  std::size_t bytes = 0;  // decoded payload bytes (indices + values)
};

// Exact decoded size of a band: 4 B index + 8 B value per nnz, the same
// 12 B/nnz convention the paper's baseline uses. Computable *before*
// decoding from the blocking plan, so admission never wastes a copy.
inline std::size_t decoded_band_bytes(std::size_t nnz) {
  return nnz * (sizeof(sparse::index_t) + sizeof(double));
}

class BandCache {
 public:
  // budget_bytes == 0 disables the cache entirely (lookup always misses,
  // admit always refuses).
  explicit BandCache(std::size_t budget_bytes);

  BandCache(const BandCache&) = delete;
  BandCache& operator=(const BandCache&) = delete;

  std::size_t budget_bytes() const { return budget_; }

  // Returns the pinned band and touches it to most-recently-used, or
  // nullptr on miss. The returned reference stays valid after eviction —
  // readers hold shared ownership.
  std::shared_ptr<const CachedBand> lookup(std::size_t band);

  // Non-perturbing membership probe: no LRU touch, no epoch update, no
  // hit/miss accounting. Used by out-of-core prefetchers to skip bands
  // that will be served from the cache — a probe must not count as the
  // run "consuming" the band, or scan protection would lapse before the
  // real lookup arrives.
  bool contains(std::size_t band) const;

  // Admission pre-check: would a band of `bytes` decoded size ever fit?
  // (Bands larger than the whole budget are never built, so the cold
  // path pays the copy only for cacheable bands.)
  bool admissible(std::size_t bytes) const { return bytes > 0 && bytes <= budget_; }

  // Pins `data` under `band`, evicting least-recently-used *unprotected*
  // bands until the budget holds it. Refuses (returns false, evicts and
  // inserts nothing) when data->bytes exceeds the budget or when making
  // room would require evicting a band protected by the current run (see
  // the scan-protection comment above). Re-inserting an existing band
  // replaces it.
  bool insert(std::size_t band, std::shared_ptr<const CachedBand> data);

  // Marks a run boundary for scan protection: bands resident now are
  // shielded from eviction until the new run touches them. Also demotes
  // bands that went untouched for the whole previous run to ordinary
  // LRU victims, so a shifting working set cannot pin dead weight.
  void begin_run();

  // Drops every entry (engine switch, matrix change).
  void clear();

  // Point-in-time accounting (bytes pinned, bands pinned) and lifetime
  // policy counters (hits, misses, inserts, evictions).
  struct Stats {
    std::size_t bytes_pinned = 0;
    std::size_t bands_pinned = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedBand> data;
    std::list<std::size_t>::iterator lru_pos;  // position in lru_
    // Run epoch of the last lookup hit or insert. An entry is protected
    // iff last_epoch + 1 == epoch_: resident at the last begin_run()
    // boundary and not yet touched since, i.e. the scan still owes it a
    // visit. last_epoch == epoch_ means already consumed this run;
    // last_epoch + 1 < epoch_ means it sat out a full run — both are
    // ordinary LRU victims.
    std::uint64_t last_epoch = 0;
  };

  bool protected_entry(const Entry& e) const {
    return e.last_epoch + 1 == epoch_;
  }

  const std::size_t budget_;
  mutable std::mutex mu_;
  std::unordered_map<std::size_t, Entry> entries_;
  std::list<std::size_t> lru_;  // front = most recent, back = next victim
  std::uint64_t epoch_ = 0;     // bumped by begin_run()
  std::size_t bytes_pinned_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace recode::spmv
