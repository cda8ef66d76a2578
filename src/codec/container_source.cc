#include "codec/container_source.h"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define RECODE_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define RECODE_HAVE_POSIX_IO 0
#endif

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "telemetry/ledger.h"

namespace recode::codec {

namespace {

std::uint64_t elapsed_ns(const Timer& t) {
  return static_cast<std::uint64_t>(t.seconds() * 1e9);
}

// The storage hop: the on-disk extent (record framing included) enters,
// the payload plus the codec-id dispatch byte leaves — exactly what the
// container hop records as its input for the same block, so the
// storage -> container edge conservation-checks per block.
void ledger_storage_block(std::size_t extent_bytes, std::size_t payload_bytes) {
  telemetry::MovementLedger::global().flow(telemetry::Hop::kStorage,
                                           extent_bytes, payload_bytes + 1);
}

std::uint64_t parse_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (p == end) fail("rcm: truncated varint");
    if (shift >= 64) fail("rcm: overlong varint");
    const std::uint8_t c = *p++;
    v |= static_cast<std::uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) return v;
    shift += 7;
  }
}

// A block's compressed extent, as located by the index, must contain
// exactly [codec-id byte (v2)] | varint len | index bytes | varint len |
// value bytes. Anything else — id disagreeing with the index, lengths
// running past the extent, trailing slack — is corruption.
struct ParsedRecord {
  SourceBlockBytes spans;
  std::size_t payload_bytes = 0;
};

ParsedRecord parse_record(const std::uint8_t* data, std::size_t size,
                          std::uint32_t version, std::uint8_t expect_id) {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + size;
  if (version >= kContainerVersion) {
    if (p == end) fail("rcm: truncated container");
    if (*p != expect_id) fail("rcm: codec id disagrees with index");
    ++p;
  }
  ParsedRecord rec;
  for (int stream = 0; stream < 2; ++stream) {
    const std::uint64_t len = parse_varint(p, end);
    if (len > static_cast<std::uint64_t>(end - p)) {
      fail("rcm: blob length exceeds stream");
    }
    ByteSpan span{p, static_cast<std::size_t>(len)};
    (stream == 0 ? rec.spans.index_data : rec.spans.value_data) = span;
    rec.payload_bytes += span.size();
    p += len;
  }
  if (p != end) fail("rcm: block record does not fill its index extent");
  return rec;
}

class ResidentSource final : public ContainerSource {
 public:
  explicit ResidentSource(const CompressedMatrix& cm) : cm_(&cm) {}
  ResidentSource(std::shared_ptr<const CompressedMatrix> cm)
      : cm_(cm.get()), keepalive_(std::move(cm)) {}

  SourceKind kind() const override { return SourceKind::kResident; }

  SourceBlockBytes block(std::size_t b) override {
    RECODE_CHECK(b < cm_->blocks.size());
    blocks_served_.fetch_add(1, std::memory_order_relaxed);
    return {cm_->blocks[b].index_data, cm_->blocks[b].value_data};
  }

  SourceStats stats() const override {
    SourceStats s;
    s.blocks_served = blocks_served_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  const CompressedMatrix* cm_;
  std::shared_ptr<const CompressedMatrix> keepalive_;
  std::atomic<std::uint64_t> blocks_served_{0};
};

#if RECODE_HAVE_POSIX_IO

class MmapSource final : public ContainerSource {
 public:
  MmapSource(const std::string& path, BlockIndex index, std::uint32_t version)
      : path_(path), index_(std::move(index)), version_(version) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) fail("rcm: cannot open: " + path);
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      ::close(fd_);
      fail("rcm: cannot stat: " + path);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (!index_.offsets.empty() && index_.offsets.back() > size_) {
      ::close(fd_);
      fail("rcm: index offsets exceed file: " + path);
    }
    if (size_ > 0) {
      void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
      if (m == MAP_FAILED) {
        ::close(fd_);
        fail("rcm: mmap failed: " + path);
      }
      map_ = static_cast<const std::uint8_t*>(m);
    }
  }

  ~MmapSource() override {
    if (map_ != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(map_), static_cast<size_t>(size_));
    }
    if (fd_ >= 0) ::close(fd_);
  }

  SourceKind kind() const override { return SourceKind::kMmap; }

  void prefetch(std::size_t first, std::size_t count) override {
    if (count == 0 || map_ == nullptr) return;
    const std::uint64_t off = index_.offsets[first];
    const std::uint64_t len = index_.offsets[first + count] - off;
    // Touch-ahead: page-align the hint and let the kernel read ahead
    // asynchronously while the current band decodes.
    const std::uint64_t page = 4096;
    const std::uint64_t a_off = off & ~(page - 1);
    const std::uint64_t a_len = (off + len) - a_off;
    ::madvise(const_cast<std::uint8_t*>(map_) + a_off,
              static_cast<size_t>(a_len), MADV_WILLNEED);
  }

  void acquire(std::size_t first, std::size_t count) override {
    if (count == 0 || map_ == nullptr) return;
    const std::uint64_t off = index_.offsets[first];
    const std::uint64_t len = index_.offsets[first + count] - off;
    // Fault the range in now (one byte per page) so decode never stalls
    // on a major fault mid-block; the time is the storage read cost.
    Timer t;
    const std::uint8_t* p = map_ + off;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < len; i += 4096) sum += p[i];
    if (len > 0) sum += p[len - 1];
    touch_sink_.store(sum, std::memory_order_relaxed);
    const std::uint64_t ns = elapsed_ns(t);
    telemetry::MovementLedger::global()
        .hop(telemetry::Hop::kStorage)
        .ns.add(ns);
    bytes_read_.fetch_add(len, std::memory_order_relaxed);
    read_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  SourceBlockBytes block(std::size_t b) override {
    RECODE_CHECK(b < index_.block_count());
    const std::uint64_t off = index_.offsets[b];
    const std::size_t extent = static_cast<std::size_t>(index_.extent_bytes(b));
    if (off + extent > size_) fail("rcm: block extent exceeds file: " + path_);
    const ParsedRecord rec =
        parse_record(map_ + off, extent, version_, index_.codec_ids[b]);
    ledger_storage_block(extent, rec.payload_bytes);
    blocks_served_.fetch_add(1, std::memory_order_relaxed);
    return rec.spans;
  }

  SourceStats stats() const override {
    SourceStats s;
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.read_ns = read_ns_.load(std::memory_order_relaxed);
    s.blocks_served = blocks_served_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::string path_;
  BlockIndex index_;
  std::uint32_t version_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  const std::uint8_t* map_ = nullptr;
  std::atomic<std::uint64_t> touch_sink_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> read_ns_{0};
  std::atomic<std::uint64_t> blocks_served_{0};
};

// Windowed streamed reader: pooled buffers filled by pread, a bounded
// budget of in-flight compressed bytes, and a background IO thread that
// services prefetch hints so storage reads overlap decode. All buffers
// are recycled; after warmup (window pool grown to the concurrency the
// run actually uses, capacities grown to the largest extent) the steady
// state performs zero heap allocations.
class StreamedSource final : public ContainerSource {
 public:
  StreamedSource(const std::string& path, BlockIndex index,
                 std::uint32_t version, const StreamedOptions& opts)
      : path_(path),
        index_(std::move(index)),
        version_(version),
        budget_(opts.window_budget_bytes) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) fail("rcm: cannot open: " + path);
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      ::close(fd_);
      fail("rcm: cannot stat: " + path);
    }
    file_size_ = static_cast<std::uint64_t>(st.st_size);
    if (!index_.offsets.empty() && index_.offsets.back() > file_size_) {
      ::close(fd_);
      fail("rcm: index offsets exceed file: " + path);
    }
    owner_.assign(index_.block_count(), nullptr);
    windows_.reserve(64);
    io_thread_ = std::thread([this] { io_loop(); });
  }

  ~StreamedSource() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    io_cv_.notify_all();
    io_thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }

  SourceKind kind() const override { return SourceKind::kStreamed; }

  void prefetch(std::size_t first, std::size_t count) override {
    if (count == 0) return;
    RECODE_CHECK(first + count <= index_.block_count());
    std::lock_guard<std::mutex> lk(mu_);
    if (owner_[first] != nullptr) return;  // already in flight or leased
    const std::size_t bytes = range_bytes(first, count);
    if (!fits(in_flight_bytes_, bytes) || q_size_ == kQueueCapacity) {
      // Dropping a hint is always safe: acquire falls back to a
      // synchronous read. Never queue beyond the byte budget.
      ++stats_.prefetch_drops;
      return;
    }
    Window* w = grab_idle_locked();
    stage_locked(w, first, count, bytes, Window::State::kQueued,
                 /*leased=*/false);
    queue_push_locked(w);
    io_cv_.notify_one();
  }

  void acquire(std::size_t first, std::size_t count) override {
    if (count == 0) return;
    RECODE_CHECK(first + count <= index_.block_count());
    std::unique_lock<std::mutex> lk(mu_);
    Window* w = owner_[first];
    if (w != nullptr) {
      // Lease ranges must match the prefetch ranges exactly (both come
      // from the same band/chunk plan).
      RECODE_CHECK(w->first == first && w->count == count);
      // Claimed: no reclaim touches it now. A window reclaimed while
      // still reading is adopted rather than left to be discarded.
      w->leased = true;
      w->discard = false;
      ready_cv_.wait(lk, [&] { return w->state == Window::State::kReady; });
      if (!w->error.empty()) {
        const std::string msg = w->error;
        reset_locked(w);
        budget_cv_.notify_all();
        fail(msg);
      }
      w->state = Window::State::kInUse;
      ++stats_.prefetch_hits;
      return;
    }
    // No prefetch landed: read inline, still respecting the budget (a
    // single range larger than the whole budget proceeds alone so tiny
    // budgets serialize instead of deadlocking). Leases end as their
    // tasks finish, but an unleased prefetch ends only at its own acquire
    // — possibly this caller's next one — so once the leases alone leave
    // room, the prefetches are reclaimed instead of waited on.
    const std::size_t bytes = range_bytes(first, count);
    budget_cv_.wait(lk, [&] {
      if (fits(in_flight_bytes_, bytes)) return true;
      if (fits(leased_bytes_locked(), bytes)) reclaim_prefetches_locked();
      return fits(in_flight_bytes_, bytes);
    });
    w = grab_idle_locked();
    stage_locked(w, first, count, bytes, Window::State::kReading,
                 /*leased=*/true);
    ++stats_.sync_reads;
    lk.unlock();
    std::uint64_t ns = 0;
    std::string err = read_window_io(w, &ns);
    lk.lock();
    stats_.bytes_read += w->bytes;
    stats_.read_ns += ns;
    if (!err.empty()) {
      reset_locked(w);
      budget_cv_.notify_all();
      fail(err);
    }
    w->state = Window::State::kInUse;
  }

  SourceBlockBytes block(std::size_t b) override {
    std::unique_lock<std::mutex> lk(mu_);
    RECODE_CHECK(b < index_.block_count());
    Window* w = owner_[b];
    RECODE_CHECK(w != nullptr && w->state == Window::State::kInUse);
    const std::uint64_t rel = index_.offsets[b] - w->file_offset;
    const std::size_t extent = static_cast<std::size_t>(index_.extent_bytes(b));
    ++stats_.blocks_served;
    lk.unlock();
    // Parsing outside the lock is safe: the window is leased (kInUse)
    // by the calling worker and cannot be recycled underneath it.
    const ParsedRecord rec = parse_record(w->buf.get() + rel, extent,
                                          version_, index_.codec_ids[b]);
    ledger_storage_block(extent, rec.payload_bytes);
    return rec.spans;
  }

  void release(std::size_t first, std::size_t count) override {
    if (count == 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    Window* w = owner_[first];
    RECODE_CHECK(w != nullptr && w->first == first && w->count == count &&
                 w->state == Window::State::kInUse);
    reset_locked(w);
    budget_cv_.notify_all();
  }

  void end_run() override {
    std::lock_guard<std::mutex> lk(mu_);
    reclaim_prefetches_locked();
  }

  SourceStats stats() const override {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

  std::size_t range_extent_bytes(std::size_t first,
                                 std::size_t count) const override {
    if (count == 0) return 0;
    RECODE_CHECK(first + count <= index_.block_count());
    return range_bytes(first, count);  // offsets immutable after open
  }

  void reserve(std::size_t leases, std::size_t max_lease_bytes) override {
    if (leases == 0 || max_lease_bytes == 0) return;
    // The in-flight byte budget gates staging, so never provision more
    // windows than it admits at the largest lease size (the floor rule
    // always lets one oversized window through).
    leases = std::min(leases,
                      std::max<std::size_t>(1, budget_ / max_lease_bytes));
    std::lock_guard<std::mutex> lk(mu_);
    while (windows_.size() < leases) {
      windows_.push_back(std::make_unique<Window>());
    }
    std::size_t provisioned = 0;
    for (auto& up : windows_) {
      if (provisioned == leases) break;
      if (up->capacity < max_lease_bytes) {
        up->buf = std::make_unique<std::uint8_t[]>(max_lease_bytes);
        up->capacity = max_lease_bytes;
      }
      ++provisioned;
    }
  }

 private:
  struct Window {
    std::unique_ptr<std::uint8_t[]> buf;
    std::size_t capacity = 0;
    std::size_t first = 0;
    std::size_t count = 0;
    std::uint64_t file_offset = 0;
    std::size_t bytes = 0;
    enum class State { kIdle, kQueued, kReading, kReady, kInUse };
    State state = State::kIdle;
    bool leased = false;   // an acquire owns it (always so when kInUse)
    bool discard = false;  // reclaimed mid-read: reset when the read lands
    std::string error;
  };

  // The budget rule: a range fits beside `held` in-flight bytes, and a
  // range alone always fits.
  bool fits(std::size_t held, std::size_t bytes) const {
    return held == 0 || held + bytes <= budget_;
  }

  std::size_t leased_bytes_locked() const {
    std::size_t bytes = 0;
    for (const auto& up : windows_) {
      if (up->leased) bytes += up->bytes;
    }
    return bytes;
  }

  // Reclaims every prefetch no acquire has claimed: queued and ready
  // windows go idle now, a window mid-read once its read lands (unless an
  // acquire adopts it first).
  void reclaim_prefetches_locked() {
    const std::size_t before = in_flight_bytes_;
    for (std::size_t n = q_size_; n > 0; --n) {
      Window* w = queue_pop_locked();
      if (w->leased) {
        queue_push_locked(w);  // keeps its place in the read order
      } else {
        reset_locked(w);
      }
    }
    for (auto& up : windows_) {
      Window* w = up.get();
      if (w->leased) continue;
      if (w->state == Window::State::kReady) {
        reset_locked(w);
      } else if (w->state == Window::State::kReading) {
        w->discard = true;
      }
    }
    if (in_flight_bytes_ < before) budget_cv_.notify_all();
  }

  std::size_t range_bytes(std::size_t first, std::size_t count) const {
    return static_cast<std::size_t>(index_.offsets[first + count] -
                                    index_.offsets[first]);
  }

  Window* grab_idle_locked() {
    // Largest-capacity idle window first: steady state then stages onto
    // buffers that were already grown to a band extent, so growth is
    // confined to warmup. (First-fit by pool order would let timing
    // jitter route a big extent to a never-grown window and allocate
    // long after the pool looks warm.)
    Window* best = nullptr;
    for (auto& up : windows_) {
      if (up->state != Window::State::kIdle) continue;
      if (!best || up->capacity > best->capacity) best = up.get();
    }
    if (best) return best;
    windows_.push_back(std::make_unique<Window>());  // warmup only
    return windows_.back().get();
  }

  void stage_locked(Window* w, std::size_t first, std::size_t count,
                    std::size_t bytes, Window::State state, bool leased) {
    for (std::size_t b = first; b < first + count; ++b) {
      RECODE_CHECK(owner_[b] == nullptr);
      owner_[b] = w;
    }
    if (w->capacity < bytes) {
      const std::size_t cap = std::max(bytes, w->capacity * 2);
      w->buf = std::make_unique<std::uint8_t[]>(cap);
      w->capacity = cap;
    }
    w->first = first;
    w->count = count;
    w->file_offset = index_.offsets[first];
    w->bytes = bytes;
    w->error.clear();
    w->leased = leased;
    w->discard = false;
    w->state = state;
    in_flight_bytes_ += bytes;
    stats_.peak_window_bytes =
        std::max<std::uint64_t>(stats_.peak_window_bytes, in_flight_bytes_);
  }

  void reset_locked(Window* w) {
    for (std::size_t b = w->first; b < w->first + w->count; ++b) {
      if (owner_[b] == w) owner_[b] = nullptr;
    }
    in_flight_bytes_ -= w->bytes;
    w->count = 0;
    w->bytes = 0;
    w->leased = false;
    w->discard = false;
    w->error.clear();
    w->state = Window::State::kIdle;
  }

  void queue_push_locked(Window* w) {
    RECODE_CHECK(q_size_ < kQueueCapacity);
    queue_[q_tail_] = w;
    q_tail_ = (q_tail_ + 1) % kQueueCapacity;
    ++q_size_;
  }

  Window* queue_pop_locked() {
    RECODE_CHECK(q_size_ > 0);
    Window* w = queue_[q_head_];
    q_head_ = (q_head_ + 1) % kQueueCapacity;
    --q_size_;
    return w;
  }

  // pread the staged extent; returns an error message on failure.
  std::string read_window_io(Window* w, std::uint64_t* ns_out) {
    Timer t;
    std::size_t done = 0;
    while (done < w->bytes) {
      const ssize_t n =
          ::pread(fd_, w->buf.get() + done, w->bytes - done,
                  static_cast<off_t>(w->file_offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return "rcm: read failed at offset " +
               std::to_string(w->file_offset + done) + ": " + path_;
      }
      if (n == 0) {
        return "rcm: short read (truncated container): " + path_;
      }
      done += static_cast<std::size_t>(n);
    }
    *ns_out = elapsed_ns(t);
    telemetry::MovementLedger::global()
        .hop(telemetry::Hop::kStorage)
        .ns.add(*ns_out);
    return {};
  }

  void io_loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      io_cv_.wait(lk, [&] { return stopping_ || q_size_ > 0; });
      if (stopping_) return;
      Window* w = queue_pop_locked();
      if (w->state != Window::State::kQueued) continue;  // discarded entry
      w->state = Window::State::kReading;
      lk.unlock();
      std::uint64_t ns = 0;
      std::string err = read_window_io(w, &ns);
      lk.lock();
      stats_.bytes_read += w->bytes;
      stats_.read_ns += ns;
      if (w->discard) {
        reset_locked(w);
        budget_cv_.notify_all();
      } else {
        w->error = std::move(err);
        w->state = Window::State::kReady;
        ready_cv_.notify_all();
      }
    }
  }

  static constexpr std::size_t kQueueCapacity = 256;

  std::string path_;
  BlockIndex index_;
  std::uint32_t version_;
  std::size_t budget_;
  int fd_ = -1;
  std::uint64_t file_size_ = 0;

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::condition_variable budget_cv_;
  std::condition_variable io_cv_;
  std::vector<std::unique_ptr<Window>> windows_;
  std::vector<Window*> owner_;
  Window* queue_[kQueueCapacity] = {};
  std::size_t q_head_ = 0;
  std::size_t q_tail_ = 0;
  std::size_t q_size_ = 0;
  std::size_t in_flight_bytes_ = 0;
  bool stopping_ = false;
  SourceStats stats_;
  std::thread io_thread_;
};

#endif  // RECODE_HAVE_POSIX_IO

}  // namespace

const char* source_kind_name(SourceKind kind) {
  switch (kind) {
    case SourceKind::kResident: return "resident";
    case SourceKind::kMmap: return "mmap";
    case SourceKind::kStreamed: return "streamed";
  }
  return "?";
}

std::shared_ptr<ContainerSource> make_resident_source(
    const CompressedMatrix& cm) {
  return std::make_shared<ResidentSource>(cm);
}

OpenedContainer open_container(const std::string& path, SourceKind kind,
                               const StreamedOptions& opts) {
  OpenedContainer oc;
  oc.kind = kind;
  ContainerLayout layout = read_container_layout_file(path);
  oc.index = layout.index;
  oc.version = layout.version;
  oc.file_size = layout.file_size;
  switch (kind) {
    case SourceKind::kResident: {
      auto cm =
          std::make_shared<const CompressedMatrix>(read_compressed_file(path));
      oc.matrix = std::const_pointer_cast<CompressedMatrix>(cm);
      oc.source = std::make_shared<ResidentSource>(cm);
      break;
    }
    case SourceKind::kMmap: {
#if RECODE_HAVE_POSIX_IO
      oc.matrix = std::make_shared<CompressedMatrix>(std::move(layout.matrix));
      oc.source = std::make_shared<MmapSource>(path, std::move(layout.index),
                                               layout.version);
#else
      fail("rcm: mmap source unsupported on this platform");
#endif
      break;
    }
    case SourceKind::kStreamed: {
#if RECODE_HAVE_POSIX_IO
      oc.matrix = std::make_shared<CompressedMatrix>(std::move(layout.matrix));
      oc.source = std::make_shared<StreamedSource>(
          path, std::move(layout.index), layout.version, opts);
#else
      fail("rcm: streamed source unsupported on this platform");
#endif
      break;
    }
  }
  return oc;
}

}  // namespace recode::codec
