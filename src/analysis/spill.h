// Out-of-core backing store for the exploration core.
//
// The substrate invariant that makes spilling possible is append-only
// growth: states are fixed-width words appended back-to-back, edge rows are
// appended and never rewritten, and the BFS builders only ever *read* the
// states they expand and *append* new ones. SegmentedStore<T> turns
// that invariant into an out-of-core layout: items live in fixed-capacity
// segments; once a segment is full and the owner's *floor* has moved past
// it, its bytes are written once to a per-structure file inside a shared
// SpillDir and the heap copy is freed. Reads of spilled items fault the
// segment back in as a read-only mmap; mapped segments are evicted FIFO so
// the resident set (heap tail + mapped window) stays bounded by the
// configured budget — bounding *address space*, not just RSS, so a build
// under `ulimit -v` behaves.
//
// Threading contract: none. Every operation, reads included (a read may
// fault a segment in and evict another), mutates the segment table, so a
// store is used by one thread at a time. A sealed graph shared across
// threads by the serve cache is never spilled (spill requests bypass it).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/fault_inject.h"

namespace pnut::analysis {

/// Out-of-core knobs, carried by ReachOptions / TimedReachOptions.
struct SpillOptions {
  /// Resident-byte budget for the exploration's state arena + edge pool.
  /// 0 disables spilling entirely (the flat in-RAM layout, bit-for-bit the
  /// pre-spill behavior). When set, spilling engages lazily: nothing is
  /// written to disk until the resident set actually exceeds the budget.
  std::size_t max_resident_bytes = 0;
  /// Directory for segment files; empty means the system temp directory.
  /// A uniquely named subdirectory is created inside it and removed (with
  /// its segment files) when the graph is destroyed — on error paths too.
  std::string dir;
  /// Per-structure segment payload size. Smaller segments mean a tighter
  /// residency window and more fault-in churn; the default suits graphs in
  /// the hundreds-of-MB range. Tests shrink it to force spilling on tiny
  /// graphs.
  std::size_t segment_bytes = std::size_t{4} << 20;
};

namespace detail {

/// Per-structure segment size: the configured size, clamped so the
/// always-resident open tail segment cannot dwarf the structure's own
/// budget share (a 4 MB default segment against a 100 KB budget would make
/// the budget fiction). Never clamps below 16 KB — except when the caller
/// explicitly configured segments that small (tests forcing spill on tiny
/// graphs).
inline std::size_t segment_bytes_for(std::size_t configured, std::size_t budget) {
  return std::min(configured, std::max(budget / 4, std::size_t{16} << 10));
}

/// Uniquely named spill subdirectory, recursively removed on destruction.
/// Shared (via shared_ptr) by every structure of one exploration so the
/// segment files outlive the build for post-hoc graph queries and are
/// cleaned up exactly once — whether the build completes or unwinds.
class SpillDir {
 public:
  /// Creates `<base>/pnut-spill-<pid>-<counter>`; empty base = temp dir.
  explicit SpillDir(const std::string& base);
  ~SpillDir();
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One segment file: lazily created, written with pwrite at page-aligned
/// per-segment offsets, read back as read-only mmaps. Move-only.
class SpillFile {
 public:
  SpillFile() = default;
  SpillFile(std::shared_ptr<SpillDir> dir, std::string name)
      : dir_(std::move(dir)), name_(std::move(name)) {}
  ~SpillFile();
  SpillFile(SpillFile&& other) noexcept { swap(other); }
  SpillFile& operator=(SpillFile&& other) noexcept {
    SpillFile tmp(std::move(other));
    swap(tmp);
    return *this;
  }
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  void swap(SpillFile& other) noexcept {
    std::swap(dir_, other.dir_);
    std::swap(name_, other.name_);
    std::swap(fd_, other.fd_);
  }

  /// Writes `bytes` at `offset`, creating the file on first use.
  void write(std::size_t offset, const void* data, std::size_t bytes);
  /// Maps `bytes` at `offset` (page-aligned) read-only.
  [[nodiscard]] const void* map(std::size_t offset, std::size_t bytes);
  static void unmap(const void* addr, std::size_t bytes);

  /// OS page size (mmap offset granularity).
  static std::size_t page_size();

 private:
  std::shared_ptr<SpillDir> dir_;
  std::string name_;
  int fd_ = -1;
};

/// Append-only item store with two modes.
///
/// Flat (default): one growable vector — exactly the pre-spill layout and
/// cost; `flat_at` is a raw pointer add.
///
/// Segmented (after `configure_spill`): fixed-capacity segments addressed
/// as (segment, position) by the owner. The owner controls placement with
/// `room()` / `pad_to_boundary()` so its rows never straddle a segment
/// boundary, and sets a *floor*: segments wholly below it are sealed and
/// may be written out once the resident set exceeds the budget. Reads of
/// spilled segments fault in a read-only mapping; mapped segments are
/// evicted FIFO (the two most recently touched are pinned so one live
/// parent span and one live row span never invalidate each other).
template <typename T>
class SegmentedStore {
 public:
  SegmentedStore() = default;
  ~SegmentedStore() { release(); }
  SegmentedStore(SegmentedStore&& other) noexcept { swap(other); }
  SegmentedStore& operator=(SegmentedStore&& other) noexcept {
    SegmentedStore tmp(std::move(other));
    swap(tmp);
    return *this;
  }
  SegmentedStore(const SegmentedStore&) = delete;
  SegmentedStore& operator=(const SegmentedStore&) = delete;

  void swap(SegmentedStore& other) noexcept {
    std::swap(flat_, other.flat_);
    std::swap(segments_, other.segments_);
    std::swap(file_, other.file_);
    std::swap(items_per_segment_, other.items_per_segment_);
    std::swap(file_slot_bytes_, other.file_slot_bytes_);
    std::swap(tail_seg_, other.tail_seg_);
    std::swap(tail_pos_, other.tail_pos_);
    std::swap(spill_cursor_, other.spill_cursor_);
    std::swap(floor_seg_, other.floor_seg_);
    std::swap(budget_bytes_, other.budget_bytes_);
    std::swap(resident_bytes_, other.resident_bytes_);
    std::swap(spilled_bytes_, other.spilled_bytes_);
    std::swap(peak_resident_bytes_, other.peak_resident_bytes_);
    std::swap(engaged_, other.engaged_);
    std::swap(mapped_, other.mapped_);
    std::swap(mru_, other.mru_);
    std::swap(prev_mru_, other.prev_mru_);
  }

  /// Switches to segmented mode. Must be called while empty.
  void configure_spill(std::shared_ptr<SpillDir> dir, const std::string& name,
                       std::size_t items_per_segment, std::size_t budget_bytes) {
    if (!flat_.empty() || tail_seg_ != 0 || tail_pos_ != 0) {
      throw std::logic_error("SegmentedStore: configure_spill on non-empty store");
    }
    if (items_per_segment == 0) {
      throw std::invalid_argument("SegmentedStore: zero items per segment");
    }
    file_ = SpillFile(std::move(dir), name);
    items_per_segment_ = items_per_segment;
    const std::size_t page = SpillFile::page_size();
    file_slot_bytes_ = (payload_bytes() + page - 1) / page * page;
    budget_bytes_ = budget_bytes;
  }

  [[nodiscard]] bool segmented() const { return items_per_segment_ != 0; }
  [[nodiscard]] std::size_t items_per_segment() const { return items_per_segment_; }

  /// Virtual size in items, padding holes included (segmented mode).
  [[nodiscard]] std::size_t virtual_size() const {
    return segmented() ? tail_seg_ * items_per_segment_ + tail_pos_ : flat_.size();
  }
  [[nodiscard]] std::size_t tail_seg() const { return tail_seg_; }
  [[nodiscard]] std::size_t tail_pos() const { return tail_pos_; }

  /// Items the next append can place contiguously. Flat mode: unbounded.
  [[nodiscard]] std::size_t room() const {
    if (!segmented()) return SIZE_MAX;
    return items_per_segment_ - tail_pos_;  // tail_pos_ < items_per_segment_
  }

  /// Closes the open segment: zero-fills its unused tail (so the file never
  /// receives uninitialized bytes) and starts the next append in a fresh
  /// segment. No-op in flat mode or on a boundary.
  void pad_to_boundary() {
    if (!segmented() || tail_pos_ == 0) return;
    T* base = segments_[tail_seg_].heap.get();
    std::memset(static_cast<void*>(base + tail_pos_), 0,
                (items_per_segment_ - tail_pos_) * sizeof(T));
    ++tail_seg_;
    tail_pos_ = 0;
  }

  /// Appends `n` default-initialized items and returns a mutable pointer to
  /// them. Segmented mode: caller must ensure `n <= room()`.
  T* extend(std::size_t n) {
    if (n == 0) return nullptr;
    if (!segmented()) {
      const std::size_t base = flat_.size();
      if (base + n > flat_.capacity()) {
        testing::FaultInjector::check(testing::FaultInjector::Site::kArenaGrow);
      }
      flat_.resize(base + n);
      const std::size_t cap_bytes = flat_.capacity() * sizeof(T);
      resident_bytes_ = cap_bytes;
      if (cap_bytes > peak_resident_bytes_) peak_resident_bytes_ = cap_bytes;
      return flat_.data() + base;
    }
    if (n > room()) throw std::logic_error("SegmentedStore: extend past segment end");
    if (tail_pos_ == 0) open_tail_segment();
    T* out = segments_[tail_seg_].heap.get() + tail_pos_;
    tail_pos_ += n;
    if (tail_pos_ == items_per_segment_) {
      ++tail_seg_;
      tail_pos_ = 0;
    }
    maybe_spill();
    return out;
  }

  /// Appends `n` items copied from `src` (same placement rules as extend).
  T* append(const T* src, std::size_t n) {
    T* out = extend(n);
    std::copy_n(src, n, out);
    return out;
  }

  /// Flat mode read: raw pointer arithmetic, the hot pre-spill path.
  [[nodiscard]] const T* flat_at(std::size_t i) const { return flat_.data() + i; }

  /// Segmented read; faults the segment in from disk if needed. Any read
  /// may evict a previously mapped segment — pointers from earlier reads
  /// (other than the immediately preceding one) may dangle.
  [[nodiscard]] const T* at(std::size_t seg, std::size_t pos) const {
    const Segment& s = segments_[seg];
    if (s.heap) return s.heap.get() + pos;
    if (s.map) {
      touch(seg);
      return s.map + pos;
    }
    return const_cast<SegmentedStore*>(this)->fault_in(seg) + pos;
  }

  /// Segments strictly below `seg` are sealed and may spill.
  void set_floor_seg(std::size_t seg) {
    if (seg > floor_seg_) floor_seg_ = seg;
  }

  /// Writes out sealed heap segments (oldest first) and evicts mapped ones
  /// while the resident set exceeds the budget. Called automatically after
  /// every append; cheap when under budget.
  void maybe_spill() {
    if (!segmented() || resident_bytes_ <= budget_bytes_) return;
    while (resident_bytes_ > budget_bytes_ && spill_cursor_ < floor_seg_ &&
           spill_cursor_ < segments_.size()) {
      Segment& s = segments_[spill_cursor_];
      file_.write(spill_cursor_ * file_slot_bytes_, s.heap.get(), payload_bytes());
      s.heap.reset();
      s.on_disk = true;
      resident_bytes_ -= payload_bytes();
      spilled_bytes_ += payload_bytes();
      engaged_ = true;
      ++spill_cursor_;
    }
    evict_mapped();
  }

  /// Flat mode only (segments are fixed-size). Grows geometrically so
  /// repeated slightly-larger reserves never degrade into a realloc each.
  void reserve(std::size_t items) {
    if (segmented() || items <= flat_.capacity()) return;
    flat_.reserve(std::max(items, flat_.capacity() * 2));
    const std::size_t cap_bytes = flat_.capacity() * sizeof(T);
    resident_bytes_ = cap_bytes;
    if (cap_bytes > peak_resident_bytes_) peak_resident_bytes_ = cap_bytes;
  }

  /// Exact bytes currently heap-allocated or mapped. Flat mode: vector
  /// capacity (genuinely resident).
  [[nodiscard]] std::size_t resident_bytes() const { return resident_bytes_; }
  [[nodiscard]] std::size_t spilled_bytes() const { return spilled_bytes_; }
  [[nodiscard]] std::size_t peak_resident_bytes() const { return peak_resident_bytes_; }
  [[nodiscard]] bool engaged() const { return engaged_; }

 private:
  struct Segment {
    std::unique_ptr<T[]> heap;   // writable, resident
    const T* map = nullptr;      // read-only view of the spilled bytes
    bool on_disk = false;
  };

  [[nodiscard]] std::size_t payload_bytes() const {
    return items_per_segment_ * sizeof(T);
  }

  void open_tail_segment() {
    testing::FaultInjector::check(testing::FaultInjector::Site::kArenaGrow);
    if (segments_.size() <= tail_seg_) segments_.resize(tail_seg_ + 1);
    segments_[tail_seg_].heap = std::make_unique<T[]>(items_per_segment_);
    resident_bytes_ += payload_bytes();
    if (resident_bytes_ > peak_resident_bytes_) peak_resident_bytes_ = resident_bytes_;
  }

  const T* fault_in(std::size_t seg) {
    Segment& s = segments_[seg];
    s.map = static_cast<const T*>(file_.map(seg * file_slot_bytes_, payload_bytes()));
    mapped_.push_back(seg);
    resident_bytes_ += payload_bytes();
    if (resident_bytes_ > peak_resident_bytes_) peak_resident_bytes_ = resident_bytes_;
    touch(seg);
    evict_mapped();
    return s.map;
  }

  void touch(std::size_t seg) const {
    if (mru_ != seg) {
      prev_mru_ = mru_;
      mru_ = seg;
    }
  }

  /// FIFO eviction of mapped segments down to the budget, skipping the two
  /// most recently touched (one live parent span + one live row span).
  void evict_mapped() {
    std::size_t rotations = mapped_.size();
    while (resident_bytes_ > budget_bytes_ && !mapped_.empty() && rotations-- > 0) {
      const std::size_t seg = mapped_.front();
      mapped_.pop_front();
      if (seg == mru_ || seg == prev_mru_) {
        mapped_.push_back(seg);  // pinned; try the next one
        continue;
      }
      Segment& s = segments_[seg];
      SpillFile::unmap(s.map, payload_bytes());
      s.map = nullptr;
      resident_bytes_ -= payload_bytes();
    }
  }

  void release() {
    for (Segment& s : segments_) {
      if (s.map) SpillFile::unmap(s.map, payload_bytes());
      s.map = nullptr;
    }
  }

  std::vector<T> flat_;
  std::vector<Segment> segments_;
  SpillFile file_;
  std::size_t items_per_segment_ = 0;  // 0 = flat mode
  std::size_t file_slot_bytes_ = 0;
  std::size_t tail_seg_ = 0;
  std::size_t tail_pos_ = 0;
  std::size_t spill_cursor_ = 0;  // first segment not yet written out
  std::size_t floor_seg_ = 0;
  std::size_t budget_bytes_ = 0;
  std::size_t resident_bytes_ = 0;
  std::size_t spilled_bytes_ = 0;
  std::size_t peak_resident_bytes_ = 0;
  bool engaged_ = false;
  mutable std::deque<std::size_t> mapped_;
  mutable std::size_t mru_ = SIZE_MAX;
  mutable std::size_t prev_mru_ = SIZE_MAX;
};

}  // namespace detail
}  // namespace pnut::analysis
