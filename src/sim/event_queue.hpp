// Event storage for the discrete-event engine's hottest loop.
//
// Three pieces:
//
//  * InlineFn — a move-only callable with 48 bytes of inline storage. The
//    common NIC-delivery closures (a handful of pointers and integers) are
//    stored in place; larger ones fall back to a slab EventPool block, so
//    steady-state posting performs no heap allocation either way.
//  * EventPool — slab allocator for oversized closures, the SlotPool idiom
//    from core/notify.hpp: 128-byte blocks carved from 64-block slabs with
//    free-list reuse. Blocks larger than one slot go to ::operator new and
//    are counted (Stats::oversize).
//  * CalendarQueue — a ladder queue (Tang, Goh & Thng, ACM TOMACS 2005)
//    over 24-byte (time, seq, slot) keys. The closure is parked once in a
//    recycled slot array and moved out once, at pop; every bucket, rung,
//    overflow list and the sorted bottom moves only keys.
//
// Total order: (time, seq) ascending; the engine assigns seq from a single
// counter, so execution order — and with it every virtual-time result — is
// the one a binary heap on (time, seq) would give, whatever the ladder's
// geometry.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"

namespace narma::sim {

/// Slab allocator for event closures that overflow InlineFn's inline
/// buffer. Single-threaded: only the engine thread posts and pops.
class EventPool {
 public:
  struct Stats {
    std::size_t live = 0;      // blocks currently owned by queued events
    std::size_t capacity = 0;  // blocks ever carved from slabs
    std::size_t recycled = 0;  // allocations served by free-list reuse
    std::size_t oversize = 0;  // closures too big even for a pool block
  };

  static constexpr std::size_t kBlockBytes = 128;

  void* alloc(std::size_t bytes);
  void release(void* p, std::size_t bytes);
  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kSlabBlocks = 64;  // 64 * 128 B = 8 KiB slabs

  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<void*> free_;
  Stats stats_;
};

/// Move-only type-erased `void()` with small-buffer-optimized storage.
/// Closures up to kInlineBytes live inside the object (no allocation at
/// all); larger ones are placed in an EventPool block (slab-recycled) or,
/// without a pool, in ::operator new memory.
class InlineFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineFn() = default;

  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::remove_cvref_t<F>, InlineFn>>>
  explicit InlineFn(F&& f, EventPool* pool = nullptr) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_.inl)) Fn(std::forward<F>(f));
      invoke_ = &invoke_inline<Fn>;
      manage_ = &manage_inline<Fn>;
    } else {
      void* p = pool ? pool->alloc(sizeof(Fn)) : ::operator new(sizeof(Fn));
      ::new (p) Fn(std::forward<F>(f));
      storage_.heap = {p, pool, sizeof(Fn)};
      invoke_ = &invoke_heap<Fn>;
      manage_ = &manage_heap<Fn>;
    }
  }

  InlineFn(InlineFn&& o) noexcept { move_from(o); }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  ~InlineFn() { reset(); }

  void operator()() { invoke_(*this); }
  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  enum class Op : std::uint8_t { kMoveTo, kDestroy };

  struct HeapRef {
    void* ptr;
    EventPool* pool;
    std::size_t bytes;
  };
  union Storage {
    alignas(std::max_align_t) std::byte inl[kInlineBytes];
    HeapRef heap;
  };

  template <class Fn>
  static void invoke_inline(InlineFn& self) {
    (*std::launder(reinterpret_cast<Fn*>(self.storage_.inl)))();
  }
  template <class Fn>
  static void manage_inline(Op op, InlineFn& self, InlineFn* dst) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(self.storage_.inl));
    if (op == Op::kMoveTo)
      ::new (static_cast<void*>(dst->storage_.inl)) Fn(std::move(*f));
    f->~Fn();
  }
  template <class Fn>
  static void invoke_heap(InlineFn& self) {
    (*static_cast<Fn*>(self.storage_.heap.ptr))();
  }
  template <class Fn>
  static void manage_heap(Op op, InlineFn& self, InlineFn* dst) {
    if (op == Op::kMoveTo) {
      dst->storage_.heap = self.storage_.heap;  // pointer steal
      return;
    }
    const HeapRef h = self.storage_.heap;
    static_cast<Fn*>(h.ptr)->~Fn();
    if (h.pool)
      h.pool->release(h.ptr, h.bytes);
    else
      ::operator delete(h.ptr);
  }

  void move_from(InlineFn& o) noexcept {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_) manage_(Op::kMoveTo, o, this);
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }
  void reset() {
    if (manage_) manage_(Op::kDestroy, *this, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  Storage storage_;
  void (*invoke_)(InlineFn&) = nullptr;
  void (*manage_)(Op, InlineFn&, InlineFn*) = nullptr;
};

/// Dependency-free log2 histogram matching obs::HistData's bucket
/// convention (bucket index = bit_width(v); zero-valued samples in bucket
/// 0). sim cannot link obs — obs mirrors gauges into sim::Tracer — so the
/// engine records locally and World::run merges the buckets and the exact
/// count/sum/min/max into the metrics registry via obs::Histogram::merge.
struct Log2Hist {
  std::array<std::uint64_t, 64> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t v) {
    ++buckets[static_cast<std::size_t>(std::bit_width(v))];
    ++count;
    sum += v;
    if (count == 1 || v < min) min = v;
    if (v > max) max = v;
  }
};

/// A scheduled event: (time, seq) key plus the pooled closure.
struct CalEvent {
  Time time;
  std::uint64_t seq;
  InlineFn fn;
};

/// What the calendar queue sorts and moves: the (time, seq) key plus the
/// index of the slot that parks the event's closure.
struct EventKey {
  Time time;
  std::uint64_t seq;
  std::uint32_t slot;
};
static_assert(sizeof(EventKey) == 24);

/// Ladder queue over EventKeys (DESIGN.md §8).
///
/// Levels, earliest first:
///  * `bottom_` — ascending by key; the live part is [head_, size), so pop
///    advances `head_`. A key at or after every pending key is an O(1)
///    append, which covers same-time bursts (seq only grows) and the NIC's
///    mostly-monotonic posts.
///  * rungs — `rungs_[0]` is the calendar (`nbuckets` buckets re-seeded
///    from `overflow_` with a width matched to its spread); deeper rungs
///    have kRungBuckets finer buckets over one dequeued bucket or over a
///    spilled bottom. Buckets are unsorted; a bucket is sorted only when it
///    becomes the bottom.
///  * `overflow_` — unsorted keys at or beyond the calendar's end.
///
/// A bucket that would become a bottom of more than kSpillKeys keys over
/// more than one timestamp spawns a finer rung instead, and so does a
/// bottom that grows past kSpillKeys through inserts; at most kMaxRungs
/// rungs sit below the calendar. All storage is recycled, so steady-state
/// push/pop performs no allocation.
class CalendarQueue {
 public:
  static constexpr std::size_t kRungBuckets = 64;
  static constexpr std::size_t kSpillKeys = 48;
  static constexpr std::size_t kMaxRungs = 8;

  explicit CalendarQueue(std::uint32_t nbuckets);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Time t, std::uint64_t seq, InlineFn fn) {
    route(EventKey{t, seq, park(std::move(fn))});
    ++size_;
  }

  /// Smallest pending (time); requires !empty().
  Time top_time() {
    if (head_ == bottom_.size()) settle();
    return bottom_[head_].time;
  }

  /// Move-out pop of the minimum (time, seq) event; requires !empty().
  CalEvent pop() {
    if (head_ == bottom_.size()) settle();
    const EventKey k = bottom_[head_++];
    if (head_ == bottom_.size()) {
      bottom_.clear();
      head_ = 0;
    }
    --size_;
    free_slots_.push_back(k.slot);
    return CalEvent{k.time, k.seq, std::move(slots_[k.slot])};
  }

  /// Keys moved aside per insert into the sorted bottom (log2 buckets); an
  /// append records 0.
  const Log2Hist& bottom_insert_scan() const { return scan_hist_; }
  /// Most rungs ever live below the calendar at once (<= kMaxRungs).
  std::size_t rungs_high_water() const { return rungs_hw_; }

 private:
  static bool key_less(const EventKey& a, const EventKey& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  struct Rung {
    std::vector<std::vector<EventKey>> buckets;  // unsorted
    Time start = 0;       // bucket i covers [start + i*width, +width) ...
    Time hi = 0;          // ... except the last, which runs to hi
    Time lo = 0;          // keys below lo belong to deeper levels
    unsigned shift = 0;   // width = 1 << shift
    std::size_t cur = 0;  // next bucket to drain; [0, cur) are empty

    std::size_t index(Time t) const {
      return std::min<std::size_t>(
          static_cast<std::size_t>((t - start) >> shift), buckets.size() - 1);
    }
    /// Re-seeds an empty rung over [first, last] (hi = last + 1) with the
    /// narrowest power-of-two width whose buckets cover it.
    void reset(Time first, Time last);
    void advance(std::size_t next);  // sets cur = next and lo to match
  };

  std::uint32_t park(InlineFn fn);
  void route(const EventKey& k);
  void bottom_insert(const EventKey& k);
  // Moves src[from, end), whose times span [first, last], into a new rung
  // below the deepest one.
  void spill(std::vector<EventKey>& src, std::size_t from, Time first,
             Time last);
  void settle();   // ensure the bottom is nonempty (requires size_ > 0)
  void rebuild();  // re-seed the calendar from overflow_

  std::vector<EventKey> bottom_;  // ascending; live part [head_, size)
  std::size_t head_ = 0;
  std::array<Rung, kMaxRungs + 1> rungs_;  // [0] is the calendar
  std::size_t depth_ = 1;                  // live rungs, calendar included
  std::vector<EventKey> overflow_;         // at or beyond rungs_[0].hi
  std::vector<InlineFn> slots_;            // parked closures, by key.slot
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
  std::size_t rungs_hw_ = 0;
  Log2Hist scan_hist_;
};

}  // namespace narma::sim
