#include "sim/event_queue.hpp"

#include <algorithm>

namespace narma::sim {

// -------------------------------------------------------------- EventPool --

void* EventPool::alloc(std::size_t bytes) {
  ++stats_.live;
  if (bytes > kBlockBytes) {
    ++stats_.oversize;
    return ::operator new(bytes);
  }
  if (free_.empty()) {
    auto slab = std::make_unique<std::byte[]>(kSlabBlocks * kBlockBytes);
    std::byte* base = slab.get();
    slabs_.push_back(std::move(slab));
    // Reserve so that release() can never reallocate: the free list's
    // capacity always covers every block ever carved.
    free_.reserve(free_.capacity() + kSlabBlocks);
    for (std::size_t i = kSlabBlocks; i-- > 0;)
      free_.push_back(base + i * kBlockBytes);
    stats_.capacity += kSlabBlocks;
  } else {
    ++stats_.recycled;
  }
  void* p = free_.back();
  free_.pop_back();
  return p;
}

void EventPool::release(void* p, std::size_t bytes) {
  NARMA_ASSERT(stats_.live > 0);
  --stats_.live;
  if (bytes > kBlockBytes) {
    ::operator delete(p);
    return;
  }
  free_.push_back(p);
}

// ---------------------------------------------------------- CalendarQueue --

namespace {

constexpr Time kMaxTime = std::numeric_limits<Time>::max();

// start + (n << shift), saturating at kMaxTime.
Time offset(Time start, std::size_t n, unsigned shift) {
  if (static_cast<Time>(n) > (kMaxTime >> shift)) return kMaxTime;
  const Time span = static_cast<Time>(n) << shift;
  return start > kMaxTime - span ? kMaxTime : start + span;
}

}  // namespace

void CalendarQueue::Rung::reset(Time first, Time last) {
  // The narrowest power-of-two width whose buckets cover [first, last].
  const Time per_bucket = (last - first) / buckets.size();
  shift = std::min(static_cast<unsigned>(std::bit_width(per_bucket)), 63u);
  start = first;
  hi = last == kMaxTime ? kMaxTime : last + 1;
  advance(0);
}

void CalendarQueue::Rung::advance(std::size_t next) {
  cur = next;
  lo = next >= buckets.size() ? hi : std::min(hi, offset(start, next, shift));
}

CalendarQueue::CalendarQueue(std::uint32_t nbuckets) {
  rungs_[0].buckets.resize(nbuckets);
  rungs_[0].reset(0, 0);
}

std::uint32_t CalendarQueue::park(InlineFn fn) {
  if (free_slots_.empty()) {
    NARMA_ASSERT(slots_.size() < std::numeric_limits<std::uint32_t>::max());
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(fn);
  return slot;
}

void CalendarQueue::route(const EventKey& k) {
  // Levels nest: bottom < deepest rung < ... < calendar < overflow, and
  // each rung's hi is its parent's lo. Walk up from the deepest rung, where
  // near-time posts land.
  std::size_t i = depth_ - 1;
  if (k.time < rungs_[i].lo) {
    bottom_insert(k);
    return;
  }
  for (;; --i) {
    Rung& r = rungs_[i];
    if (k.time < r.hi) {
      r.buckets[r.index(k.time)].push_back(k);
      return;
    }
    if (i == 0) break;
  }
  overflow_.push_back(k);
}

void CalendarQueue::bottom_insert(const EventKey& k) {
  if (head_ == bottom_.size() || key_less(bottom_.back(), k)) {
    // Append. Compact the popped prefix instead of growing when it is at
    // least half the vector: each compaction moves fewer keys than were
    // popped since the last one.
    if (bottom_.size() == bottom_.capacity() && 2 * head_ >= bottom_.size()) {
      bottom_.erase(bottom_.begin(),
                    bottom_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    bottom_.push_back(k);
    scan_hist_.record(0);
  } else {
    // Shift whichever side of the insertion point is shorter; the popped
    // prefix gives the front a free slot.
    const auto first = bottom_.begin() + static_cast<std::ptrdiff_t>(head_);
    const auto pos = std::upper_bound(first, bottom_.end(), k, key_less);
    const auto before = static_cast<std::size_t>(pos - first);
    const auto after = static_cast<std::size_t>(bottom_.end() - pos);
    if (head_ > 0 && before < after) {
      std::move(first, pos, first - 1);
      *(pos - 1) = k;
      --head_;
      scan_hist_.record(before);
    } else {
      bottom_.insert(pos, k);
      scan_hist_.record(after);
    }
  }
  if (bottom_.size() - head_ > kSpillKeys && depth_ <= kMaxRungs &&
      bottom_[head_].time != bottom_.back().time) {
    spill(bottom_, head_, bottom_[head_].time, bottom_.back().time);
    head_ = 0;
  }
}

void CalendarQueue::spill(std::vector<EventKey>& src, std::size_t from,
                          Time first, Time last) {
  // The new rung spans the keys [from, end) of `src` and reaches up to the
  // current deepest rung's lo, so the level nesting holds.
  Rung& r = rungs_[depth_];
  if (r.buckets.empty()) r.buckets.resize(kRungBuckets);
  r.reset(first, last);
  r.hi = rungs_[depth_ - 1].lo;
  r.advance(0);
  for (std::size_t i = from; i < src.size(); ++i)
    r.buckets[r.index(src[i].time)].push_back(src[i]);
  src.clear();
  ++depth_;
  rungs_hw_ = std::max(rungs_hw_, depth_ - 1);
}

void CalendarQueue::settle() {
  NARMA_ASSERT(size_ > 0);
  while (head_ == bottom_.size()) {
    bottom_.clear();
    head_ = 0;
    Rung& r = rungs_[depth_ - 1];
    std::size_t i = r.cur;
    while (i < r.buckets.size() && r.buckets[i].empty()) ++i;
    if (i == r.buckets.size()) {
      r.advance(i);
      if (depth_ > 1)
        --depth_;
      else
        rebuild();
      continue;
    }
    r.advance(i + 1);
    std::vector<EventKey>& b = r.buckets[i];
    if (b.size() > kSpillKeys && depth_ <= kMaxRungs) {
      const auto [mn, mx] = std::minmax_element(
          b.begin(), b.end(),
          [](const EventKey& x, const EventKey& y) { return x.time < y.time; });
      if (mn->time != mx->time) {
        spill(b, 0, mn->time, mx->time);
        continue;
      }
    }
    // Copy rather than swap storage: every bucket and the bottom keep their
    // own capacity, so a warmed queue never allocates.
    bottom_.assign(b.begin(), b.end());
    b.clear();
    std::sort(bottom_.begin(), bottom_.end(), key_less);
  }
}

void CalendarQueue::rebuild() {
  // Every level below the calendar is drained; re-seed the calendar from
  // overflow_ with a bucket width matched to the observed spread, so each
  // bucket holds roughly a 1/nbuckets slice of the pending events.
  NARMA_ASSERT(!overflow_.empty());
  Time lo = kMaxTime;
  Time hi = 0;
  for (const EventKey& k : overflow_) {
    lo = std::min(lo, k.time);
    hi = std::max(hi, k.time);
  }
  Rung& cal = rungs_[0];
  cal.reset(lo, hi);
  for (const EventKey& k : overflow_)
    cal.buckets[cal.index(k.time)].push_back(k);
  overflow_.clear();
}

}  // namespace narma::sim
