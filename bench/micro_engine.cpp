// Event-queue throughput: the real-time cost of post + pop + call for the
// engine's ladder queue (DESIGN.md §8), against the binary heap of
// std::function closures it replaced, driven by the same loops in the same
// run.
//
// Both queues are measured bare, without the engine or a rank around them:
// a push takes the (time, seq) key and the closure, a pop hands the minimum
// closure back and the loop calls it. Two measurements:
//
//  * Hold-model throughput — a classic calendar-queue workload: K=1024
//    self-sustaining event chains, each handler reposting one successor at a
//    random near-future delay, until N total events have executed. Closures
//    capture 40 bytes (the NIC delivery shape): inline for the ladder
//    queue's InlineFn, a heap allocation for the heap's std::function.
//    Reported as events/sec at N = 1k / 100k / 10M.
//
//  * Post/pop split — N events pre-posted at random times in a 1 ms window,
//    then drained; the posting loop and the drain are timed separately
//    (ns/post, ns/pop+dispatch).
//
// Engine-level throughput (rank switches, ready heap, profiler scopes) is
// gated by bench/scale_sweep.cpp's events/s floors.
//
// NARMA_SCALE shrinks the event counts for smoke runs; NARMA_REPS sets the
// repetitions (best-of is reported). CI regression gating:
// tools/check_engine_baseline.py compares the NARMA_JSON export against the
// committed bench/BENCH_engine.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/params.hpp"

namespace {

using namespace narma;

/// The engine's production queue: ladder of (time, seq, slot) keys over
/// InlineFn closures, oversized ones in a slab EventPool.
class LadderQueue {
 public:
  static constexpr const char* kName = "calendar";

  bool empty() const { return q_.empty(); }

  template <class F>
  void push(Time t, std::uint64_t seq, F&& fn) {
    q_.push(t, seq, sim::InlineFn(std::forward<F>(fn), &pool_));
  }

  /// Moves the minimum closure out and calls it.
  void pop_call() {
    sim::CalEvent ev = q_.pop();
    ev.fn();
  }

 private:
  sim::EventPool pool_;  // declared before the queue: events release into it
  sim::CalendarQueue q_{sim::SimParams{}.calendar_buckets};
};

/// The engine's original queue: std::priority_queue of std::function
/// closures on (time, seq). A 40 B capture exceeds libstdc++'s 16-byte
/// std::function buffer, so every push allocates, and top() is const, so
/// every pop copies the closure out.
class LegacyHeapQueue {
 public:
  static constexpr const char* kName = "legacy";

  bool empty() const { return heap_.empty(); }

  template <class F>
  void push(Time t, std::uint64_t seq, F&& fn) {
    heap_.push(Ev{t, seq, std::function<void()>(std::forward<F>(fn))});
  }

  void pop_call() {
    std::function<void()> fn = heap_.top().fn;
    heap_.pop();
    fn();
  }

 private:
  struct Ev {
    Time time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> heap_;
};

template <class Q>
struct Hold {
  Q q;
  Xoshiro256 rng{42};
  std::uint64_t seq = 0;
  std::uint64_t posted = 0;
  std::uint64_t executed = 0;
  std::uint64_t target = 0;
  std::uint64_t sink = 0;
};

// 40-byte capture: state pointer plus NIC-delivery-shaped payload words.
template <class Q>
struct Payload {
  Hold<Q>* h;
  Time t;
  std::uint64_t src, dst, bytes;
};

template <class Q>
void post_chain(Hold<Q>& h, Time t) {
  ++h.posted;
  const Payload<Q> p{&h, t, h.posted & 7, (h.posted >> 3) & 7,
                     64 + (h.posted & 63)};
  static_assert(sizeof(p) == 40);
  h.q.push(t, h.seq++, [p] {
    Hold<Q>& hold = *p.h;
    ++hold.executed;
    hold.sink += p.src ^ p.dst ^ p.bytes;
    if (hold.posted < hold.target)
      post_chain(hold,
                 p.t + ns(static_cast<double>(1 + hold.rng.next_below(1000))));
  });
}

/// Runs the hold model to completion; returns wall nanoseconds for the whole
/// post + drain.
template <class Q>
std::uint64_t run_hold(std::uint64_t n) {
  Hold<Q> h;
  h.target = n;
  const std::uint64_t seeds = std::min<std::uint64_t>(n, 1024);
  const std::uint64_t t0 = wallclock_ns();
  for (std::uint64_t i = 0; i < seeds; ++i)
    post_chain(h, ns(static_cast<double>(1 + h.rng.next_below(1000))));
  while (!h.q.empty()) h.q.pop_call();
  const std::uint64_t wall = wallclock_ns() - t0;
  NARMA_CHECK(h.executed == n)
      << "hold model executed " << h.executed << " of " << n;
  return wall ? wall : 1;
}

struct SplitResult {
  double ns_post = 0;
  double ns_pop = 0;
};

/// Pre-posts n events at random times in a 1 ms window, then drains; times
/// the two loops separately.
template <class Q>
SplitResult run_split(std::uint64_t n) {
  Hold<Q> h;
  Xoshiro256 rng(7);
  const std::uint64_t t0 = wallclock_ns();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Payload<Q> p{&h, 0, i & 7, (i >> 3) & 7, 64 + (i & 63)};
    h.q.push(ns(static_cast<double>(1 + rng.next_below(1000000))), h.seq++,
             [p] {
               ++p.h->executed;
               p.h->sink += p.src ^ p.dst ^ p.bytes;
             });
  }
  const std::uint64_t t1 = wallclock_ns();
  while (!h.q.empty()) h.q.pop_call();
  const std::uint64_t t2 = wallclock_ns();
  NARMA_CHECK(h.executed == n);
  return {static_cast<double>(t1 - t0) / static_cast<double>(n),
          static_cast<double>(t2 - t1) / static_cast<double>(n)};
}

/// Best-of-`reps` hold-model rows for one queue; returns Mevents/s at the
/// largest size.
template <class Q>
double hold_rows(Table& thr, const std::vector<std::uint64_t>& sizes,
                 int reps) {
  double mps = 0;
  for (std::uint64_t n : sizes) {
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (int rep = 0; rep < reps; ++rep) best = std::min(best, run_hold<Q>(n));
    mps = static_cast<double>(n) * 1e3 / static_cast<double>(best);
    thr.add_row({Q::kName, Table::fmt(static_cast<std::size_t>(n)),
                 Table::fmt(static_cast<double>(best) / 1e6, 1),
                 Table::fmt(mps, 2)});
  }
  return mps;
}

template <class Q>
void split_row(Table& split, std::uint64_t n, int reps) {
  SplitResult best{1e30, 1e30};
  for (int rep = 0; rep < reps; ++rep) {
    const SplitResult r = run_split<Q>(n);
    if (r.ns_post + r.ns_pop < best.ns_post + best.ns_pop) best = r;
  }
  split.add_row({Q::kName, Table::fmt(best.ns_post, 1),
                 Table::fmt(best.ns_pop, 1)});
}

}  // namespace

int main() {
  bench::header("micro_engine", "event-queue throughput");
  const int reps = bench::reps(3);
  const double scale = bench::scale();
  bench::note("hold model: 1024 chains, 40 B captures, random <=1 us delays; "
              "bare queues (push, pop and call); best of " +
              std::to_string(reps) + " reps");

  std::vector<std::uint64_t> sizes;
  for (std::uint64_t n : {1000ull, 100000ull, 10000000ull})
    sizes.push_back(std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(static_cast<double>(n) * scale)));

  Table thr({"queue", "events", "wall ms", "Mevents/s"});
  const double legacy_largest = hold_rows<LegacyHeapQueue>(thr, sizes, reps);
  const double calendar_largest = hold_rows<LadderQueue>(thr, sizes, reps);
  bench::print(thr);
  std::printf("calendar/legacy speedup at %llu events: %.2fx\n",
              static_cast<unsigned long long>(sizes.back()),
              calendar_largest / legacy_largest);

  bench::header("micro_engine_split", "post vs pop+dispatch latency");
  const std::uint64_t split_n = std::max<std::uint64_t>(
      1000, static_cast<std::uint64_t>(100000 * scale));
  bench::note("pre-posted at random times in a 1 ms window, then drained; "
              "n=" + std::to_string(split_n));
  Table split({"queue", "ns/post", "ns/pop+dispatch"});
  split_row<LegacyHeapQueue>(split, split_n, reps);
  split_row<LadderQueue>(split, split_n, reps);
  bench::print(split);
  return 0;
}
