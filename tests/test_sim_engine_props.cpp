// Property tests of the engine's event and scheduling core.
//
// The headline property: every event the ladder queue pops is the minimum
// (time, seq) of the events pending at that instant, as a shadow ordered set
// records them — so execution is exactly what a binary heap on (time, seq)
// would give. It is checked over >= 1000 randomized schedules (random rank
// counts, event trees with same-time children, yields, interleaved drains)
// and >= 1000 burst-heavy schedules aimed at the ladder geometry (same-time
// fan-outs wider than the spill threshold, near-time fan-outs that spill
// rungs down to the depth cap, posts earlier than the bottom's head).
// Alongside them live the engine edge cases: events posted exactly at a
// rank's resume horizon, posting from inside a handler at the same
// timestamp, batched posts, the deadlock-dump death test, and
// (EngineQueueSlow, ctest label `slow`) the 4096-rank barrier burst that
// bounds the bottom's insert cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/world.hpp"
#include "sim/engine.hpp"

using namespace narma;

namespace {

// ---------------------------------------------------------------------------
// Randomized-schedule harness. A schedule is generated from a seed *before*
// execution (so every engine configuration replays exactly the same
// program): per-rank op lists (advance / post / yield / drain) plus a
// tree of event specs whose children repost at relative delays (including
// zero, i.e. same-timestamp posting from inside a handler).
// ---------------------------------------------------------------------------

struct EventSpec {
  Time delay = 0;                // relative to the posting context
  std::vector<int> children;     // indices into Script::events
};

struct Op {
  enum Kind : std::uint8_t { kAdvance, kPost, kYield, kDrain } kind;
  Time dt = 0;
  int event = -1;  // for kPost
};

struct Script {
  int nranks = 1;
  std::vector<std::vector<Op>> ops;  // per rank
  std::vector<EventSpec> events;
};

Script make_script(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Script sc;
  sc.nranks = 1 + static_cast<int>(rng.next_below(4));
  sc.ops.resize(static_cast<std::size_t>(sc.nranks));
  for (auto& ops : sc.ops) {
    const std::size_t n_ops = 2 + rng.next_below(24);
    for (std::size_t i = 0; i < n_ops; ++i) {
      Op op;
      switch (rng.next_below(4)) {
        case 0:
          op.kind = Op::kAdvance;
          op.dt = ns(static_cast<double>(rng.next_below(900)));
          break;
        case 1: {
          op.kind = Op::kPost;
          // Delays cluster near zero (mostly-monotonic NIC-like pattern)
          // with occasional far-future outliers.
          op.dt = rng.next_below(8) == 0
                      ? us(static_cast<double>(1 + rng.next_below(50)))
                      : ns(static_cast<double>(rng.next_below(1200)));
          const std::size_t parent = sc.events.size();
          op.event = static_cast<int>(parent);
          sc.events.push_back(EventSpec{});
          const std::size_t n_children = rng.next_below(3);
          for (std::size_t c = 0; c < n_children; ++c) {
            EventSpec child;
            // Zero-delay children exercise same-timestamp posting from
            // inside a running handler.
            child.delay = rng.next_below(3) == 0
                              ? 0
                              : ns(static_cast<double>(rng.next_below(700)));
            sc.events[parent].children.push_back(
                static_cast<int>(sc.events.size()));
            sc.events.push_back(child);
          }
          break;
        }
        case 2:
          op.kind = Op::kYield;
          op.dt = ns(static_cast<double>(rng.next_below(2500)));
          break;
        default:
          op.kind = Op::kDrain;
          break;
      }
      ops.push_back(op);
    }
  }
  return sc;
}

struct RunLog {
  std::vector<std::pair<int, Time>> exec;  // (event index, scheduled time)
  std::vector<Time> finish;                // per-rank final clock
  std::uint64_t events_executed = 0;
  std::uint64_t events_posted = 0;
  std::uint64_t misordered = 0;  // pops that were not the pending minimum

  bool operator==(const RunLog&) const = default;
};

/// One run's state shared by its handlers. `pending` shadows the queue as
/// (time, seq) keys: a post inserts its key, a handler checks that its key
/// is the minimum and erases it. Seqs are unique, so a run in which every
/// pop is the minimum executes exactly the binary-heap order.
struct RunCtx {
  sim::Engine& eng;
  const Script& sc;
  RunLog log;
  std::set<std::pair<Time, std::uint64_t>> pending;
};

void post_spec(RunCtx& rc, int idx, Time t) {
  const std::uint64_t seq = rc.eng.events_posted();  // the seq post() takes
  rc.pending.emplace(t, seq);
  rc.eng.post(t, [&rc, idx, t, seq] {
    if (rc.pending.empty() || *rc.pending.begin() != std::pair{t, seq})
      ++rc.log.misordered;
    rc.pending.erase({t, seq});
    rc.log.exec.emplace_back(idx, t);
    const EventSpec& ev = rc.sc.events[static_cast<std::size_t>(idx)];
    for (int c : ev.children)
      post_spec(rc, c, t + rc.sc.events[static_cast<std::size_t>(c)].delay);
  });
}

/// Ladder geometry reached by one run.
struct QueueStats {
  std::size_t rungs_hw = 0;
  std::uint64_t bottom_inserts = 0;
  std::uint64_t bottom_scan = 0;
};

/// Runs `sc`; every rank finally yields `tail` past its clock, which must
/// exceed the longest delay chain of the script so all events execute.
RunLog run_script(const Script& sc, sim::SimParams sp, Time tail = us(200),
                  QueueStats* stats = nullptr) {
  sim::Engine eng(sc.nranks, sp);
  RunCtx rc{eng, sc, {}, {}};
  RunLog& log = rc.log;
  log.finish.resize(static_cast<std::size_t>(sc.nranks));
  eng.run([&](sim::RankCtx& r) {
    for (const Op& op : sc.ops[static_cast<std::size_t>(r.id())]) {
      switch (op.kind) {
        case Op::kAdvance: r.advance(op.dt); break;
        case Op::kPost: post_spec(rc, op.event, r.now() + op.dt); break;
        case Op::kYield: r.yield_until(r.now() + op.dt); break;
        case Op::kDrain: r.drain(); break;
      }
    }
    // Push every rank past the last possible event so all events execute.
    r.yield_until(r.now() + tail);
    log.finish[static_cast<std::size_t>(r.id())] = r.now();
  });
  log.events_executed = eng.events_executed();
  log.events_posted = eng.events_posted();
  if (stats) {
    stats->rungs_hw = eng.ladder_rungs_high_water();
    stats->bottom_inserts = eng.bottom_insert_scan_hist().count;
    stats->bottom_scan = eng.bottom_insert_scan_hist().sum;
  }
  return log;
}

// ---------------------------------------------------------------------------
// Burst-heavy schedules aimed at the ladder geometry (the generic family
// above rarely fills a bucket past the spill threshold).
// ---------------------------------------------------------------------------

constexpr std::size_t kSpill = sim::CalendarQueue::kSpillKeys;
// Log-uniform fan-out delays reach below 2^50 ps; a rank's last post sits
// at most a few microseconds past its final clock.
constexpr Time kBurstTail = Time{1} << 51;

Script make_burst_script(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Script sc;
  sc.nranks = 1 + static_cast<int>(rng.next_below(3));
  sc.ops.resize(static_cast<std::size_t>(sc.nranks));
  auto fan_out = [&](std::size_t parent, std::size_t n, auto&& delay) {
    for (std::size_t c = 0; c < n; ++c) {
      EventSpec child;
      child.delay = delay();
      sc.events[parent].children.push_back(static_cast<int>(sc.events.size()));
      sc.events.push_back(child);
    }
  };
  for (auto& ops : sc.ops) {
    const std::size_t n_ops = 3 + rng.next_below(10);
    for (std::size_t i = 0; i < n_ops; ++i) {
      Op op;
      switch (rng.next_below(5)) {
        case 0:
          op.kind = Op::kAdvance;
          op.dt = ns(static_cast<double>(rng.next_below(500)));
          break;
        case 1: {
          op.kind = Op::kPost;
          op.dt = ns(static_cast<double>(rng.next_below(50)));
          const std::size_t parent = sc.events.size();
          op.event = static_cast<int>(parent);
          sc.events.push_back(EventSpec{});
          switch (rng.next_below(3)) {
            case 0:  // one handler posts more same-time children than a
                     // bottom holds before it spills
              fan_out(parent, kSpill + 1 + rng.next_below(80),
                      [] { return Time{0}; });
              break;
            case 1:  // log-uniform near-time fan-out: each rung resolves
                     // ~6 bits of delay, so the early keys spill rung after
                     // rung down to the depth cap
              fan_out(parent, 150 + rng.next_below(250), [&] {
                return rng.next_below(Time{1} << rng.next_below(51));
              });
              break;
            default:  // same-time block with picosecond stragglers
              fan_out(parent, 30 + rng.next_below(60), [&] {
                return rng.next_below(4) == 0 ? rng.next_below(64) : Time{0};
              });
              break;
          }
          break;
        }
        case 2: {
          // At (or 1 ps after) the rank's clock: the scheduler has already
          // settled the bottom on later events, so this lands before its
          // head.
          op.kind = Op::kPost;
          op.dt = rng.next_below(2);
          op.event = static_cast<int>(sc.events.size());
          sc.events.push_back(EventSpec{});
          break;
        }
        case 3:
          op.kind = Op::kYield;
          op.dt = ns(static_cast<double>(rng.next_below(2000)));
          break;
        default:
          op.kind = Op::kDrain;
          break;
      }
      ops.push_back(op);
    }
  }
  return sc;
}

TEST(EngineQueueEquivalence, ThousandRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const RunLog log = run_script(make_script(seed), {});
    ASSERT_EQ(log.misordered, 0u) << "out-of-order pop at seed " << seed;
    ASSERT_EQ(log.events_executed, log.events_posted)
        << "unexecuted events at seed " << seed;
  }
}

TEST(EngineQueueEquivalence, ThousandBurstSchedules) {
  std::size_t deepest = 0;
  std::uint64_t moved = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    QueueStats qs;
    const RunLog log = run_script(make_burst_script(seed), {}, kBurstTail, &qs);
    ASSERT_EQ(log.misordered, 0u) << "out-of-order pop at burst seed " << seed;
    ASSERT_EQ(log.events_executed, log.events_posted)
        << "unexecuted events at burst seed " << seed;
    deepest = std::max(deepest, qs.rungs_hw);
    moved += qs.bottom_scan;
  }
  // The family reaches what it is aimed at: the rung cap, and inserts that
  // land inside the sorted bottom rather than appending.
  EXPECT_EQ(deepest, sim::CalendarQueue::kMaxRungs);
  EXPECT_GT(moved, 0u);
}

// Tiny calendars force constant bucket-drain/rebuild churn; order must not
// change (the calendar geometry is performance-only state).
TEST(EngineQueueEquivalence, CalendarGeometryIsOrderInvariant) {
  sim::SimParams default_p;
  sim::SimParams one_bucket = default_p;
  one_bucket.calendar_buckets = 1;
  sim::SimParams odd_buckets = default_p;
  odd_buckets.calendar_buckets = 7;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const Script sc = make_script(seed);
    const RunLog a = run_script(sc, default_p);
    ASSERT_EQ(a, run_script(sc, one_bucket))
        << "single-bucket divergence at seed " << seed;
    ASSERT_EQ(a, run_script(sc, odd_buckets))
        << "odd-bucket divergence at seed " << seed;
    const Script bursts = make_burst_script(seed);
    const RunLog b = run_script(bursts, default_p, kBurstTail);
    ASSERT_EQ(b, run_script(bursts, one_bucket, kBurstTail))
        << "single-bucket divergence at burst seed " << seed;
    ASSERT_EQ(b, run_script(bursts, odd_buckets, kBurstTail))
        << "odd-bucket divergence at burst seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------------

// An event posted exactly at a rank's resume horizon executes before the
// rank resumes (hardware-before-software at equal instants).
TEST(EngineEdge, EventExactlyAtResumeHorizonRunsFirst) {
  sim::Engine eng(2);
  bool fired = false;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      r.engine().post(us(5), [&] { fired = true; });
      r.yield_until(us(10));
    } else {
      r.yield_until(us(5));  // resume horizon == event time
      EXPECT_TRUE(fired);
      EXPECT_EQ(r.now(), us(5));
    }
  });
  EXPECT_TRUE(fired);
}

// post() from inside a handler at the handler's own timestamp: the child
// executes within the same drain, after the parent, before any later event.
TEST(EngineEdge, PostFromHandlerAtSameTimestamp) {
  sim::Engine eng(1);
  std::vector<int> order;
  eng.run([&](sim::RankCtx& r) {
    r.engine().post(us(2), [&] { order.push_back(99); });
    r.engine().post(us(1), [&, t = us(1)] {
      order.push_back(1);
      r.engine().post(t, [&, t] {
        order.push_back(2);
        r.engine().post(t, [&] { order.push_back(3); });  // nested again
      });
    });
    r.yield_until(us(3));
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 99}));
}

// post_batch schedules at one timestamp in argument order, interleaving
// correctly with singly-posted events at the same time.
TEST(EngineEdge, PostBatchKeepsArgumentOrder) {
  sim::Engine eng(1);
  std::vector<int> order;
  eng.run([&](sim::RankCtx& r) {
    r.engine().post(us(1), [&] { order.push_back(0); });
    r.engine().post_batch(
        us(1), [&] { order.push_back(1); }, [&] { order.push_back(2); },
        [&] { order.push_back(3); });
    r.engine().post(us(1), [&] { order.push_back(4); });
    r.engine().post_batch(us(1), [&] { order.push_back(5); });
    r.yield_until(us(2));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(eng.events_posted(), 6u);
  EXPECT_EQ(eng.events_executed(), 6u);
}

// A waiter woken inside a handler that immediately re-waits must not be
// lost when the trigger is notified again (the notify scratch-buffer swap
// must leave the waiter list usable during the wake sweep).
TEST(EngineEdge, RewaitingWokenRankIsNotLost) {
  sim::Engine eng(2);
  sim::Trigger trg;
  int phase = 0;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      r.engine().post(us(1), [&] {
        phase = 1;
        trg.notify(r.engine(), us(1));
      });
      r.engine().post(us(2), [&] {
        phase = 2;
        trg.notify(r.engine(), us(2));
      });
      r.yield_until(us(3));
    } else {
      // Woken at phase 1, predicate still unmet -> re-waits on the same
      // trigger; the second notify must find it.
      while (phase != 2) r.wait(trg, "re-wait");
      EXPECT_EQ(phase, 2);
      EXPECT_GE(r.now(), us(2));
    }
  });
  EXPECT_EQ(phase, 2);
}

// Steady-state notify with churning waiters must not leak wakeups across
// notify calls (scratch reuse).
TEST(EngineEdge, RepeatedNotifyWakesEachRegistrationOnce) {
  sim::Engine eng(4);
  sim::Trigger trg;
  int round = 0;
  constexpr int kRounds = 64;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      for (int i = 1; i <= kRounds; ++i)
        r.engine().post(us(i), [&, i, t = us(i)] {
          round = i;
          trg.notify(r.engine(), t);
        });
      r.yield_until(us(kRounds + 1));
    } else {
      int last_seen = 0;
      while (round < kRounds) {
        r.wait(trg, "round-wait");
        EXPECT_GT(round, last_seen);  // every wake observes fresh progress
        last_seen = round;
      }
    }
  });
  EXPECT_EQ(round, kRounds);
}

// ---------------------------------------------------------------------------
// Deadlock dump (death test): a rank blocked on a never-notified trigger
// with no pending events must abort with the diagnostic state dump.
// ---------------------------------------------------------------------------

TEST(EngineDeath, DeadlockDumpsRankStatesAndAborts) {
  EXPECT_DEATH(
      {
        sim::Engine eng(2);
        sim::Trigger trg;
        eng.run([&](sim::RankCtx& r) {
          if (r.id() == 0) r.wait(trg, "never-notified");
        });
      },
      "simulation deadlock");
}

// ---------------------------------------------------------------------------
// Barrier burst (ctest label `slow`): 4096 ranks enter three dissemination
// barriers from a common start, so every round posts thousands of deliveries
// at a handful of nearby instants. A sorted bottom that absorbs such a burst
// by linear insertion moves thousands of keys per post; the ladder keeps it
// short. The bound is a count of keys moved, so it does not depend on the
// host.
// ---------------------------------------------------------------------------

TEST(EngineQueueSlow, BarrierBurstBottomInsertsStayShort) {
  World world(4096);
  world.run([](Rank& self) {
    for (int i = 0; i < 3; ++i) self.barrier();
  });
  const sim::Engine& eng = world.engine();
  const sim::Log2Hist& scan = eng.bottom_insert_scan_hist();
  EXPECT_GT(eng.events_posted(), 0u);
  EXPECT_LE(scan.sum, 64 * eng.events_posted())
      << scan.count << " bottom inserts moved " << scan.sum << " keys for "
      << eng.events_posted() << " posts";
}

}  // namespace
