// Deterministic fault injection and sender-side flow control (DESIGN.md §10).
//
// Two cooperating pieces sit below the NIC's transfer and delivery paths:
//
//  * FaultInjector — a seeded, counter-based fault plan. Every draw is a
//    pure hash of (seed, rank, per-rank sequence number, fault kind): no
//    shared RNG stream, no dependence on wall clock or allocation order, so
//    one seed names exactly one fault schedule and two runs with the same
//    seed produce bit-identical virtual times, retry counts, and traces.
//    Supported faults: per-transfer drop (retransmitted by the source),
//    delivery delay jitter, transient NIC stalls (the source channel is held
//    busy), and forced-overflow pressure at the delivery queues.
//
//  * FlowControl — per-(destination, queue) credits sized to the actual
//    (power-of-two-rounded) queue capacities. Under
//    OverflowPolicy::kBackpressure a sender acquires a credit before any
//    operation that will occupy a delivery queue slot and blocks (bounded
//    retry with exponential backoff, via RankCtx::wait_deadline) when the
//    destination has none free; consumers release credits as they drain.
//    Because every queue slot is credit-backed, a delivery can only find a
//    full queue through injected pressure — genuine overflow becomes
//    impossible instead of fatal. Under kFatal (default) both pieces are
//    inert and the uGNI-style abort semantics are preserved exactly.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "net/params.hpp"
#include "sim/engine.hpp"

namespace narma::net {

class FaultInjector {
 public:
  /// Faults drawn for one transfer at its source NIC.
  struct TransferFaults {
    bool drop = false;
    Time extra_delay = 0;  // delivery jitter, 0 = none
    Time stall = 0;        // channel held busy this long first, 0 = none
  };

  FaultInjector(const FaultParams& params, int nranks);

  /// True when any fault rate is nonzero; when false the injector is never
  /// consulted (zero overhead, zero draws — the bit-identity guarantee).
  bool enabled() const { return enabled_; }

  const FaultParams& params() const { return params_; }

  /// Draws the fault plan entry for the next transfer injected by `src`.
  /// Requires enabled().
  TransferFaults next_transfer(int src);

  /// Draws whether the next first-attempt delivery into one of `rank`'s
  /// queues is forced to report "full" (overflow pressure). Consulted only
  /// under the backpressure policy. Requires enabled().
  bool next_pressure(int rank);

  /// Whole-rank fail-stop draw: true when `rank` is scheduled to fail at
  /// the end of `epoch`. Pure function of (seed, rank, epoch) — stateless,
  /// unlike the per-transfer draws — so every rank can evaluate every other
  /// rank's plan without communication. That models a perfect failure
  /// detector: all survivors agree on who died and when, for free. The ft
  /// layer consults this at epoch boundaries; the transfer machinery never
  /// does, so a nonzero fail_rate alone leaves per-message timing untouched.
  bool fail_draw(int rank, std::uint64_t epoch) const;

  /// The lowest rank whose fail_draw fires at `epoch`, or -1: the ft
  /// layer's victim. Every rank asks once per epoch boundary, so the scan
  /// runs once per epoch (at most nranks draws) and later calls for the
  /// same epoch return the memoised victim.
  int first_failing(std::uint64_t epoch);

  /// fail_draw evaluations made by first_failing() so far.
  std::uint64_t victim_draws() const { return victim_draws_; }

 private:
  /// Uniform double in [0, 1) from the counter-based hash.
  double uniform(std::uint64_t rank, std::uint64_t seq,
                 std::uint64_t salt) const;

  FaultParams params_;
  bool enabled_;
  int nranks_;
  std::uint64_t victim_epoch_ = 0;  // epoch victim_ was computed for ...
  bool victim_valid_ = false;       // ... once the first scan ran
  int victim_ = -1;
  std::uint64_t victim_draws_ = 0;
  std::vector<std::uint64_t> transfer_seq_;  // per source rank; if enabled_
  std::vector<std::uint64_t> pressure_seq_;  // per destination rank; ditto
};

class FlowControl {
 public:
  /// The three credit-backed delivery queues of a Nic.
  enum class Queue : int { kDestCq = 0, kShmRing = 1, kMailbox = 2 };
  static constexpr int kNumQueues = 3;

  /// `caps` are the *rounded* per-rank queue capacities (what
  /// RingBuffer::capacity() reports), indexed by Queue.
  FlowControl(const FaultParams& params, int nranks,
              std::array<std::size_t, kNumQueues> caps);

  /// True under OverflowPolicy::kBackpressure; when false every method is a
  /// no-op and the legacy fatal-overflow path is in effect.
  bool active() const { return active_; }

  /// Takes one credit for queue `q` at `dst`; false when none are free.
  bool try_acquire(int dst, Queue q);

  /// Returns `n` credits and wakes senders blocked on (`dst`, `q`) at `t`.
  void release(int dst, Queue q, std::size_t n, sim::Engine& eng, Time t);

  /// Senders block on this (one per destination rank *and queue*) between
  /// acquisition attempts; only a credit release for that same queue
  /// notifies it. A single per-destination trigger used to wake senders
  /// blocked on any of the three queues whenever one of them drained,
  /// burning bounded-retry attempts on credits that were never freed.
  sim::Trigger& trigger(int dst, Queue q) {
    return triggers_[static_cast<std::size_t>(dst)]
                    [static_cast<std::size_t>(q)];
  }

  std::size_t in_flight(int dst, Queue q) const {
    return in_flight_[static_cast<std::size_t>(dst)]
                     [static_cast<std::size_t>(q)];
  }
  std::size_t capacity(Queue q) const {
    return caps_[static_cast<std::size_t>(q)];
  }

 private:
  bool active_;
  std::array<std::size_t, kNumQueues> caps_;
  std::vector<std::array<std::size_t, kNumQueues>> in_flight_;   // per dst
  std::vector<std::array<sim::Trigger, kNumQueues>> triggers_;   // per dst
};

}  // namespace narma::net
