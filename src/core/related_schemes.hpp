// The two prior notification schemes the paper positions Notified Access
// against (Sec. VII, Related Work):
//
//  * counting identifiers (Split-C signaling stores, LAPI counters, BG/Q
//    hardware completion counters): the target accumulates a count of
//    arrived accesses. Scalable and cheap — a counter read — but carries no
//    identity: the consumer learns *how many* arrived, never *which*.
//
//  * overwriting identifiers (GASPI/GPI-2 notifications, full/empty bits):
//    the origin writes a value into a notification slot at the target. The
//    value carries identity, but each expected notification needs its own
//    slot (storage at the destination) and the consumer must scan the slot
//    range; arrival order is lost.
//
// Notified Access's matching queue combines both: values (tags) in arrival
// order with constant destination storage. The ablation_related_schemes
// benchmark quantifies the difference on the paper's dataflow pattern.
//
// Both helpers are built on public NARMA primitives only (windows, puts,
// the remote-delivery counter) — they are reference implementations, not
// alternative engines.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/world.hpp"

namespace narma::related {

/// GASPI-style overwriting notifications: a window of 8-byte notification
/// slots per rank. notify_put() delivers data plus a nonzero value into a
/// slot (ordered behind the data, as GASPI guarantees per queue);
/// wait_any_slot() scans a slot range and consumes the first hit.
class OverwritingNotifier {
 public:
  /// Collective. `num_slots` notification slots per rank.
  OverwritingNotifier(Rank& self, std::uint32_t num_slots);

  /// Data put followed by the slot write (value must be nonzero). The slot
  /// write travels on the same channel, so it becomes visible after the
  /// data is committed.
  void notify_put(rma::Window& data_win, const void* src, std::size_t bytes,
                  int target, std::uint64_t target_disp, std::uint32_t slot,
                  std::int64_t value);

  struct Hit {
    std::uint32_t slot = 0;
    std::int64_t value = 0;
  };

  /// Blocks until some slot in [first, first+count) holds a nonzero value;
  /// consumes (resets) it. The scan cost is charged per slot inspected —
  /// the price of the slot-range interface.
  Hit wait_any_slot(std::uint32_t first, std::uint32_t count);

  /// Local completion of outstanding notify_puts to `target`.
  void flush(int target) { slots_win_->flush(target); }

  std::uint64_t slots_scanned() const { return slots_scanned_; }

 private:
  Rank& self_;
  std::unique_ptr<rma::Window> slots_win_;
  std::deque<std::int64_t> staged_;  // address-stable in-flight slot values
  std::uint64_t slots_scanned_ = 0;
};

/// Split-C/LAPI-style counting notifications, modeled as hardware delivery
/// counters (paper Sec. VIII: "some networks, e.g., Blue Gene/Q support
/// completion counters"): a signaling put increments a per-counter arrival
/// count at the target in the same network transaction as the data.
class CountingNotifier {
 public:
  /// Collective. `num_counters` independent counters per rank.
  CountingNotifier(Rank& self, std::uint32_t num_counters);

  /// Data put whose delivery bumps `counter` at the target (single
  /// transaction — the hardware-counter model).
  void signaling_put(rma::Window& data_win, const void* src,
                     std::size_t bytes, int target,
                     std::uint64_t target_disp, std::uint32_t counter);

  /// Arrived-access count of a local counter.
  std::int64_t count(std::uint32_t counter) const;

  /// Blocks until the local counter reaches at least `n` (Split-C's
  /// store_sync / all_store_sync). Local completion of the signaling puts
  /// themselves is the data window's flush, as for any put.
  void wait_count(std::uint32_t counter, std::int64_t n);

 private:
  Rank& self_;
  // Per-rank counter state; remote ranks address it through the allgathered
  // instance pointers (simulator license — models NIC counter resources).
  std::vector<net::PendingOps> counters_;
  mp::Gathered<std::uintptr_t> peers_;  // per-rank CountingNotifier*
};

}  // namespace narma::related
