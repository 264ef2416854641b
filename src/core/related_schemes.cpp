#include "core/related_schemes.hpp"

namespace narma::related {

namespace {
/// Cost of inspecting one notification slot during a range scan.
constexpr Time kSlotScanCost = ns(4);
}  // namespace

// ----------------------------------------------------- OverwritingNotifier --

OverwritingNotifier::OverwritingNotifier(Rank& self, std::uint32_t num_slots)
    : self_(self),
      slots_win_(self.win_allocate(num_slots * sizeof(std::int64_t),
                                   sizeof(std::int64_t))) {}

void OverwritingNotifier::notify_put(rma::Window& data_win, const void* src,
                                     std::size_t bytes, int target,
                                     std::uint64_t target_disp,
                                     std::uint32_t slot, std::int64_t value) {
  NARMA_CHECK(value != 0) << "overwriting notification value must be nonzero";
  if (bytes > 0) data_win.put(src, bytes, target, target_disp);
  // The slot write is a plain 8-byte put on the same channel: FIFO delivery
  // puts it behind the data, GASPI's per-queue ordering guarantee.
  // The value is staged per call; the deque keeps addresses stable while
  // the put is in flight.
  staged_.push_back(value);
  slots_win_->put(&staged_.back(), sizeof(std::int64_t), target, slot);
}

OverwritingNotifier::Hit OverwritingNotifier::wait_any_slot(
    std::uint32_t first, std::uint32_t count) {
  auto slots = slots_win_->local<std::int64_t>();
  NARMA_CHECK(first + count <= slots.size());
  Hit hit;
  self_.router().wait_progress(
      [&] {
        for (std::uint32_t i = 0; i < count; ++i) {
          self_.ctx().advance(kSlotScanCost);
          ++slots_scanned_;
          if (slots[first + i] != 0) {
            hit.slot = first + i;
            hit.value = slots[first + i];
            slots[first + i] = 0;  // consume (gaspi_notify_reset)
            return true;
          }
        }
        return false;
      },
      "overwriting-wait");
  return hit;
}

// ------------------------------------------------------- CountingNotifier --

CountingNotifier::CountingNotifier(Rank& self, std::uint32_t num_counters)
    : self_(self), counters_(num_counters) {
  // Exchange instance addresses so origins can name remote counters.
  peers_ = mp::allgather(self.mp(), reinterpret_cast<std::uintptr_t>(this));
}

void CountingNotifier::signaling_put(rma::Window& data_win, const void* src,
                                     std::size_t bytes, int target,
                                     std::uint64_t target_disp,
                                     std::uint32_t counter) {
  auto* peer = reinterpret_cast<CountingNotifier*>(
      peers_[static_cast<std::size_t>(target)]);
  NARMA_CHECK(counter < peer->counters_.size());
  net::NotifyAttr attr;
  attr.remote_delivered = &peer->counters_[counter];
  ++peer->counters_[counter].issued;  // accounted at the target side
  // Balance the issue counter: remote_delivered only bumps `completed`;
  // count() reads completed directly, so issued is informational here.
  self_.nic().put(target, data_win.remote_key(target),
                  data_win.byte_offset(target_disp), src, bytes, attr,
                  &data_win.pending(target));
}

std::int64_t CountingNotifier::count(std::uint32_t counter) const {
  return static_cast<std::int64_t>(counters_[counter].completed);
}

void CountingNotifier::wait_count(std::uint32_t counter, std::int64_t n) {
  NARMA_CHECK(counter < counters_.size());
  self_.router().wait_progress(
      [&] { return count(counter) >= n; }, "counting-wait");
}

}  // namespace narma::related
