// Engine configuration knobs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace narma::sim {

struct SimParams {
  /// Number of calendar buckets in the event queue (any value >= 1). Each
  /// bucket covers one slice of the current calendar window; events are
  /// sorted only when their bucket becomes current. Finer ladder rungs
  /// below the calendar have a fixed geometry (CalendarQueue::kRungBuckets).
  /// The geometry changes performance only, never event order
  /// (tests/test_sim_engine_props.cpp).
  std::uint32_t calendar_buckets = 256;

  /// Per-rank fiber stack size in bytes (rounded up to whole pages, minimum
  /// Fiber::kMinStackBytes). The stack is reserved, not committed: RSS grows only with the pages a rank
  /// actually touches, so a generous default costs nothing at 4096 ranks. A
  /// guard page below the stack turns overflow into a deterministic fault.
  std::size_t stack_bytes = 256 * 1024;
};

}  // namespace narma::sim
