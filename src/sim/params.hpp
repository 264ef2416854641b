// Engine configuration knobs.
//
// Like na::NaParams::matcher, the event-queue selection exists so the
// original implementation stays available for ablation and for the
// legacy-vs-calendar equivalence property tests: both configurations must
// produce bit-identical virtual times, event order, and event counts.
#pragma once

#include <cstddef>
#include <cstdint>

namespace narma::sim {

/// Event-queue implementation selection.
///
///  * kCalendar (production): ladder queue of 24-byte (time, seq, slot)
///    keys over parked InlineFn closures — O(1) enqueue for same-time
///    bursts and the engine's mostly-monotonic posting pattern, a short
///    sorted bottom for everything else, true move-out pop, no per-event
///    heap allocation for inline-sized closures (see event_queue.hpp).
///  * kLegacyHeap: the original binary-heap std::priority_queue of
///    std::function events, kept for ablation (bench/micro_engine.cpp) and
///    the equivalence tests. Pays one allocation per posted closure beyond
///    the std::function small-buffer plus a closure copy on every pop
///    (priority_queue::top() is const).
enum class EventQueue : std::uint8_t { kLegacyHeap, kCalendar };

/// Rank execution-model selection.
///
///  * kFibers (production): every rank is a stackful user-space fiber
///    multiplexed on the engine thread (sim/fiber.hpp). A block/resume is
///    two in-process context switches (~tens of ns) and a rank's stack
///    costs only the pages it touches, so 4096+ ranks fit on one core
///    (bench/scale_sweep.cpp charts the trajectory).
///  * kThreads: the original one-OS-thread-per-rank model with two binary
///    semaphore handoffs per block/resume, kept for differential testing
///    (tests/test_sim_fibers.cpp proves bit-equivalence) and as the
///    fallback should a platform lack a fiber backend. Stack size is the
///    pthread default (~8 MB reserved per rank); impractical beyond a few
///    hundred ranks.
/// Both models uphold the same one-runnable-context invariant and use the
/// same (resume_time, id) ready heap, so virtual times are bit-identical.
enum class ExecModel : std::uint8_t { kThreads, kFibers };

struct SimParams {
  /// Event-queue implementation (ablation knob; both orders are proven
  /// equivalent by tests/test_sim_engine_props.cpp).
  EventQueue event_queue = EventQueue::kCalendar;

  /// Number of calendar buckets (kCalendar only; any value >= 1). Each
  /// bucket covers one slice of the current calendar window; events are
  /// sorted only when their bucket becomes current. Finer ladder rungs
  /// below the calendar have a fixed geometry (CalendarQueue::kRungBuckets).
  std::uint32_t calendar_buckets = 256;

  /// Rank execution model (NARMA_EXEC=threads|fibers overrides via World).
  ExecModel exec_model = ExecModel::kFibers;

  /// Per-rank fiber stack size in bytes (kFibers only; rounded up to whole
  /// pages, minimum Fiber::kMinStackBytes). The stack is reserved, not
  /// committed: RSS grows only with the pages a rank actually touches, so
  /// a generous default costs nothing at 4096 ranks. A guard page below
  /// the stack turns overflow into a deterministic fault.
  std::size_t stack_bytes = 256 * 1024;
};

}  // namespace narma::sim
