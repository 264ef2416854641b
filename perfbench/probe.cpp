// The speed probe: a fixed piece of host work, sharing no code with the
// simulator, that a profiling timer runs on the simulator's own thread every
// kIntervalUs of CPU time while a workload runs.
//
// Why: on a shared host the machine itself changes speed, by up to 2x over
// seconds to minutes, as other guests load the same cores, caches and
// memory. The guest cannot see that as waiting, so it shows in CPU time as
// much as in wall time. The probe samples the speed the simulator gets at
// the moment it gets it: same thread, same core, spread evenly over the
// run. Dividing host times by the probe's mean slowdown keeps what the
// simulator's own code costs and drops most of what the machine did.
//
// Each sample mixes the two kinds of work the simulator's host time goes to:
//  * dependent loads and stores at random places in a buffer far larger
//    than L2 (per-rank state across thousands of ranks);
//  * a hold loop on a small binary heap (the event queue).
// The handler only computes on memory mapped at start and reads a clock, so
// it is async-signal-safe; it runs on its own signal stack, not on a rank's
// fiber stack.
#include <sys/mman.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <functional>

#include "harness.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kChaseWords = std::size_t{1} << 22;  // 32 MiB
constexpr std::size_t kChaseSteps = 512;
constexpr std::size_t kHeapSlots = std::size_t{1} << 12;   // 32 KiB
constexpr std::size_t kHoldSteps = 2048;
constexpr std::size_t kAltStackBytes = 64 * 1024;
constexpr long kIntervalUs = 25000;
// The reference speed: a sample's random-access part takes 250 us and its
// heap part 50 us, round figures near what both took on a shared 4-vCPU
// x86-64 VM (Xeon, 2.0 GHz). Across 96 repetitions of the four workloads on
// that VM, while its speed changed by up to 1.9x, run CPU time followed the
// heap part most closely (log-log correlation 0.90-0.98); giving the
// random-access part a tenth of the weight steadied cholesky-variants and
// stencil-scale a little more.
constexpr double kRefChaseNs = 250000, kRefHoldNs = 50000;
constexpr double kChaseWeight = 0.1;

struct State {
  std::uint64_t* chase = nullptr;
  std::uint64_t* heap = nullptr;
  std::uint64_t idx = 0, key = 1;
  // Written only by the handler, read after the timer is stopped.
  std::uint64_t samples = 0, chase_ns = 0, hold_ns = 0;
};
State g;

std::uint64_t lcg(std::uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void on_sigprof(int) {
  const int saved_errno = errno;
  const std::uint64_t t0 = thread_cpu_ns();
  // Each address depends on the value loaded before it, so every step
  // pays the memory latency.
  std::uint64_t idx = g.idx;
  for (std::size_t i = 0; i < kChaseSteps; ++i) {
    const std::uint64_t v = g.chase[idx];
    g.chase[idx] = v + i;
    idx = (lcg(idx) + v) & (kChaseWords - 1);
  }
  g.idx = idx;
  const std::uint64_t t1 = thread_cpu_ns();
  // Hold model: pop the earliest key, push it back a random delay later.
  std::uint64_t* const heap = g.heap;
  for (std::size_t i = 0; i < kHoldSteps; ++i) {
    std::pop_heap(heap, heap + kHeapSlots, std::greater<>());
    g.key = lcg(g.key);
    heap[kHeapSlots - 1] += (g.key >> 44) + 1;
    std::push_heap(heap, heap + kHeapSlots, std::greater<>());
  }
  const std::uint64_t t2 = thread_cpu_ns();
  g.chase_ns += t1 - t0;
  g.hold_ns += t2 - t1;
  ++g.samples;
  errno = saved_errno;
}

void set_timer(long us) {
  itimerval it{};
  it.it_interval.tv_usec = us;
  it.it_value.tv_usec = us;
  setitimer(ITIMER_PROF, &it, nullptr);
}

}  // namespace

bool probe_start() {
  const std::size_t bytes =
      (kChaseWords + kHeapSlots) * sizeof(std::uint64_t) + kAltStackBytes;
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return false;
  std::memset(mem, 0, bytes);  // resident from here on: a constant RSS
  g.chase = static_cast<std::uint64_t*>(mem);
  g.heap = g.chase + kChaseWords;
  for (std::size_t i = 0; i < kHeapSlots; ++i)
    g.heap[i] = g.key = lcg(g.key) >> 20;
  std::make_heap(g.heap, g.heap + kHeapSlots, std::greater<>());

  stack_t ss{};
  ss.ss_sp = g.heap + kHeapSlots;
  ss.ss_size = kAltStackBytes;
  if (sigaltstack(&ss, nullptr) != 0) return false;
  struct sigaction sa{};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return false;
  set_timer(kIntervalUs);
  return true;
}

ProbeReading probe_stop() {
  set_timer(0);
  ProbeReading p;
  p.samples = g.samples;
  p.chase_ns = g.chase_ns;
  p.hold_ns = g.hold_ns;
  return p;
}

double probe_slowdown(const ProbeReading& p) {
  if (p.samples == 0) return 1.0;
  const double n = static_cast<double>(p.samples);
  return kChaseWeight * (static_cast<double>(p.chase_ns) / n / kRefChaseNs) +
         (1 - kChaseWeight) * (static_cast<double>(p.hold_ns) / n / kRefHoldNs);
}

std::uint64_t probe_resident_kib() {
  return ((kChaseWords + kHeapSlots) * sizeof(std::uint64_t) +
          kAltStackBytes) / 1024;
}

}  // namespace perfbench
