// Measurement plumbing shared by the perfbench workloads.
//
// Every number here is taken from outside the simulator: host clocks around
// calls into its public API, /proc/self/status, the World's host profiler
// (obs::Profiler phases) and the obs::Registry counters read after a run.
// Nothing in src/ is instrumented for the benchmark.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/world.hpp"

namespace perfbench {

using narma::Time;

/// Host nanoseconds (steady clock).
std::uint64_t host_ns();

/// CPU nanoseconds the calling thread has used, user plus system. The
/// simulator runs every rank on that one thread, so this is its host time
/// without the time it waited for a core. (The process clock would do too,
/// but while the probe's profiling timer is armed Linux reads it only to
/// the scheduler tick.)
std::uint64_t cpu_ns();

/// The speed probe (probe.cpp): fixed host work, independent of the
/// simulator, that a profiling timer runs on this thread at even intervals
/// of CPU time, to sample how fast the machine runs the simulator.
struct ProbeReading {
  std::uint64_t samples = 0;
  std::uint64_t chase_ns = 0;  // CPU ns of the random-access part
  std::uint64_t hold_ns = 0;   // CPU ns of the heap part
};
/// Maps the probe's memory and starts the timer; false on failure.
bool probe_start();
/// Stops the timer and returns what the probe measured.
ProbeReading probe_stop();
/// How many times slower than the reference speed the machine ran during
/// the probe's samples (1 when there were none). Host times divided by it
/// are seconds at the reference speed.
double probe_slowdown(const ProbeReading& p);
/// The probe's resident memory, mapped and touched by probe_start.
std::uint64_t probe_resident_kib();

/// VmHWM / VmRSS of this process in KiB (0 when /proc is unavailable).
std::uint64_t vm_hwm_kib();
std::uint64_t vm_rss_kib();

/// 64-bit FNV-1a over the virtual-time outputs of one workload run. Two
/// runs with the same seed must produce the same digest, traced or not.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One traced call, recorded by the benchmark around a public function of
/// one layer. Blocking calls (wait, barrier, flush_all, a whole collective
/// app) yield to other fibers, so their host duration is not self time;
/// their virtual duration is the modelled wait.
struct Span {
  const char* name;
  const char* layer;
  std::int32_t rank;
  std::int32_t parent;   // index of the enclosing span, -1 for none
  std::uint64_t req_id;  // request id (serve-incast), 0 elsewhere
  std::uint64_t host_start, host_end;  // host ns
  Time virt_start, virt_end;           // virtual ps
  bool blocking;
};

/// In-memory span store; written out once, when the run ends. Disabled
/// (every call a single branch) in untraced runs.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  void reserve(std::size_t n) {
    if (on_) spans_.reserve(n);
  }
  /// Opens a span and returns its index (-1 when disabled).
  std::int32_t open(const char* name, const char* layer, int rank,
                    std::int32_t parent, std::uint64_t req, Time virt_now,
                    bool blocking) {
    if (!on_) return -1;
    spans_.push_back(Span{name, layer, rank, parent, req, host_ns(), 0,
                          virt_now, 0, blocking});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t idx, Time virt_now) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.host_end = host_ns();
    s.virt_end = virt_now;
  }
  /// Tags a span with the request it turned out to serve.
  void set_req(std::int32_t idx, std::uint64_t req) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].req_id = req;
  }
  /// Writes one tab-separated line per span; false on I/O failure.
  bool write_tsv(const std::string& path) const;

  struct CallStats {
    std::uint64_t calls = 0;
    std::uint64_t host_ns = 0;
    Time virt = 0;
    bool blocking = false;
  };
  /// Per-name totals (calls, host ns, virtual ps).
  std::map<std::string, CallStats> by_name() const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Per-layer numbers accumulated over every World of one workload run
/// (cholesky-variants runs three). Counts and times add; high-water marks
/// take the maximum.
struct LayerAcc {
  std::uint64_t events = 0;
  std::uint64_t queue_hw = 0;
  Time virt_total = 0, virt_blocked = 0;  // summed over ranks
  std::uint64_t ranks = 0;                // summed over Worlds
  // Profiler phases, host ns.
  std::uint64_t ph_pop = 0, ph_callback = 0, ph_rank_exec = 0, ph_match = 0,
                ph_transfer = 0, ph_app = 0, ph_obs = 0, ph_unattr = 0,
                ph_total = 0;
  // Registry counters.
  std::uint64_t net_ops = 0, net_bytes = 0, net_credit_stalls = 0,
                net_retries = 0;
  static constexpr std::array<const char*, 6> lane_names = {
      "shm", "fma", "bte", "idc", "dma", "rdma"};
  std::array<std::uint64_t, 6> lane_ops{}, lane_bytes{};  // per lane
  narma::obs::HistData chan_queue;
  std::uint64_t na_tests = 0, na_matches = 0, na_uq_inserts = 0,
                na_hw_drained = 0;
  std::int64_t na_uq_depth_hw = 0;
  std::uint64_t rma_puts = 0, rma_atomics = 0, rma_flushes = 0;
  narma::obs::HistData flush_wait;
  std::uint64_t mp_eager = 0, mp_rdzv = 0, mp_recvs = 0;
  std::int64_t mp_unexpected_hw = 0;
  std::int64_t obs_registry_bytes = 0;
  std::uint64_t ft_ckpts = 0, ft_ckpt_bytes = 0, ft_replay_applied = 0,
                ft_replay_dupes = 0;
  // Memory: KiB of RSS grown by World construction and by the run (RSS
  // after the run − RSS after construction, World still alive), summed over
  // Worlds, divided by `ranks` when reported.
  std::uint64_t world_rss_kib = 0, run_rss_kib = 0;

  /// Adds one finished World (profiled when tracing).
  void add_world(narma::World& w);
};

/// What one workload run reports back to perfbench/run.py.
struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t checks = 0;  // output checks attempted
  std::uint64_t failed = 0;  // output checks failed
  std::vector<std::string> failures;  // one line per failed check
  Digest digest;
  std::uint64_t run_host_ns = 0;    // every World::run, wall clock
  std::uint64_t run_cpu_ns = 0;     // every World::run, CPU time
  ProbeReading probe;  // untraced runs only
  /// CPU time of World construction plus the workload's own set-up
  /// outside World::run (serve-incast: window allocation too). Measured in
  /// a fresh process, so memory is first-touched as in any real run.
  double setup_cpu_s = 0;
  std::uint64_t peak_rss_kib = 0;   // VmHWM right after the runs
  /// Virtual-time outputs by metric name (already in their units).
  std::map<std::string, double> virt;
  /// Benchmark-side measurements by name (request counts, lags, ratios).
  std::map<std::string, double> extra;
  LayerAcc layers;
  Spans spans{false};
};

/// The check helper: counts an attempted check, records a failure line.
void check(Result& r, bool ok, const std::string& what);

/// The ft layer must stay idle outside stencil-recover: its counters are
/// the bypass side of that workload.
void check_ft_idle(Result& r);

/// Formats a Result as the single JSON line run.py parses.
std::string to_json(const Result& r);

// Workload entry points (serve.cpp, batch.cpp). `plan` is called before
// any simulation with the number of output checks the run will attempt, so
// a crash can be charged with all of them.
using Plan = void (*)(std::uint64_t checks);
void run_stencil_scale(Result& r, Plan plan);
void run_cholesky_variants(Result& r, Plan plan);
void run_stencil_recover(Result& r, Plan plan);
void run_serve_incast(Result& r, Plan plan);

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// splitmix64: the benchmark's seeded input generator.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
