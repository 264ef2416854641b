// The three batch workloads: closed jobs that run to completion and are
// judged by host time, memory, verification and simulated makespan.
//
//  * stencil-scale     — the NotifiedAccess pipelined stencil weak-scaled to
//                        about 8192 ranks (the scale arc: sim, net transfer
//                        plumbing, per-rank memory, obs cells).
//  * cholesky-variants — Fig. 5 tiled Cholesky under MsgPassing, OneSided
//                        and NotifiedAccess, each in its own World (the only
//                        workload where mp and rma carry the traffic).
//  * stencil-recover   — the NotifiedAccess stencil with fail-stop recovery
//                        (the only workload where ft does work).
//
// Besides the Cholesky matrix and the recovery fault seed, the seed draws
// each job's modelled compute rate from a narrow band around its nominal
// value (stencil per-point charge, Cholesky kernel GFlop/s), so the
// virtual-time results depend on the seed and a claim is checked on several
// machine instances rather than tuned to one. Rank counts stay fixed: they
// set the host work and memory, which must not move with the seed.
//
// setup_s here is World construction alone. The apps allocate their
// windows inside run_stencil / run_cholesky, so that allocation is part of
// the timed run (run_s); the benchmark cannot separate it without
// tracing inside src/.
#include <optional>

#include "apps/cholesky.hpp"
#include "apps/stencil.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace narma;

/// A World plus the host-side measurements of its construction.
struct TimedWorld {
  std::optional<World> world;
  std::uint64_t setup_ns = 0;        // CPU time of construction
  std::uint64_t rss_after_kib = 0;   // RSS right after construction
  std::uint64_t rss_growth_kib = 0;  // RSS added by construction

  TimedWorld(int nranks, const WorldParams& wp, bool traced) {
    const std::uint64_t rss0 = vm_rss_kib();
    const std::uint64_t t0 = cpu_ns();
    world.emplace(nranks, wp);
    setup_ns = cpu_ns() - t0;
    rss_after_kib = vm_rss_kib();
    rss_growth_kib = rss_after_kib > rss0 ? rss_after_kib - rss0 : 0;
    if (traced) world->enable_profiling();
  }
};

/// Runs `body` on every rank of `tw`, adding its host time to the result
/// and, when traced, one blocking span per rank around the app call.
template <class Body>
void timed_run(Result& r, TimedWorld& tw, const char* app, Body&& body) {
  const std::int32_t run_span =
      r.spans.open("world_run", "sim", -1, -1, 0, 0, true);
  const std::uint64_t t0 = host_ns();
  const std::uint64_t c0 = cpu_ns();
  tw.world->run([&](Rank& self) {
    const std::int32_t s =
        r.spans.open(app, "apps", self.id(), run_span, 0, self.now(), true);
    body(self);
    r.spans.close(s, self.now());
  });
  r.run_cpu_ns += cpu_ns() - c0;
  r.run_host_ns += host_ns() - t0;
  r.spans.close(run_span, 0);
  // RSS, not the high-water mark: VmHWM never falls, so after the first
  // World it would report that World's peak, not this one's growth.
  const std::uint64_t rss = vm_rss_kib();
  r.layers.world_rss_kib += tw.rss_growth_kib;
  r.layers.run_rss_kib += rss > tw.rss_after_kib ? rss - tw.rss_after_kib : 0;
  r.layers.add_world(*tw.world);
}

/// The seed's compute-rate factor: 1 + 0.5% * k for k drawn from [-2, 2].
double rate_factor(std::uint64_t seed, std::uint64_t salt) {
  const auto k = static_cast<int>(mix64(seed ^ salt) % 5) - 2;
  return 1.0 + 0.005 * k;
}

apps::StencilConfig stencil_shape(int nranks, int iters, double factor) {
  apps::StencilConfig cfg;
  cfg.rows = 64;
  cfg.total_cols = 2 * nranks;  // weak scaling: two columns per rank
  cfg.iters = iters;
  cfg.variant = apps::StencilVariant::kNotified;
  // Charged, not measured, so virtual time is deterministic.
  cfg.per_point = ns(2.0 * factor);
  return cfg;
}

}  // namespace

// ----------------------------------------------------------- stencil-scale --

void run_stencil_scale(Result& r, Plan plan) {
  const int nranks = 8192;
  const apps::StencilConfig cfg =
      stencil_shape(nranks, 4, rate_factor(r.seed, 0x5ca1e));
  r.extra["ranks"] = nranks;
  r.extra["per_point_ns"] = to_ns(cfg.per_point);
  plan(2);

  TimedWorld tw(nranks, WorldParams{}, r.traced);
  r.setup_cpu_s = static_cast<double>(tw.setup_ns) / 1e9;
  apps::StencilResult res;
  timed_run(r, tw, "run_stencil", [&](Rank& self) {
    apps::StencilResult out = apps::run_stencil(self, cfg);
    if (self.id() == 0) res = out;
  });
  r.peak_rss_kib = vm_hwm_kib();
  check(r, res.verified && res.corner == res.expected_corner,
        "stencil corner " + std::to_string(res.corner) + " != expected " +
            std::to_string(res.expected_corner));
  check_ft_idle(r);
  r.virt["virt_ms"] = to_ms(res.elapsed);
  r.digest.add(res.elapsed);
  r.digest.add(tw.world->engine().events_executed());
}

// ------------------------------------------------------- cholesky-variants --

void run_cholesky_variants(Result& r, Plan plan) {
  const int nranks = 32;
  apps::CholeskyConfig cfg;
  cfg.nt = 32;
  cfg.b = 32;
  cfg.seed = mix64(r.seed ^ 0x3a7);
  // Around the paper testbed's kernel rate, 10 GFlop/s, as in Fig. 5.
  cfg.model_gflops = 10.0 * rate_factor(r.seed, 0xc401);
  cfg.verify = true;
  r.extra["ranks"] = nranks;
  r.extra["model_gflops"] = cfg.model_gflops;
  plan(4);

  struct Variant {
    apps::CholeskyVariant v;
    const char* metric;
  };
  const Variant variants[] = {
      {apps::CholeskyVariant::kMessagePassing, "virt_ms.mp"},
      {apps::CholeskyVariant::kOneSided, "virt_ms.os"},
      {apps::CholeskyVariant::kNotified, "virt_ms.na"}};
  double total_ms = 0;
  for (const Variant& var : variants) {
    cfg.variant = var.v;
    TimedWorld tw(nranks, WorldParams{}, r.traced);
    r.setup_cpu_s += static_cast<double>(tw.setup_ns) / 1e9;
    apps::CholeskyResult res;
    timed_run(r, tw, "run_cholesky", [&](Rank& self) {
      apps::CholeskyResult out = apps::run_cholesky(self, cfg);
      if (self.id() == 0) res = out;
    });
    check(r, res.verified,
          std::string(apps::to_string(var.v)) + " residual " +
              std::to_string(res.residual));
    r.virt[var.metric] = to_ms(res.elapsed);
    total_ms += to_ms(res.elapsed);
    r.digest.add(res.elapsed);
    r.digest.add(tw.world->engine().events_executed());
  }
  r.peak_rss_kib = vm_hwm_kib();
  check_ft_idle(r);
  r.virt["virt_ms"] = total_ms;
}

// --------------------------------------------------------- stencil-recover --

namespace {

constexpr int kFtIters = 8;
constexpr std::uint64_t kFailEpoch = 6;
constexpr double kFailRate = 0.02;

/// First fault seed at or after `start` under which the runtime victim scan
/// (the lowest rank whose fail draw fires at kFailEpoch) picks `victim` —
/// the pinning bench/scale_sweep.cpp uses. fail_draw is a pure hash, so
/// this predicts the simulated plan exactly.
std::uint64_t pin_fail_seed(int nranks, int victim, std::uint64_t start) {
  for (std::uint64_t seed = start;; ++seed) {
    net::FaultParams fp;
    fp.seed = seed;
    fp.fail_rate = kFailRate;
    const net::FaultInjector inj(fp, nranks);
    if (!inj.fail_draw(victim, kFailEpoch)) continue;
    bool earlier = false;
    for (int rk = 0; rk < victim && !earlier; ++rk)
      earlier = inj.fail_draw(rk, kFailEpoch);
    if (!earlier) return seed;
  }
}

}  // namespace

void run_stencil_recover(Result& r, Plan plan) {
  const int nranks = 1024;
  const int victim = nranks / 2;
  const double factor = rate_factor(r.seed, 0x4ec0);
  apps::StencilConfig cfg = stencil_shape(nranks, kFtIters, factor);
  cfg.ft.enabled = true;
  cfg.ft.ckpt_interval = 2;
  cfg.ft.min_fail_epoch = kFailEpoch;
  WorldParams wp;
  wp.fabric.faults.fail_rate = kFailRate;
  wp.fabric.faults.seed =
      pin_fail_seed(nranks, victim, 1 + mix64(r.seed ^ 0xfa11) % 1000000);
  r.extra["ranks"] = nranks;
  r.extra["victim"] = victim;
  r.extra["per_point_ns"] = to_ns(cfg.per_point);
  plan(4);

  TimedWorld tw(nranks, wp, r.traced);
  r.setup_cpu_s = static_cast<double>(tw.setup_ns) / 1e9;
  apps::StencilResult res;
  ft::FtStats victim_stats;
  int victims = 0;
  timed_run(r, tw, "run_stencil_ft", [&](Rank& self) {
    apps::StencilResult out = apps::run_stencil(self, cfg);
    if (self.id() == 0) res = out;
    if (out.ft.fails > 0) {
      ++victims;
      victim_stats = out.ft;
      victim_stats.victim = self.id();
    }
  });
  r.peak_rss_kib = vm_hwm_kib();
  tw.world.reset();

  check(r, res.verified, "recovered stencil failed verification");
  check(r, victims == 1 && victim_stats.victim == victim,
        "expected exactly one victim (rank " + std::to_string(victim) +
            "), saw " + std::to_string(victims));
  check(r, victim_stats.recovery_time > 0, "victim never rejoined");

  // Reference: the same stencil without ft must end in the same state.
  // Untimed — it is a check, not part of the workload.
  apps::StencilResult ref;
  {
    World plain(nranks);
    const apps::StencilConfig ref_cfg = stencil_shape(nranks, kFtIters, factor);
    plain.run([&](Rank& self) {
      apps::StencilResult out = apps::run_stencil(self, ref_cfg);
      if (self.id() == 0) ref = out;
    });
  }
  check(r, ref.verified && res.corner == ref.corner,
        "recovered corner " + std::to_string(res.corner) +
            " != fault-free corner " + std::to_string(ref.corner));

  r.virt["virt_ms"] = to_ms(res.elapsed);
  r.virt["recovery_us"] = to_us(victim_stats.recovery_time);
  r.digest.add(res.elapsed);
  r.digest.add(victim_stats.recovery_time);
  r.digest.add(victim_stats.restored_epoch);
  r.digest.add(victim_stats.replay_applied);
}

}  // namespace perfbench
