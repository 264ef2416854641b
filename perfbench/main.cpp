// narma_perfbench: runs one workload of the repository benchmark once, in
// this process, and prints one result line. perfbench/run.py starts a fresh
// process per repetition, so each peak-RSS figure belongs to one run.
//
//   narma_perfbench --workload <name> --seed <n> [--trace]
//                   [--spans <path>]
//
// Output (stdout): a line "PLAN <checks>" before any simulation, then a
// line "RESULT <json>" at the end. --trace turns on the host profiler and
// the benchmark's spans; the spans are written to --spans when given.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace perfbench {

std::uint64_t host_ns() { return narma::wallclock_ns(); }

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

std::uint64_t proc_status_kib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t kib = 0;
  const std::size_t n = std::strlen(key);
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, key, n) == 0 && line[n] == ':') {
      kib = std::strtoull(line + n + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

void json_str(std::ostringstream& o, const std::string& s) {
  o << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') o << '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o << ' ';
      continue;
    }
    o << c;
  }
  o << '"';
}

void json_num(std::ostringstream& o, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  o << buf;
}

void json_map(std::ostringstream& o, const std::map<std::string, double>& m) {
  o << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) o << ',';
    first = false;
    json_str(o, k);
    o << ':';
    json_num(o, v);
  }
  o << '}';
}

/// The per-layer metrics of a traced run, named as in BENCHMARK.json.
std::map<std::string, double> layer_metrics(const Result& r) {
  const LayerAcc& a = r.layers;
  const auto s = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e9; };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double ranks = static_cast<double>(a.ranks);
  std::map<std::string, double> m;
  m["sim.events"] = static_cast<double>(a.events);
  m["sim.host_ns_per_event"] =
      ratio(static_cast<double>(a.ph_total), static_cast<double>(a.events));
  m["sim.self_s"] = s(a.ph_pop + a.ph_callback);
  m["sim.rank_exec_s"] = s(a.ph_rank_exec);
  m["sim.event_queue_hw"] = static_cast<double>(a.queue_hw);
  m["sim.blocked_frac"] = ratio(static_cast<double>(a.virt_blocked),
                                static_cast<double>(a.virt_total));
  m["sim.run_rss_kib_per_rank"] =
      ratio(static_cast<double>(a.run_rss_kib), ranks);
  m["net.transfer_s"] = s(a.ph_transfer);
  m["net.ops"] = static_cast<double>(a.net_ops);
  m["net.bytes"] = static_cast<double>(a.net_bytes);
  m["net.chan_queue_us_p99"] =
      a.chan_queue.count ? a.chan_queue.quantile(0.99) / 1e3 : 0.0;
  m["net.credit_stalls"] = static_cast<double>(a.net_credit_stalls);
  m["net.retries"] = static_cast<double>(a.net_retries);
  m["core.match_s"] = s(a.ph_match);
  m["core.tests"] = static_cast<double>(a.na_tests);
  m["core.matches"] = static_cast<double>(a.na_matches);
  m["core.match_ratio"] = ratio(static_cast<double>(a.na_matches),
                                static_cast<double>(a.na_tests));
  m["core.uq_inserts"] = static_cast<double>(a.na_uq_inserts);
  m["core.uq_depth_hw"] = static_cast<double>(a.na_uq_depth_hw);
  m["core.hw_drained"] = static_cast<double>(a.na_hw_drained);
  m["core.test_ns"] = ratio(static_cast<double>(a.ph_match),
                            static_cast<double>(a.na_tests));
  m["core.world_rss_kib_per_rank"] =
      ratio(static_cast<double>(a.world_rss_kib), ranks);
  m["rma.puts"] = static_cast<double>(a.rma_puts);
  m["rma.atomics"] = static_cast<double>(a.rma_atomics);
  m["rma.flushes"] = static_cast<double>(a.rma_flushes);
  m["rma.flush_wait_us"] = static_cast<double>(a.flush_wait.sum) / 1e3;
  m["mp.sends_eager"] = static_cast<double>(a.mp_eager);
  m["mp.sends_rdzv"] = static_cast<double>(a.mp_rdzv);
  m["mp.recvs"] = static_cast<double>(a.mp_recvs);
  m["mp.unexpected_depth_hw"] = static_cast<double>(a.mp_unexpected_hw);
  m["obs.self_s"] = s(a.ph_obs);
  m["obs.registry_bytes"] = static_cast<double>(a.obs_registry_bytes);
  m["ft.ckpts"] = static_cast<double>(a.ft_ckpts);
  m["ft.ckpt_bytes"] = static_cast<double>(a.ft_ckpt_bytes);
  m["ft.replay_applied"] = static_cast<double>(a.ft_replay_applied);
  m["ft.replay_dupes"] = static_cast<double>(a.ft_replay_dupes);
  m["ft.dupe_ratio"] =
      ratio(static_cast<double>(a.ft_replay_dupes),
            static_cast<double>(a.ft_replay_applied + a.ft_replay_dupes));
  m["apps.compute_s"] = s(a.ph_app);
  m["bench.unattributed_frac"] = ratio(static_cast<double>(a.ph_unattr),
                                       static_cast<double>(a.ph_total));
  // Bench spans: mean host ns per non-blocking call the benchmark made.
  const auto spans = r.spans.by_name();
  const auto mean_ns = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.calls == 0
               ? 0.0
               : static_cast<double>(it->second.host_ns) /
                     static_cast<double>(it->second.calls);
  };
  // Generator requests (one span name per size class) and server replies.
  std::uint64_t put_calls = 0, put_ns = 0;
  for (const auto& [name, c] : spans)
    if (name.starts_with("put_notify")) {
      put_calls += c.calls;
      put_ns += c.host_ns;
    }
  m["core.put_notify_ns"] = ratio(static_cast<double>(put_ns),
                                  static_cast<double>(put_calls));
  m["core.test_span_ns"] = mean_ns("test");
  return m;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "narma_perfbench: %s\nusage: narma_perfbench --workload "
               "<stencil-scale|serve-incast|cholesky-variants|"
               "stencil-recover> --seed <n> [--trace] [--spans <path>]\n",
               why);
  std::exit(2);
}

void print_plan(std::uint64_t checks) {
  std::printf("PLAN %llu\n", static_cast<unsigned long long>(checks));
  std::fflush(stdout);
}

}  // namespace

std::uint64_t vm_hwm_kib() { return proc_status_kib("VmHWM"); }
std::uint64_t vm_rss_kib() { return proc_status_kib("VmRSS"); }

bool Spans::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "name\tlayer\trank\tparent\treq_id\thost_start_ns\t"
               "host_end_ns\tvirt_start_ps\tvirt_end_ps\tblocking\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%s\t%d\t%d\t%llu\t%llu\t%llu\t%llu\t%llu\t%d\n",
                 s.name, s.layer, s.rank, s.parent,
                 static_cast<unsigned long long>(s.req_id),
                 static_cast<unsigned long long>(s.host_start),
                 static_cast<unsigned long long>(s.host_end),
                 static_cast<unsigned long long>(s.virt_start),
                 static_cast<unsigned long long>(s.virt_end),
                 s.blocking ? 1 : 0);
  }
  return std::fclose(f) == 0;
}

std::map<std::string, Spans::CallStats> Spans::by_name() const {
  std::map<std::string, CallStats> m;
  for (const Span& s : spans_) {
    CallStats& c = m[s.name];
    ++c.calls;
    c.host_ns += s.host_end - s.host_start;
    c.virt += s.virt_end - s.virt_start;
    c.blocking = s.blocking;
  }
  return m;
}

void LayerAcc::add_world(narma::World& w) {
  using narma::obs::Phase;
  narma::sim::Engine& eng = w.engine();
  events += eng.events_executed();
  queue_hw = std::max<std::uint64_t>(queue_hw, eng.queue_high_water());
  ranks += static_cast<std::uint64_t>(eng.nranks());
  for (int r = 0; r < eng.nranks(); ++r) {
    virt_total += eng.rank(r).now();
    virt_blocked += eng.rank(r).blocked_time();
  }
  if (const narma::obs::Profiler* p = w.profiler()) {
    ph_pop += p->phase_ns(Phase::kEnginePop);
    ph_callback += p->phase_ns(Phase::kCallback);
    ph_rank_exec += p->phase_ns(Phase::kRankExec);
    ph_match += p->phase_ns(Phase::kMatch);
    ph_transfer += p->phase_ns(Phase::kTransfer);
    ph_app += p->phase_ns(Phase::kAppCompute);
    ph_obs += p->phase_ns(Phase::kObs);
    ph_unattr += p->unattributed_ns();
    ph_total += p->total_wall_ns();
  }
  const narma::obs::Registry* reg = w.metrics();
  if (!reg) return;
  const auto sum = [&](const char* name) {
    return reg->has(name) ? reg->aggregate_counter_sum(name) : 0;
  };
  const auto hw = [&](const char* name) -> std::int64_t {
    return reg->has(name) ? reg->aggregate_gauge_hw(name) : 0;
  };
  for (std::size_t i = 0; i < lane_names.size(); ++i) {
    const std::string lane = std::string("net.") + lane_names[i];
    const std::uint64_t ops = sum((lane + "_ops").c_str());
    const std::uint64_t bytes = sum((lane + "_bytes").c_str());
    lane_ops[i] += ops;
    lane_bytes[i] += bytes;
    net_ops += ops;
    net_bytes += bytes;
  }
  net_credit_stalls += sum("net.credit_stalls");
  net_retries += sum("net.retries");
  if (reg->has("net.chan_queue_ns"))
    chan_queue.merge(reg->aggregate_hist("net.chan_queue_ns"));
  na_tests += sum("na.tests");
  na_matches += sum("na.matches");
  na_uq_inserts += sum("na.uq_inserts");
  na_hw_drained += sum("na.hw_drained");
  na_uq_depth_hw = std::max(na_uq_depth_hw, hw("na.uq_depth"));
  rma_puts += sum("rma.puts");
  rma_atomics += sum("rma.atomics");
  rma_flushes += sum("rma.flushes");
  if (reg->has("rma.flush_wait_ns"))
    flush_wait.merge(reg->aggregate_hist("rma.flush_wait_ns"));
  mp_eager += sum("mp.sends_eager");
  mp_rdzv += sum("mp.sends_rdzv");
  mp_recvs += sum("mp.recvs");
  mp_unexpected_hw = std::max(mp_unexpected_hw, hw("mp.unexpected_depth"));
  if (reg->has("obs.registry_bytes"))
    obs_registry_bytes += reg->aggregate_gauge_last("obs.registry_bytes");
  ft_ckpts += sum("ft.ckpts");
  ft_ckpt_bytes += sum("ft.ckpt_bytes");
  ft_replay_applied += sum("ft.replay_applied");
  ft_replay_dupes += sum("ft.replay_dupes");
}

void check(Result& r, bool ok, const std::string& what) {
  ++r.checks;
  if (ok) return;
  ++r.failed;
  if (r.failures.size() < 16) r.failures.push_back(what);
}

void check_ft_idle(Result& r) {
  const LayerAcc& a = r.layers;
  check(r,
        a.ft_ckpts + a.ft_ckpt_bytes + a.ft_replay_applied +
                a.ft_replay_dupes ==
            0,
        "ft counters nonzero on a workload without ft");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string to_json(const Result& r) {
  std::ostringstream o;
  o << "{\"workload\":";
  json_str(o, r.workload);
  o << ",\"seed\":" << r.seed << ",\"traced\":" << (r.traced ? "true" : "false")
    << ",\"checks\":" << r.checks << ",\"failed\":" << r.failed
    << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i) o << ',';
    json_str(o, r.failures[i]);
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest.value()));
  const double slowdown = probe_slowdown(r.probe);
  const double run_cpu_s = static_cast<double>(r.run_cpu_ns) / 1e9;
  o << "],\"digest\":\"" << digest << "\",\"run_s\":";
  json_num(o, run_cpu_s / slowdown);
  o << ",\"setup_s\":";
  json_num(o, r.setup_cpu_s / slowdown);
  o << ",\"run_cpu_s\":";
  json_num(o, run_cpu_s);
  o << ",\"setup_cpu_s\":";
  json_num(o, r.setup_cpu_s);
  o << ",\"run_wall_s\":";
  json_num(o, static_cast<double>(r.run_host_ns) / 1e9);
  o << ",\"slowdown\":";
  json_num(o, slowdown);
  o << ",\"probe_samples\":" << r.probe.samples;
  o << ",\"peak_rss_mib\":";
  json_num(o, static_cast<double>(r.peak_rss_kib) / 1024.0);
  o << ",\"virt\":";
  json_map(o, r.virt);
  o << ",\"extra\":";
  json_map(o, r.extra);
  if (r.traced) {
    o << ",\"layers\":";
    json_map(o, layer_metrics(r));
    // Per call name: count, and mean host ns (non-blocking calls) or total
    // virtual wait in us (blocking calls, whose host time is not theirs).
    std::map<std::string, double> calls;
    for (const auto& [name, c] : r.spans.by_name()) {
      calls[name + ".calls"] = static_cast<double>(c.calls);
      if (c.blocking)
        calls[name + ".virt_wait_us"] = narma::to_us(c.virt);
      else
        calls[name + ".host_ns_mean"] =
            static_cast<double>(c.host_ns) / static_cast<double>(c.calls);
    }
    o << ",\"spans\":";
    json_map(o, calls);
  }
  o << '}';
  return o.str();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false, traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--trace") {
      traced = true;
    } else if (a == "--spans") {
      spans_path = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");

  Result r;
  r.workload = workload;
  r.seed = seed;
  r.traced = traced;
  r.spans = Spans(r.traced);
  // Traced runs go without the probe: its samples would land in whatever
  // profiler phase they interrupt.
  if (!traced && !probe_start()) {
    std::fprintf(stderr, "narma_perfbench: cannot start the speed probe\n");
    return 1;
  }
  if (workload == "stencil-scale") {
    run_stencil_scale(r, print_plan);
  } else if (workload == "serve-incast") {
    run_serve_incast(r, print_plan);
  } else if (workload == "cholesky-variants") {
    run_cholesky_variants(r, print_plan);
  } else if (workload == "stencil-recover") {
    run_stencil_recover(r, print_plan);
  } else {
    usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!traced) {
    r.probe = probe_stop();
    r.peak_rss_kib -= std::min(r.peak_rss_kib, probe_resident_kib());
  }
  if (traced && !spans_path.empty() && !r.spans.write_tsv(spans_path))
    std::fprintf(stderr, "narma_perfbench: cannot write %s\n",
                 spans_path.c_str());
  std::printf("RESULT %s\n", to_json(r).c_str());
  return 0;
}
