// narma_cli — experiment driver.
//
// Runs the paper's workloads with command-line parameters, without editing
// benchmark sources:
//
//   narma_cli pingpong --scheme=na --ranks=2 --bytes=8 --reps=100
//   narma_cli stencil  --variant=na --ranks=16 --rows=512 --cols=2048
//   narma_cli tree     --variant=na --ranks=64 --arity=16 --elems=8
//   narma_cli cholesky --variant=mp --ranks=8 --nt=24 --b=32 [--trace=f.json]
//
// Every subcommand prints one result line (plus the trace/metrics files if
// asked), suitable for scripting sweeps. `report` post-processes those
// files: per-category virtual-time breakdowns, top-k spans, and per-rank
// busy fractions.
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/stencil.hpp"
#include "apps/tree.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "narma/narma.hpp"

namespace {

using namespace narma;

/// One knob as given: a flag ("--ranks") or an environment variable
/// ("NARMA_OVERFLOW"), read through the strict parsers of common/env.hpp.
/// A malformed value is recorded against the knob's name and reads as the
/// fallback; commands stop on it before they run anything.
struct Value {
  std::string name;
  const std::string* text;  // nullptr when the knob is not set
  std::vector<std::string>* errors;

  explicit operator bool() const { return text != nullptr; }
  template <class T>
  T take(env::Parsed<T> p, T fallback) const {
    if (p.error.empty()) return p.value;
    errors->push_back(std::move(p.error));
    return fallback;
  }
  std::int64_t num(std::int64_t fallback = 0) const {
    return text ? take(env::parse_int(name, *text), fallback) : fallback;
  }
  int i32(int fallback = 0) const { return static_cast<int>(num(fallback)); }
  std::uint64_t u64() const { return static_cast<std::uint64_t>(num()); }
  double real(double fallback = 0) const {
    return text ? take(env::parse_double(name, *text), fallback) : fallback;
  }
  bool on() const { return text && take(env::parse_bool(name, *text), false); }
  std::string str() const { return text ? *text : std::string(); }
  /// The first form is the default.
  std::string choice(std::initializer_list<const char*> forms) const {
    const std::string first = *forms.begin();
    return text ? take(env::parse_choice(name, *text, forms), first) : first;
  }
};

/// The command line. flag() marks a flag known; check() then rejects
/// malformed values, unknown flags and stray positional arguments, so a
/// command fails before it starts a run.
struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;
  std::set<std::string> known;
  std::vector<std::string> errors;

  Args(int argc, char** argv) {
    if (argc > 1) command = argv[1];
    for (int i = 2; i < argc; ++i) {
      const std::string s = argv[i];
      const auto eq = s.find('=');
      if (s.rfind("--", 0) != 0)
        positional.push_back(s);
      else  // a bare --flag reads as "1"
        kv[s.substr(2, eq == std::string::npos ? eq : eq - 2)] =
            eq == std::string::npos ? "1" : s.substr(eq + 1);
    }
  }

  Value flag(const std::string& key) {
    known.insert(key);
    const auto it = kv.find(key);
    return {"--" + key, it == kv.end() ? nullptr : &it->second, &errors};
  }

  /// Prints every error seen so far; false when there was any.
  bool check(bool takes_positional = false) {
    for (const auto& [key, text] : kv)
      if (!known.count(key)) errors.push_back("unknown flag --" + key);
    if (!takes_positional)
      for (const std::string& p : positional)
        errors.push_back("unexpected argument \"" + p + '"');
    for (const std::string& e : errors)
      std::fprintf(stderr, "narma_cli %s: %s\n", command.c_str(), e.c_str());
    return errors.empty();
  }
};

int usage() {
  std::fputs(
      "usage: narma_cli <command> [--key=value ...]\n"
      "\n"
      "commands:\n"
      "  pingpong  --scheme=na|mp|os --ranks=N --bytes=B --reps=R\n"
      "            [--intranode]\n"
      "  stencil   --variant=na|mp|fence|pscw --ranks=N --rows=R --cols=C\n"
      "            --iters=I [--per-point=PS] [--ft ...]\n"
      "  tree      --variant=na|mp|pscw|vendor --ranks=N --arity=K\n"
      "            --elems=E --reps=R [--ft ...]\n"
      "  cholesky  --variant=na|mp|os --ranks=N --nt=T --b=B [--gflops=G]\n"
      "  report    [--trace=FILE] [--metrics=FILE] [--top=N]\n"
      "            summarize a recorded run: per-category virtual time\n"
      "            (with p50/p95 span durations), longest spans, per-rank\n"
      "            busy fractions, host-time phase attribution\n"
      "            (obs.phase_* gauges from --profile runs), per-backend\n"
      "            notification + drain-cost rows, histogram percentiles\n"
      "  timeline  --timeseries=FILE [--journal=FILE] [--perfetto=FILE]\n"
      "            [--top=N]\n"
      "            analyze a flight-recorder dump: per-window rank activity,\n"
      "            busiest counter families, model-residual rows, flagged\n"
      "            anomalies; --perfetto writes counter tracks for Perfetto\n"
      "  critpath  --msgtrace=FILE [--top=N]\n"
      "            analyze a causal message trace: critical-path category\n"
      "            breakdown, per-rank share, slowest messages, per-\n"
      "            category latency statistics\n"
      "  diff      <a.json> <b.json> [--top=N]\n"
      "            compare two metrics dumps (narma.metrics.v2):\n"
      "            per-family reduced values, absolute + relative deltas,\n"
      "            top regressions, families added/removed\n"
      "\n"
      "common:     [--transport=aries|ramc|verbs]  inter-node backend\n"
      "                               (default aries)\n"
      "            [--trace=FILE]     write a Chrome trace of the run\n"
      "            [--metrics=FILE]   write the metrics registry dump\n"
      "            [--msgtrace=FILE]  write the causal message trace\n"
      "            [--msgtrace-sample=N]  trace every Nth message (default 1)\n"
      "            [--timeseries=FILE]  record + write the flight-recorder\n"
      "                               time-series dump (narma.timeseries.v1)\n"
      "            [--timeseries-window-us=N]  snapshot cadence (default 100)\n"
      "            [--profile]        host-time phase profiling; results land\n"
      "                               in the metrics dump as obs.phase_*\n"
      "            [--journal=FILE]   write the anomaly journal\n"
      "                               (narma.journal.v1)\n"
      "            [--obs-sample-ranks=N]  ranks keeping per-rank histograms\n"
      "                               and dump rows (default 64)\n"
      "\n"
      "fault tolerance (stencil + tree, NotifiedAccess variant only):\n"
      "            [--ft]                   run through the recovery manager\n"
      "            [--ft-fail-rate=R]       per-(rank,epoch) fail-stop draw;\n"
      "                                     the lowest firing rank fails\n"
      "            [--ft-max-fails=N]       fail-stop budget (default 1)\n"
      "            [--ft-interval=E]        checkpoint every E epochs\n"
      "            [--ft-partner-offset=K]  checkpoint partner (rank+K)%n\n"
      "            [--ft-restart-us=T]      victim downtime before rejoin\n"
      "            [--ft-min-fail-epoch=E]  earliest epoch the plan fires\n"
      "            [--ft-no-recover]        victims stay down (crash mode)\n"
      "\n"
      "environment (run commands):\n"
      "            NARMA_OVERFLOW=fatal|backpressure  overflow policy\n"
      "            NARMA_FAULT_SEED, NARMA_FAULT_DROP, NARMA_FAULT_DELAY,\n"
      "            NARMA_FAULT_STALL, NARMA_FAULT_PRESSURE  fault plan\n"
      "            NARMA_CRASH_DIR=DIR  dump crash_*.json there on a fatal\n"
      "            error\n",
      stderr);
  return 2;
}

/// What a run command configures through the knob table.
struct RunParams {
  WorldParams world;
  ft::FtParams ft;
  net::FaultParams& faults() { return world.fabric.faults; }
};

/// One World or ft knob: a flag ("--name") or an environment variable
/// ("NARMA_NAME"), and where its value goes. Each knob has exactly one way
/// in; the environment keeps only what the CI fault matrix and crash
/// post-mortems set.
struct Knob {
  const char* name;
  void (*set)(RunParams&, const Value&);
};

constexpr Knob kKnobs[] = {
    {"--transport",
     [](RunParams& p, const Value& v) {
       // Intra-node pairs stay on shm, so shm is no inter-node choice.
       const std::string t = v.choice({"aries", "ramc", "verbs"});
       p.world.fabric.inter_node = t == "ramc"    ? net::BackendKind::kRamc
                                   : t == "verbs" ? net::BackendKind::kVerbs
                                                  : net::BackendKind::kAries;
     }},
    {"--obs-sample-ranks",
     [](RunParams& p, const Value& v) { p.world.obs.sample_ranks = v.i32(); }},
    {"NARMA_OVERFLOW",
     [](RunParams& p, const Value& v) {
       p.faults().overflow_policy =
           v.choice({"fatal", "backpressure"}) == "backpressure"
               ? net::OverflowPolicy::kBackpressure
               : net::OverflowPolicy::kFatal;
     }},
    {"NARMA_FAULT_SEED",
     [](RunParams& p, const Value& v) { p.faults().seed = v.u64(); }},
    {"NARMA_FAULT_DROP",
     [](RunParams& p, const Value& v) { p.faults().drop_rate = v.real(); }},
    {"NARMA_FAULT_DELAY",
     [](RunParams& p, const Value& v) { p.faults().delay_rate = v.real(); }},
    {"NARMA_FAULT_STALL",
     [](RunParams& p, const Value& v) { p.faults().stall_rate = v.real(); }},
    {"NARMA_FAULT_PRESSURE",
     [](RunParams& p, const Value& v) { p.faults().pressure_rate = v.real(); }},
    {"NARMA_CRASH_DIR",
     [](RunParams& p, const Value& v) { p.world.obs.crash_dir = v.str(); }},
    // Fault tolerance (DESIGN.md §15): only stencil and tree accept these.
    {"--ft", [](RunParams& p, const Value& v) { p.ft.enabled = v.on(); }},
    {"--ft-fail-rate",
     [](RunParams& p, const Value& v) { p.faults().fail_rate = v.real(); }},
    {"--ft-max-fails",
     [](RunParams& p, const Value& v) { p.faults().max_fails = v.i32(); }},
    {"--ft-interval",
     [](RunParams& p, const Value& v) { p.ft.ckpt_interval = v.i32(); }},
    {"--ft-partner-offset",
     [](RunParams& p, const Value& v) { p.ft.partner_offset = v.i32(); }},
    {"--ft-restart-us",
     [](RunParams& p, const Value& v) { p.ft.restart = us(v.real()); }},
    {"--ft-min-fail-epoch",
     [](RunParams& p, const Value& v) { p.ft.min_fail_epoch = v.u64(); }},
    {"--ft-no-recover",
     [](RunParams& p, const Value& v) { p.ft.recover = !v.on(); }},
};

/// Applies every knob of the table that is set: flags from the command
/// line, variables from the environment. `with_ft` admits the --ft* rows.
RunParams read_knobs(Args& a, bool with_ft) {
  RunParams p;
  for (const Knob& k : kKnobs) {
    const std::string_view name = k.name;
    if (!with_ft && name.starts_with("--ft")) continue;
    const bool is_flag = name.starts_with("--");
    const std::string text = is_flag ? "" : env::get_string(k.name, "");
    const Value v = is_flag ? a.flag(std::string(name.substr(2)))
                            : Value{k.name, text.empty() ? nullptr : &text,
                                    &a.errors};
    if (v) k.set(p, v);
  }
  return p;
}

/// One-line recovery summary of an ft run. Each rank's FtStats count only
/// the fails it suffered and the entries it replayed, so those are summed
/// over ranks; the last rank that failed supplies the restore epoch and
/// recovery time, rank 0 the checkpoint view.
struct FtRun {
  ft::FtStats sum;
  ft::FtStats victim;

  void add(const ft::FtStats& s) {
    sum.fails += s.fails;
    sum.replay_applied += s.replay_applied;
    sum.replay_dupes += s.replay_dupes;
    if (s.fails > 0) victim = s;
  }
  void print(const char* app, const ft::FtStats& rank0) const {
    const ft::FtStats& s = sum.fails > 0 ? victim : rank0;
    std::printf(
        "%s-ft fails=%llu victim=%d restored_epoch=%llu recovery_us=%.2f "
        "ckpts=%llu ckpt_kib=%.1f replay=%llu dupes=%llu\n",
        app, static_cast<unsigned long long>(sum.fails), s.victim,
        static_cast<unsigned long long>(s.restored_epoch),
        to_us(s.recovery_time), static_cast<unsigned long long>(rank0.ckpts),
        static_cast<double>(rank0.ckpt_bytes) / 1024.0,
        static_cast<unsigned long long>(sum.replay_applied),
        static_cast<unsigned long long>(sum.replay_dupes));
  }
};

/// The observability sinks a run asked for; an empty path is off.
struct Sinks {
  std::string trace, metrics, msgtrace, timeseries, journal;
  std::uint64_t msgtrace_sample;
  Time timeseries_window;
  bool profile;

  explicit Sinks(Args& a)
      : trace(a.flag("trace").str()),
        metrics(a.flag("metrics").str()),
        msgtrace(a.flag("msgtrace").str()),
        timeseries(a.flag("timeseries").str()),
        journal(a.flag("journal").str()),
        msgtrace_sample(a.flag("msgtrace-sample").u64()),
        timeseries_window(us(
            static_cast<Time>(a.flag("timeseries-window-us").num()))),
        profile(a.flag("profile").on()) {}

  /// Call before run().
  void enable(World& world) const {
    if (!trace.empty()) world.enable_tracing();
    if (!msgtrace.empty()) world.enable_msgtrace(msgtrace_sample);
    // Profiler before recorder: the recorder's probe charges itself to the
    // obs phase only when the profiler already exists.
    if (profile) world.enable_profiling();
    if (!timeseries.empty()) world.enable_timeseries(timeseries_window);
  }
  void dump(World& world) const {
    if (!trace.empty()) world.dump_trace(trace);
    if (!metrics.empty()) world.dump_metrics(metrics);
    if (!msgtrace.empty()) world.dump_msgtrace(msgtrace);
    if (!timeseries.empty()) world.dump_timeseries(timeseries);
    if (!journal.empty()) world.dump_journal(journal);
  }
};

// --- report ------------------------------------------------------------------

/// Metrics-dump sections of `report` (narma.metrics.v2): whole-family
/// reductions per kind, top-k outlier ranks, per-rank busy fractions of
/// the sampled ranks, host-time phase attribution (from --profile runs),
/// per-backend notification and drain-cost rows, the engine event queue,
/// and the obs self-cost.
int report_metrics(const std::string& path) {
  const json::ParseResult m = json::parse_file(path);
  if (!m.ok) {
    std::fprintf(stderr, "report: %s: %s (offset %zu)\n", path.c_str(),
                 m.error.c_str(), m.error_pos);
    return 1;
  }
  const json::Value& doc = m.value;
  const std::string schema = doc.string_or("schema", "");
  if (schema != "narma.metrics.v2") {
    std::fprintf(stderr, "report: %s: unknown metrics schema '%s'\n",
                 path.c_str(), schema.c_str());
    return 1;
  }
  const json::Array& fams = doc["metrics"].as_array();
  std::printf(
      "\nmetrics %s: %d ranks, %zu sampled ranks, outlier_k=%lld, "
      "%zu families\n",
      path.c_str(), static_cast<int>(doc.number_or("nranks", 0)),
      doc["sample_ranks"].as_array().size(),
      static_cast<long long>(doc.number_or("outlier_k", 0)), fams.size());

  auto find_fam = [&](const std::string& name) -> const json::Value& {
    static const json::Value kNull;
    for (const json::Value& fam : fams)
      if (fam.string_or("name", "") == name) return fam;
    return kNull;
  };
  auto aggregate = [&](const std::string& name, const char* field) {
    return find_fam(name)["aggregate"].number_or(field, 0);
  };

  // Whole-family reductions, one table per kind; all exact.
  Table c_table({"counter", "sum", "active_ranks", "max_rank_total"});
  Table g_table({"gauge", "last", "high_water"});
  Table h_table({"histogram", "count", "p50", "p90", "p99", "max",
                 "busiest_rank", "busiest_p99"});
  bool any_c = false, any_g = false, any_h = false;
  for (const json::Value& fam : fams) {
    const std::string kind = fam.string_or("kind", "");
    const json::Value& ag = fam["aggregate"];
    if (kind == "counter") {
      any_c = true;
      c_table.add_row(
          {fam.string_or("name", "?"),
           Table::fmt(static_cast<long long>(ag.number_or("sum", 0))),
           Table::fmt(static_cast<long long>(ag.number_or("active_ranks", 0))),
           Table::fmt(static_cast<long long>(ag.number_or("max", 0)))});
    } else if (kind == "gauge") {
      any_g = true;
      g_table.add_row(
          {fam.string_or("name", "?"),
           Table::fmt(static_cast<long long>(ag.number_or("last", 0))),
           Table::fmt(static_cast<long long>(ag.number_or("high_water", 0)))});
    } else if (kind == "histogram" && ag.number_or("count", 0) > 0) {
      any_h = true;
      // The busiest sampled rank (highest count) gives the typical
      // per-rank tail next to the merged family percentiles.
      const json::Value* top = nullptr;
      for (const json::Value& cell : fam["sampled"].as_array())
        if (!top || cell.number_or("count", 0) > top->number_or("count", 0))
          top = &cell;
      h_table.add_row(
          {fam.string_or("name", "?"),
           Table::fmt(static_cast<long long>(ag.number_or("count", 0))),
           Table::fmt(ag.number_or("p50", 0)), Table::fmt(ag.number_or("p90", 0)),
           Table::fmt(ag.number_or("p99", 0)),
           Table::fmt(static_cast<long long>(ag.number_or("max", 0))),
           top ? Table::fmt(static_cast<long long>(top->number_or("rank", -1)))
               : "-",
           top ? Table::fmt(top->number_or("p99", 0)) : "-"});
    }
  }
  if (any_c) {
    std::printf("\ncounters (whole-family, exact):\n");
    c_table.print();
  }
  if (any_g) {
    std::printf("\ngauges (latest set / global high-water):\n");
    g_table.print();
  }
  if (any_h) {
    std::printf("\nhistogram percentiles (merged buckets):\n");
    h_table.print();
  }

  // Top-k outlier ranks per family (value-ordered in the dump).
  {
    Table o_table({"family", "top ranks (rank:value)"});
    bool any = false;
    for (const json::Value& fam : fams) {
      const json::Array& out = fam["outliers"].as_array();
      if (out.empty()) continue;
      any = true;
      std::string cells;
      for (const json::Value& o : out) {
        if (!cells.empty()) cells += "  ";
        cells += Table::fmt(static_cast<long long>(o.number_or("rank", -1)));
        cells += ':';
        cells += Table::fmt(static_cast<long long>(o.number_or("value", 0)));
      }
      o_table.add_row({fam.string_or("name", "?"), cells});
    }
    if (any) {
      std::printf("\noutliers (top-k ranks by total / high-water / max):\n");
      o_table.print();
    }
  }

  // Per-rank busy fractions from the sim.* gauges of the sampled ranks
  // (every rank when nranks <= sample_ranks).
  const json::Array& busy = find_fam("sim.busy_ns")["sampled"].as_array();
  const json::Array& blocked =
      find_fam("sim.blocked_ns")["sampled"].as_array();
  const json::Array& total = find_fam("sim.total_ns")["sampled"].as_array();
  if (!busy.empty() && busy.size() == total.size()) {
    Table busy_table(
        {"rank", "busy_ms", "blocked_ms", "total_ms", "busy_frac"});
    for (std::size_t i = 0; i < busy.size(); ++i) {
      const double b = busy[i].number_or("value", 0);
      const double w = i < blocked.size() ? blocked[i].number_or("value", 0)
                                          : 0.0;
      const double t = total[i].number_or("value", 0);
      busy_table.add_row(
          {Table::fmt(static_cast<long long>(busy[i].number_or("rank", -1))),
           Table::fmt(b / 1e6), Table::fmt(w / 1e6), Table::fmt(t / 1e6),
           Table::fmt(t > 0 ? b / t : 0.0)});
    }
    std::printf("\nper-rank busy fraction (sampled ranks, from %s):\n",
                path.c_str());
    busy_table.print();
  }

  // Host-time phase attribution (--profile runs export obs.phase_* gauges
  // at rank 0). The matching/obs/plumbing split of real host wall-clock —
  // the paper's simulator-cost question, answered from the dump alone.
  const double prof_total = aggregate("obs.profile_total_ns", "last");
  if (prof_total > 0) {
    static const char* kPhases[] = {"engine_pop", "callback",  "rank_exec",
                                    "match",      "transfer",  "app_compute",
                                    "obs"};
    Table phase_table({"phase", "host_ms", "calls", "% of run"});
    double attributed = 0;
    for (const char* ph : kPhases) {
      const double ns_v =
          aggregate(std::string("obs.phase_") + ph + "_ns", "last");
      const double calls =
          aggregate(std::string("obs.phase_") + ph + "_calls", "last");
      attributed += ns_v;
      phase_table.add_row(
          {ph, Table::fmt(ns_v / 1e6),
           Table::fmt(static_cast<long long>(calls)),
           Table::fmt(100.0 * ns_v / prof_total, 1)});
    }
    const double unattr = aggregate("obs.profile_unattributed_ns", "last");
    phase_table.add_row({"(unattributed)", Table::fmt(unattr / 1e6), "-",
                         Table::fmt(100.0 * unattr / prof_total, 1)});
    phase_table.add_row({"(total)", Table::fmt(prof_total / 1e6), "-",
                         Table::fmt(100.0, 1)});
    std::printf("\nhost-time phase attribution:\n");
    phase_table.print();
    const double obs_ns = aggregate("obs.phase_obs_ns", "last");
    std::printf("attributed %.1f%% of host run; obs self-overhead %.2f%%\n",
                100.0 * attributed / prof_total,
                100.0 * obs_ns / prof_total);
  }

  // Per-backend notification delivery + consumer drain cost. Rows appear
  // only for backends the run's routes actually used (the registry never
  // registers the rest).
  {
    static const char* kBackends[] = {"shm", "aries", "ramc", "verbs"};
    Table be_table({"backend", "notifs", "drain_ms", "drain_ns/notif"});
    bool any = false;
    for (const char* be : kBackends) {
      const std::string notifs = std::string("net.") + be + "_notifs";
      if (!find_fam(notifs).is_object()) continue;
      any = true;
      const double n = aggregate(notifs, "sum");
      const double drain_ps =
          aggregate(std::string("net.") + be + "_drain_ps", "sum");
      be_table.add_row({be, Table::fmt(static_cast<long long>(n)),
                        Table::fmt(drain_ps / 1e9),
                        Table::fmt(n > 0 ? drain_ps / 1e3 / n : 0.0)});
    }
    if (any) {
      std::printf("\nper-backend notifications (virtual drain cost):\n");
      be_table.print();
    }
  }

  // Engine event queue: pending-event high-water, ladder rungs below the
  // calendar, and keys moved aside per insert into the sorted bottom (an
  // append moves none; DESIGN.md §8).
  const json::Value& scan = find_fam("sim.bottom_insert_scan");
  if (scan.is_object()) {
    const json::Value& ag = scan["aggregate"];
    std::printf(
        "\nevent queue: high-water %lld, ladder rungs high-water %lld; "
        "%lld bottom inserts moved p50 %s / p99 %s / max %lld keys\n",
        static_cast<long long>(aggregate("sim.event_queue_hw", "high_water")),
        static_cast<long long>(aggregate("sim.ladder_rungs_hw", "high_water")),
        static_cast<long long>(ag.number_or("count", 0)),
        Table::fmt(ag.number_or("p50", 0)).c_str(),
        Table::fmt(ag.number_or("p99", 0)).c_str(),
        static_cast<long long>(ag.number_or("max", 0)));
  }

  // Obs self-cost: the registry footprint gauge plus the journal depth,
  // when the run recorded them.
  const double registry_bytes = aggregate("obs.registry_bytes", "high_water");
  const double journal_depth = aggregate("obs.journal_depth", "high_water");
  if (registry_bytes > 0 || journal_depth > 0)
    std::printf("\nobs self-cost: registry ~%.1f KiB, journal depth %lld\n",
                registry_bytes / 1024.0,
                static_cast<long long>(journal_depth));
  return 0;
}

int run_report(Args& a) {
  const std::string trace_path = a.flag("trace").str();
  const std::string metrics_path = a.flag("metrics").str();
  // --top is the documented spelling; --topk stays as a fallback.
  const auto topk =
      static_cast<std::size_t>(a.flag("top").num(a.flag("topk").num(10)));
  if (!a.check()) return 2;
  if (trace_path.empty()) {
    if (!metrics_path.empty()) return report_metrics(metrics_path);
    std::fputs("report: --trace=FILE and/or --metrics=FILE is required\n",
               stderr);
    return 2;
  }

  const json::ParseResult doc = json::parse_file(trace_path);
  if (!doc.ok) {
    std::fprintf(stderr, "report: %s: %s (offset %zu)\n", trace_path.c_str(),
                 doc.error.c_str(), doc.error_pos);
    return 1;
  }
  const json::Array& events = doc.value["traceEvents"].as_array();
  if (events.empty()) {
    std::fprintf(stderr, "report: %s has no traceEvents\n",
                 trace_path.c_str());
    return 1;
  }

  struct Span {
    std::string name, cat;
    int rank;
    double ts_us, dur_us;
  };
  struct CatAgg {
    std::uint64_t spans = 0;
    double total_us = 0;
    std::vector<double> durs_us;
  };
  std::vector<Span> spans;
  std::map<std::string, CatAgg> by_cat;
  std::map<int, double> rank_span_us;  // per-rank time inside spans
  std::map<int, double> rank_end_us;   // per-rank last event end
  std::uint64_t counter_events = 0;

  for (const json::Value& e : events) {
    const std::string ph = e.string_or("ph", "");
    const int rank = static_cast<int>(e.number_or("tid", 0));
    if (ph == "C") {
      ++counter_events;
      continue;
    }
    if (ph != "X") continue;
    Span s{e.string_or("name", "?"), e.string_or("cat", "?"), rank,
           e.number_or("ts", 0), e.number_or("dur", 0)};
    CatAgg& agg = by_cat[s.cat];
    ++agg.spans;
    agg.total_us += s.dur_us;
    agg.durs_us.push_back(s.dur_us);
    rank_span_us[rank] += s.dur_us;
    rank_end_us[rank] =
        std::max(rank_end_us[rank], s.ts_us + s.dur_us);
    spans.push_back(std::move(s));
  }

  double trace_end_us = 0;
  for (const auto& [r, end] : rank_end_us)
    trace_end_us = std::max(trace_end_us, end);

  std::printf("trace %s: %zu events (%zu spans, %llu counter points), "
              "end of last span at %.3f us\n",
              trace_path.c_str(), events.size(), spans.size(),
              static_cast<unsigned long long>(counter_events), trace_end_us);

  // Per-category breakdown: span time summed over all ranks; the percent
  // column is relative to (ranks x trace end), i.e. total rank-time.
  const double rank_time_us =
      trace_end_us * static_cast<double>(std::max<std::size_t>(
                         rank_end_us.size(), 1));
  Table cat_table(
      {"category", "spans", "total_ms", "p50_us", "p95_us", "% of rank-time"});
  double traced_total_us = 0;
  std::vector<double> all_durs_us;
  for (const auto& [cat, agg] : by_cat) {
    traced_total_us += agg.total_us;
    all_durs_us.insert(all_durs_us.end(), agg.durs_us.begin(),
                       agg.durs_us.end());
    cat_table.add_row({cat, Table::fmt(static_cast<std::size_t>(agg.spans)),
                       Table::fmt(agg.total_us / 1e3),
                       Table::fmt(stats::quantile(agg.durs_us, 0.50)),
                       Table::fmt(stats::quantile(agg.durs_us, 0.95)),
                       Table::fmt(rank_time_us > 0
                                      ? 100.0 * agg.total_us / rank_time_us
                                      : 0.0,
                                  1)});
  }
  cat_table.add_row({"(all)",
                     Table::fmt(spans.size()),
                     Table::fmt(traced_total_us / 1e3),
                     Table::fmt(all_durs_us.empty()
                                    ? 0.0
                                    : stats::quantile(all_durs_us, 0.50)),
                     Table::fmt(all_durs_us.empty()
                                    ? 0.0
                                    : stats::quantile(all_durs_us, 0.95)),
                     Table::fmt(rank_time_us > 0
                                    ? 100.0 * traced_total_us / rank_time_us
                                    : 0.0,
                                1)});
  std::printf("\nper-category virtual time:\n");
  cat_table.print();

  // Top-k spans by duration.
  std::sort(spans.begin(), spans.end(),
            [](const Span& x, const Span& y) { return x.dur_us > y.dur_us; });
  Table top_table({"span", "category", "rank", "start_us", "dur_us"});
  for (std::size_t i = 0; i < std::min(topk, spans.size()); ++i) {
    const Span& s = spans[i];
    top_table.add_row({s.name, s.cat, Table::fmt(static_cast<long long>(
                                          s.rank)),
                       Table::fmt(s.ts_us), Table::fmt(s.dur_us)});
  }
  std::printf("\ntop %zu spans:\n", std::min(topk, spans.size()));
  top_table.print();

  // Metrics-dump sections (busy fractions, phase attribution, backends,
  // histogram percentiles).
  if (!metrics_path.empty()) return report_metrics(metrics_path);
  return 0;
}

// --- diff --------------------------------------------------------------------

/// One family of a metrics dump reduced to a single comparable number, read
/// from its aggregate section: counters to the whole-family sum, gauges to
/// the global high-water, histograms to the total sample count.
struct ReducedFamily {
  std::string kind;
  double value = 0;
};

bool reduce_metrics(const json::Value& doc,
                    std::map<std::string, ReducedFamily>& out,
                    std::string& err) {
  const std::string schema = doc.string_or("schema", "");
  if (schema != "narma.metrics.v2") {
    err = "unknown metrics schema '" + schema + "'";
    return false;
  }
  for (const json::Value& fam : doc["metrics"].as_array()) {
    ReducedFamily red;
    red.kind = fam.string_or("kind", "?");
    const json::Value& ag = fam["aggregate"];
    red.value = red.kind == "counter" ? ag.number_or("sum", 0)
                : red.kind == "gauge" ? ag.number_or("high_water", 0)
                                      : ag.number_or("count", 0);
    out[fam.string_or("name", "?")] = std::move(red);
  }
  return true;
}

int run_diff(Args& a) {
  const std::vector<std::string>& paths = a.positional;
  const auto topk = static_cast<std::size_t>(a.flag("top").num(15));
  if (!a.check(true)) return 2;
  if (paths.size() != 2) {
    std::fputs("diff: exactly two metrics dumps required: "
               "narma_cli diff <a.json> <b.json> [--top=N]\n",
               stderr);
    return 2;
  }
  std::map<std::string, ReducedFamily> base, cur;
  for (int side = 0; side < 2; ++side) {
    const std::string& path = paths[static_cast<std::size_t>(side)];
    const json::ParseResult doc = json::parse_file(path);
    if (!doc.ok) {
      std::fprintf(stderr, "diff: %s: %s (offset %zu)\n", path.c_str(),
                   doc.error.c_str(), doc.error_pos);
      return 1;
    }
    std::string err;
    if (!reduce_metrics(doc.value, side ? cur : base, err)) {
      std::fprintf(stderr, "diff: %s: %s\n", path.c_str(), err.c_str());
      return 1;
    }
  }

  struct Row {
    std::string name, kind;
    double a, b, delta, rel;
  };
  std::vector<Row> rows;
  std::vector<std::string> added, removed;
  std::size_t unchanged = 0;
  for (const auto& [name, rb] : base) {
    auto it = cur.find(name);
    if (it == cur.end()) {
      removed.push_back(name);
      continue;
    }
    const double d = it->second.value - rb.value;
    if (d == 0) {
      ++unchanged;
      continue;
    }
    const double denom = std::max(std::abs(rb.value), 1.0);
    rows.push_back({name, rb.kind, rb.value, it->second.value, d,
                    d / denom});
  }
  for (const auto& [name, rc] : cur)
    if (!base.count(name)) added.push_back(name);

  std::printf(
      "diff %s -> %s: %zu families compared, %zu changed, %zu unchanged, "
      "%zu added, %zu removed\n",
      paths[0].c_str(), paths[1].c_str(),
      base.size() - removed.size(), rows.size(), unchanged, added.size(),
      removed.size());

  // Largest movers by relative delta (ties broken by absolute delta) —
  // the regression shortlist for sweep comparisons.
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    const double rx = std::abs(x.rel), ry = std::abs(y.rel);
    if (rx != ry) return rx > ry;
    const double dx = std::abs(x.delta), dy = std::abs(y.delta);
    if (dx != dy) return dx > dy;
    return x.name < y.name;
  });
  if (!rows.empty()) {
    Table d_table({"family", "kind", "base", "new", "delta", "delta%"});
    for (std::size_t i = 0; i < std::min(topk, rows.size()); ++i) {
      const Row& r = rows[i];
      d_table.add_row({r.name, r.kind, Table::fmt(r.a), Table::fmt(r.b),
                       Table::fmt(r.delta), Table::fmt(100.0 * r.rel, 1)});
    }
    std::printf("\ntop %zu movers (by relative delta):\n",
                std::min(topk, rows.size()));
    d_table.print();
  }
  for (const std::string& n : added)
    std::printf("added:   %s\n", n.c_str());
  for (const std::string& n : removed)
    std::printf("removed: %s\n", n.c_str());
  return 0;
}

// --- critpath ----------------------------------------------------------------

/// The latency categories of the narma.msgtrace.v1 decomposition, in the
/// same order MsgTrace emits them (see src/obs/msgtrace.hpp).
constexpr const char* kLatCats[] = {"src_overhead", "chan_queue", "gap",
                                    "ser",          "wire",       "blocked",
                                    "match",        "retry",      "local"};

int run_critpath(Args& a) {
  const std::string path = a.flag("msgtrace").str();
  const auto topk = static_cast<std::size_t>(a.flag("top").num(10));
  if (!a.check()) return 2;
  if (path.empty()) {
    std::fputs("critpath: --msgtrace=FILE is required\n", stderr);
    return 2;
  }

  const json::ParseResult doc = json::parse_file(path);
  if (!doc.ok) {
    std::fprintf(stderr, "critpath: %s: %s (offset %zu)\n", path.c_str(),
                 doc.error.c_str(), doc.error_pos);
    return 1;
  }
  if (doc.value.string_or("schema", "") != "narma.msgtrace.v1") {
    std::fprintf(stderr, "critpath: %s: unknown msgtrace schema '%s'\n",
                 path.c_str(), doc.value.string_or("schema", "").c_str());
    return 1;
  }

  const json::Array& messages = doc.value["messages"].as_array();
  std::printf(
      "msgtrace %s: %d ranks, sample_every=%lld, %lld injected / %lld "
      "sampled / %lld hop records dropped, %zu messages\n",
      path.c_str(), static_cast<int>(doc.value.number_or("nranks", 0)),
      static_cast<long long>(doc.value.number_or("sample_every", 1)),
      static_cast<long long>(doc.value.number_or("injections", 0)),
      static_cast<long long>(doc.value.number_or("sampled", 0)),
      static_cast<long long>(doc.value.number_or("dropped", 0)),
      messages.size());

  // Decomposition identity across all complete messages: per-message
  // category times must sum exactly to the end-to-end latency (all values
  // are integer picoseconds, so the check is exact).
  std::size_t complete = 0, violations = 0;
  std::map<std::string, std::vector<double>> cat_lat_us;
  struct Msg {
    std::string op;
    int src, dst;
    double bytes, lat_us;
    std::string top_cat;
    double top_cat_us;
    long long flow_id;
  };
  std::vector<Msg> msgs;
  for (const json::Value& m : messages) {
    if (!m["complete"].as_bool()) continue;
    ++complete;
    const json::Value& d = m["decomp_ps"];
    double sum_ps = 0;
    std::string top_cat = "-";
    double top_ps = -1;
    for (const char* cat : kLatCats) {
      const double v = d.number_or(cat, 0);
      sum_ps += v;
      if (v > 0) cat_lat_us[cat].push_back(v / 1e6);
      if (v > top_ps) {
        top_ps = v;
        top_cat = cat;
      }
    }
    if (sum_ps != m.number_or("latency_ps", 0)) ++violations;
    msgs.push_back({m.string_or("op", "?"),
                    static_cast<int>(m.number_or("src", -1)),
                    static_cast<int>(m.number_or("dst", -1)),
                    m.number_or("bytes", 0), m.number_or("latency_ps", 0) / 1e6,
                    top_cat, top_ps / 1e6,
                    static_cast<long long>(m.number_or("flow_id", 0))});
  }
  std::printf("decomposition identity: %zu complete messages, %zu violations%s\n",
              complete, violations, violations ? " [FAIL]" : " [ok]");

  // Critical path: category breakdown and per-rank share.
  const json::Value& cp = doc.value["critical_path"];
  const double span_ps = cp.number_or("span_ps", 0);
  std::printf("\ncritical path: %.3f us across %zu messages (t=%.3f..%.3f us)\n",
              span_ps / 1e6, cp["messages"].as_array().size(),
              cp.number_or("t_begin_ps", 0) / 1e6,
              cp.number_or("t_end_ps", 0) / 1e6);
  Table cp_table({"category", "time_us", "% of path"});
  double cp_sum_ps = 0;
  for (const char* cat : kLatCats) {
    const double v = cp["decomp_ps"].number_or(cat, 0);
    cp_sum_ps += v;
    cp_table.add_row({cat, Table::fmt(v / 1e6),
                      Table::fmt(span_ps > 0 ? 100.0 * v / span_ps : 0.0, 1)});
  }
  cp_table.add_row({"(sum)", Table::fmt(cp_sum_ps / 1e6),
                    Table::fmt(span_ps > 0 ? 100.0 * cp_sum_ps / span_ps : 0.0,
                               1)});
  cp_table.print();

  const json::Value& per_rank = cp["per_rank_ps"];
  if (per_rank.is_array() && span_ps > 0) {
    Table rank_table({"rank", "path_time_us", "% of path"});
    const json::Array& pr = per_rank.as_array();
    for (std::size_t r = 0; r < pr.size(); ++r) {
      const double v = pr[r].as_number();
      if (v <= 0) continue;
      rank_table.add_row({Table::fmt(static_cast<long long>(r)),
                          Table::fmt(v / 1e6),
                          Table::fmt(100.0 * v / span_ps, 1)});
    }
    std::printf("\ncritical-path share per rank:\n");
    rank_table.print();
  }

  // Per-category latency statistics across complete messages.
  Table stat_table({"category", "msgs", "mean_us", "p50_us", "p95_us",
                    "max_us"});
  for (const char* cat : kLatCats) {
    auto it = cat_lat_us.find(cat);
    if (it == cat_lat_us.end()) continue;
    const std::vector<double>& xs = it->second;
    stat_table.add_row({cat, Table::fmt(xs.size()),
                        Table::fmt(stats::mean(xs)),
                        Table::fmt(stats::quantile(xs, 0.50)),
                        Table::fmt(stats::quantile(xs, 0.95)),
                        Table::fmt(stats::max(xs))});
  }
  std::printf("\nper-category latency across messages:\n");
  stat_table.print();

  // Top-k slowest messages.
  std::sort(msgs.begin(), msgs.end(),
            [](const Msg& x, const Msg& y) { return x.lat_us > y.lat_us; });
  // flow_id lets the reader jump from a row to the matching Perfetto flow
  // arrow in the --trace output (same id namespace).
  Table top_table({"op", "src", "dst", "bytes", "latency_us", "dominant",
                   "dom_us", "flow_id"});
  for (std::size_t i = 0; i < std::min(topk, msgs.size()); ++i) {
    const Msg& m = msgs[i];
    top_table.add_row({m.op, Table::fmt(static_cast<long long>(m.src)),
                       Table::fmt(static_cast<long long>(m.dst)),
                       Table::fmt(static_cast<long long>(m.bytes)),
                       Table::fmt(m.lat_us), m.top_cat,
                       Table::fmt(m.top_cat_us), Table::fmt(m.flow_id)});
  }
  std::printf("\ntop %zu slowest messages:\n", std::min(topk, msgs.size()));
  top_table.print();
  return violations ? 1 : 0;
}

// --- timeline ----------------------------------------------------------------

/// Prints an anomaly-journal dump (narma.journal.v1): the bounded,
/// virtual-time-ordered record of faults, backpressure episodes, overflow
/// spills, stragglers, and model-residual flags.
int print_journal(const std::string& path) {
  const json::ParseResult doc = json::parse_file(path);
  if (!doc.ok) {
    std::fprintf(stderr, "timeline: %s: %s (offset %zu)\n", path.c_str(),
                 doc.error.c_str(), doc.error_pos);
    return 1;
  }
  if (doc.value.string_or("schema", "") != "narma.journal.v1") {
    std::fprintf(stderr, "timeline: %s: unknown journal schema '%s'\n",
                 path.c_str(), doc.value.string_or("schema", "").c_str());
    return 1;
  }
  const json::Array& records = doc.value["records"].as_array();
  std::printf(
      "\njournal %s: %lld appended, %lld dropped (capacity %lld), "
      "%zu retained\n",
      path.c_str(), static_cast<long long>(doc.value.number_or("appended", 0)),
      static_cast<long long>(doc.value.number_or("dropped", 0)),
      static_cast<long long>(doc.value.number_or("capacity", 0)),
      records.size());
  if (records.empty()) {
    std::printf("journal: clean run (no anomalies recorded)\n");
    return 0;
  }
  Table j_table({"t_us", "kind", "rank", "peer", "detail"});
  for (const json::Value& r : records)
    j_table.add_row({Table::fmt(r.number_or("t_ps", 0) / 1e6),
                     r.string_or("kind", "?"),
                     Table::fmt(static_cast<long long>(r.number_or("rank", -1))),
                     Table::fmt(static_cast<long long>(r.number_or("peer", -1))),
                     r.string_or("detail", "")});
  j_table.print();

  // Per-kind counts, the one-line health summary.
  std::map<std::string, long long> by_kind;
  for (const json::Value& r : records) ++by_kind[r.string_or("kind", "?")];
  std::string counts;
  for (const auto& [k, n] : by_kind) {
    if (!counts.empty()) counts += ", ";
    counts += k + "=" + Table::fmt(n);
  }
  std::printf("by kind: %s\n", counts.c_str());
  return 0;
}

int run_timeline(Args& a) {
  const std::string path = a.flag("timeseries").str();
  const std::string journal_path = a.flag("journal").str();
  const std::string perfetto_path = a.flag("perfetto").str();
  const auto topk = static_cast<std::size_t>(a.flag("top").num(20));
  if (!a.check()) return 2;
  if (path.empty()) {
    if (!journal_path.empty()) return print_journal(journal_path);
    std::fputs("timeline: --timeseries=FILE and/or --journal=FILE is "
               "required\n",
               stderr);
    return 2;
  }

  const json::ParseResult doc = json::parse_file(path);
  if (!doc.ok) {
    std::fprintf(stderr, "timeline: %s: %s (offset %zu)\n", path.c_str(),
                 doc.error.c_str(), doc.error_pos);
    return 1;
  }
  if (doc.value.string_or("schema", "") != "narma.timeseries.v1") {
    std::fprintf(stderr, "timeline: %s: unknown timeseries schema '%s'\n",
                 path.c_str(), doc.value.string_or("schema", "").c_str());
    return 1;
  }

  const json::Array& families = doc.value["families"].as_array();
  const json::Array& windows = doc.value["windows"].as_array();
  std::printf(
      "timeseries %s: %d ranks, window=%.1f us, %lld snapshots "
      "(%lld downsampling merges) -> %zu windows\n",
      path.c_str(), static_cast<int>(doc.value.number_or("nranks", 0)),
      doc.value.number_or("window_ps", 0) / 1e6,
      static_cast<long long>(doc.value.number_or("snapshots", 0)),
      static_cast<long long>(doc.value.number_or("merges", 0)),
      windows.size());

  auto family_name = [&](std::size_t idx) -> std::string {
    return idx < families.size() ? families[idx].string_or("name", "?")
                                 : "?";
  };

  // Per-window rank activity: mean busy fraction across ranks plus the
  // laggard (lowest busy fraction among active ranks). Only the last
  // --top windows are tabulated; the telescoped history stays in the JSON.
  const std::size_t first_shown =
      windows.size() > topk ? windows.size() - topk : 0;
  if (first_shown > 0)
    std::printf("(showing the last %zu of %zu windows; older ones are "
                "geometrically merged)\n",
                topk, windows.size());
  // Windows carry whole-run rank sums (rank_agg) and exact deltas for the
  // sampled ranks; the mean busy fraction is the time-weighted one
  // (busy_ps_sum / total_ps_sum).
  Table win_table({"window", "t_begin_us", "t_end_us", "merged", "cells",
                   "active", "mean_busy", "min_busy", "laggard",
                   "stragglers"});
  for (std::size_t i = first_shown; i < windows.size(); ++i) {
    const json::Value& win = windows[i];
    const json::Value& ag = win["rank_agg"];
    const double tot = ag.number_or("total_ps_sum", 0);
    win_table.add_row(
        {Table::fmt(static_cast<long long>(i)),
         Table::fmt(win.number_or("t_begin_ps", 0) / 1e6),
         Table::fmt(win.number_or("t_end_ps", 0) / 1e6),
         Table::fmt(static_cast<long long>(win.number_or("merged", 1))),
         Table::fmt(win["cells"].as_array().size()),
         Table::fmt(static_cast<long long>(ag.number_or("active", 0))),
         Table::fmt(tot > 0 ? ag.number_or("busy_ps_sum", 0) / tot : 0.0),
         Table::fmt(ag.number_or("min_busy", 0)),
         Table::fmt(static_cast<long long>(ag.number_or("min_rank", -1))),
         Table::fmt(static_cast<long long>(ag.number_or("stragglers", 0)))});
  }
  std::printf("\nper-window rank activity:\n");
  win_table.print();

  // Busiest counter families by total delta across all windows and ranks.
  std::map<std::string, double> fam_totals;
  for (const json::Value& win : windows)
    for (const json::Value& c : win["cells"].as_array()) {
      const auto idx = static_cast<std::size_t>(c.number_or("family", 0));
      if (idx >= families.size()) continue;
      const std::string kind = families[idx].string_or("kind", "");
      if (kind == "counter")
        fam_totals[family_name(idx)] += c.number_or("delta", 0);
      else if (kind == "histogram")
        fam_totals[family_name(idx)] += c.number_or("delta_count", 0);
    }
  std::vector<std::pair<std::string, double>> ranked(fam_totals.begin(),
                                                     fam_totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return x.second > y.second || (x.second == y.second && x.first < y.first);
  });
  Table fam_table({"family", "total over run"});
  for (std::size_t i = 0; i < std::min<std::size_t>(topk, ranked.size()); ++i)
    fam_table.add_row({ranked[i].first,
                       Table::fmt(static_cast<long long>(ranked[i].second))});
  std::printf("\nbusiest families (counters + histogram counts):\n");
  fam_table.print();

  // Model residuals: measured channel latency vs the LogGP prediction of
  // the backend that carried each sampled message, grouped per window.
  const json::Array& residuals = doc.value["residuals"].as_array();
  if (!residuals.empty()) {
    Table res_table({"window", "backend", "msgs", "model_ns", "residual_ns",
                     "max_|resid|_ns", "flag"});
    for (const json::Value& r : residuals)
      res_table.add_row(
          {Table::fmt(static_cast<long long>(r.number_or("window", 0))),
           r.string_or("backend", "?"),
           Table::fmt(static_cast<long long>(r.number_or("msgs", 0))),
           Table::fmt(r.number_or("mean_model_ps", 0) / 1e3),
           Table::fmt(r.number_or("mean_residual_ps", 0) / 1e3),
           Table::fmt(r.number_or("max_abs_residual_ps", 0) / 1e3),
           r["flagged"].as_bool() ? "FLAGGED" : ""});
    std::printf("\nmodel residuals (measured - LogGP per backend):\n");
    res_table.print();
  }

  // Flagged anomalies (stragglers, flagged residual groups).
  const json::Array& anomalies = doc.value["anomalies"].as_array();
  if (!anomalies.empty()) {
    Table an_table({"window", "kind", "rank", "detail"});
    for (const json::Value& an : anomalies)
      an_table.add_row(
          {Table::fmt(static_cast<long long>(an.number_or("window", 0))),
           an.string_or("kind", "?"),
           Table::fmt(static_cast<long long>(an.number_or("rank", -1))),
           an.string_or("detail", "")});
    std::printf("\nanomalies (%zu):\n", anomalies.size());
    an_table.print();
  } else {
    std::printf("\nanomalies: none\n");
  }

  // Perfetto counter tracks: one counter event per (family, row) at each
  // window end, same event shape as the live Tracer's gauge tracks, plus a
  // busy-fraction track per sampled rank.
  if (!perfetto_path.empty()) {
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string& fields) {
      if (!first) out += ',';
      first = false;
      out += '{';
      out += fields;
      out += '}';
    };
    char buf[256];
    for (const json::Value& win : windows) {
      const double ts_us = win.number_or("t_end_ps", 0) / 1e6;
      for (const json::Value& r : win["sampled_ranks"].as_array()) {
        const double tot = r.number_or("total_ps", 0);
        const auto rank = static_cast<long long>(r.number_or("rank", 0));
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"C\",\"pid\":0,\"tid\":%lld,\"name\":"
                      "\"ts.busy_frac\",\"ts\":%.3f,\"args\":{\"value\":%.17g}",
                      rank, ts_us,
                      tot > 0 ? r.number_or("busy_ps", 0) / tot : 0.0);
        emit(buf);
      }
      for (const json::Value& c : win["cells"].as_array()) {
        const auto idx = static_cast<std::size_t>(c.number_or("family", 0));
        const std::string kind =
            idx < families.size() ? families[idx].string_or("kind", "") : "";
        const double v = kind == "counter"     ? c.number_or("delta", 0)
                         : kind == "gauge"     ? c.number_or("value", 0)
                         : c.number_or("delta_count", 0);
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"C\",\"pid\":0,\"tid\":%lld,\"name\":"
                      "\"ts.%s\",\"ts\":%.3f,\"args\":{\"value\":%.17g}",
                      static_cast<long long>(c.number_or("rank", 0)),
                      family_name(idx).c_str(), ts_us, v);
        emit(buf);
      }
    }
    out += "]}";
    std::FILE* f = std::fopen(perfetto_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "timeline: cannot write %s\n", perfetto_path.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("\nwrote Perfetto counter tracks to %s\n", perfetto_path.c_str());
  }
  if (!journal_path.empty()) return print_journal(journal_path);
  return 0;
}

int run_pingpong(Args& a) {
  RunParams p = read_knobs(a, false);
  const int ranks = a.flag("ranks").i32(2);
  const std::size_t bytes = static_cast<std::size_t>(a.flag("bytes").num(8));
  const int reps = a.flag("reps").i32(100);
  const std::string scheme = a.flag("scheme").choice({"na", "mp", "os"});
  if (a.flag("intranode").on()) p.world.fabric.ranks_per_node = ranks;
  const Sinks sinks(a);
  if (!a.check()) return 2;
  NARMA_CHECK(ranks == 2) << "pingpong needs exactly 2 ranks";

  World world(2, p.world);
  sinks.enable(world);

  std::vector<double> samples;
  world.run([&](Rank& self) {
    const int partner = 1 - self.id();
    auto win = self.win_allocate(2 * bytes + 16, 1);
    std::vector<std::byte> buf(bytes, std::byte{1});
    auto req = self.na().notify_init(*win, na::MatchSpec{partner, 9}, 1);
    for (int r = 0; r < reps + 2; ++r) {
      self.barrier();
      const Time t0 = self.now();
      auto ping_pong_na = [&](bool first) {
        if (first) {
          self.na().put_notify(*win, na::as_bytes(buf.data(), bytes), partner, 0, 9);
          win->flush(partner);
          self.na().start(req);
          self.na().wait(req);
        } else {
          self.na().start(req);
          self.na().wait(req);
          self.na().put_notify(*win, na::as_bytes(buf.data(), bytes), partner, bytes, 9);
          win->flush(partner);
        }
      };
      auto ping_pong_mp = [&](bool first) {
        if (first) {
          self.send(buf.data(), bytes, partner, 9);
          self.recv(buf.data(), bytes, partner, 9);
        } else {
          self.recv(buf.data(), bytes, partner, 9);
          self.send(buf.data(), bytes, partner, 9);
        }
      };
      auto ping_pong_os = [&](bool first) {
        std::array<int, 1> grp{partner};
        if (first) {
          win->start(grp);
          win->put(buf.data(), bytes, partner, 0);
          win->complete();
          win->post(grp);
          win->wait();
        } else {
          win->post(grp);
          win->wait();
          win->start(grp);
          win->put(buf.data(), bytes, partner, bytes);
          win->complete();
        }
      };
      const bool first = self.id() == 0;
      if (scheme == "mp") {
        ping_pong_mp(first);
      } else if (scheme == "os") {
        ping_pong_os(first);
      } else {
        ping_pong_na(first);
      }
      if (self.id() == 0 && r >= 2)
        samples.push_back(to_us(self.now() - t0) / 2.0);
    }
    self.barrier();
  });
  std::printf("pingpong scheme=%s bytes=%zu reps=%d half_rtt_us=%.3f\n",
              scheme.c_str(), bytes, reps, stats::median(samples));
  sinks.dump(world);
  return 0;
}

int run_stencil(Args& a) {
  const RunParams p = read_knobs(a, true);
  const int ranks = a.flag("ranks").i32(4);
  apps::StencilConfig cfg;
  cfg.rows = a.flag("rows").i32(256);
  cfg.total_cols = a.flag("cols").i32(1024);
  cfg.iters = a.flag("iters").i32(2);
  // Calibrated per-point compute cost in ps (0 = measure the real kernel;
  // measured runs are host-dependent, calibrated runs are bit-deterministic).
  cfg.per_point = static_cast<Time>(a.flag("per-point").num(0));
  const std::string v =
      a.flag("variant").choice({"na", "mp", "fence", "pscw"});
  cfg.variant = v == "mp"      ? apps::StencilVariant::kMessagePassing
                : v == "fence" ? apps::StencilVariant::kFence
                : v == "pscw"  ? apps::StencilVariant::kPscw
                               : apps::StencilVariant::kNotified;
  cfg.ft = p.ft;
  const Sinks sinks(a);
  if (!a.check()) return 2;
  World world(ranks, p.world);
  sinks.enable(world);
  apps::StencilResult res;
  FtRun ft_run;
  world.run([&](Rank& self) {
    const auto r = apps::run_stencil(self, cfg);
    if (self.id() == 0) res = r;
    ft_run.add(r.ft);
  });
  std::printf(
      "stencil variant=%s ranks=%d rows=%d cols=%d gmops=%.4f verified=%s\n",
      v.c_str(), ranks, cfg.rows, cfg.total_cols, res.gmops,
      res.verified ? "yes" : "NO");
  if (cfg.ft.enabled) ft_run.print("stencil", res.ft);
  sinks.dump(world);
  return res.verified ? 0 : 1;
}

int run_tree(Args& a) {
  const RunParams p = read_knobs(a, true);
  const int ranks = a.flag("ranks").i32(17);
  apps::TreeConfig cfg;
  cfg.arity = a.flag("arity").i32(16);
  cfg.elems = static_cast<std::size_t>(a.flag("elems").num(1));
  cfg.reps = a.flag("reps").i32(5);
  const std::string v =
      a.flag("variant").choice({"na", "mp", "pscw", "vendor"});
  cfg.variant = v == "mp"       ? apps::TreeVariant::kMessagePassing
                : v == "pscw"   ? apps::TreeVariant::kPscw
                : v == "vendor" ? apps::TreeVariant::kVendorReduce
                                : apps::TreeVariant::kNotified;
  cfg.ft = p.ft;
  const Sinks sinks(a);
  if (!a.check()) return 2;
  World world(ranks, p.world);
  sinks.enable(world);
  apps::TreeResult res;
  FtRun ft_run;
  world.run([&](Rank& self) {
    const auto r = apps::run_tree(self, cfg);
    if (self.id() == 0) res = r;
    ft_run.add(r.ft);
  });
  std::printf(
      "tree variant=%s ranks=%d arity=%d elems=%zu us_per_op=%.2f "
      "verified=%s\n",
      v.c_str(), ranks, cfg.arity, cfg.elems, res.per_op_us,
      res.verified ? "yes" : "NO");
  if (cfg.ft.enabled) ft_run.print("tree", res.ft);
  sinks.dump(world);
  return res.verified ? 0 : 1;
}

int run_cholesky(Args& a) {
  const RunParams p = read_knobs(a, false);
  const int ranks = a.flag("ranks").i32(4);
  apps::CholeskyConfig cfg;
  cfg.nt = a.flag("nt").i32(12);
  cfg.b = a.flag("b").i32(32);
  cfg.model_gflops = a.flag("gflops").real(10);
  const std::string v = a.flag("variant").choice({"na", "mp", "os"});
  cfg.variant = v == "mp"   ? apps::CholeskyVariant::kMessagePassing
                : v == "os" ? apps::CholeskyVariant::kOneSided
                            : apps::CholeskyVariant::kNotified;
  const Sinks sinks(a);
  if (!a.check()) return 2;
  World world(ranks, p.world);
  sinks.enable(world);
  apps::CholeskyResult res;
  world.run([&](Rank& self) {
    const auto r = apps::run_cholesky(self, cfg);
    if (self.id() == 0) res = r;
  });
  std::printf(
      "cholesky variant=%s ranks=%d nt=%d b=%d time_ms=%.3f gflops=%.3f "
      "residual=%.2e verified=%s\n",
      v.c_str(), ranks, cfg.nt, cfg.b, to_ms(res.elapsed), res.gflops,
      res.residual, res.verified ? "yes" : "NO");
  sinks.dump(world);
  return res.verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a(argc, argv);
  const std::string& cmd = a.command;
  if (cmd == "pingpong") return run_pingpong(a);
  if (cmd == "stencil") return run_stencil(a);
  if (cmd == "tree") return run_tree(a);
  if (cmd == "cholesky") return run_cholesky(a);
  if (cmd == "report") return run_report(a);
  if (cmd == "timeline") return run_timeline(a);
  if (cmd == "critpath") return run_critpath(a);
  if (cmd == "diff") return run_diff(a);
  return usage();
}
