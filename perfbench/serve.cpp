// serve-incast: an open-loop request/reply service built only from the
// public Notified Access API.
//
// Roles (ranks_per_node = 8, so some traffic is intra-node shared memory
// and the rest crosses the inter-node fabric):
//  * 16 servers, spread one per 33 ranks.
//  * 256 generators. Each follows its own seeded Poisson schedule (open in
//    virtual time: a request is issued when it is due, whatever the state
//    of earlier ones) and put_notifies the request payload into a slot of
//    the chosen server's window. Sizes mix 8 B (shm-inline / FMA), 256 B
//    (shm non-inline / FMA) and 8 KiB (shm / BTE).
//  * 256 collectors, one paired with each generator. The server replies to
//    the collector with a notified put of {request id, payload checksum};
//    the collector blocks in wait, so it observes each reply when it lands.
//
// Two priority classes travel on two windows. A server polls the
// high-class request first, then the low-class one, then blocks in
// wait_any(high, low): draining for the high-class request parks low-class
// notifications in the indexed unexpected queue, which is where core
// matching does its work in this workload.
//
// Latency is timed from when a request was due, not from when it was
// issued, so a generator that falls behind shows up in the latency too;
// its lag is reported separately.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

using namespace narma;

constexpr int kServers = 16;
constexpr int kGenerators = 256;
constexpr int kRanks = kServers + 2 * kGenerators;  // 528
constexpr int kServerStride = kRanks / kServers;    // 33
constexpr int kRanksPerNode = 8;
/// Length of every generator's arrival schedule (virtual time). A fixed
/// horizon, not a fixed count, keeps the offered load stationary to the end,
/// so the first and last tenth of requests see the same load.
constexpr Time kHorizon = us(14000);
/// Offered load, requests per virtual second over all generators. A server
/// spends about 0.9 us per request (match, checksum, reply), so 16 servers
/// saturate near 17 M/s; this offers roughly 55% of that.
constexpr double kOfferedPerSec = 9.5e6;
// The traffic mix is a chosen assumption, not a measured production trace:
// the repository holds no request trace and no source gives one. Each share
// is picked for what it makes the simulator exercise; perfbench/README.md
// gives the split each share produced on the default seed.
//
/// Share of requests in the high-priority class. A minority, so that the
/// server's first poll (high) usually finds nothing of its own class and
/// drains the pending low-class notifications into the unexpected queue,
/// where the second poll (low) then matches them.
constexpr double kHighShare = 0.25;
/// Request sizes, one per notification path the model tells apart: 8 B
/// fits the 32 B shared-memory inline slot (FMA off-node), 256 B is a
/// non-inline shared-memory commit (FMA off-node), and 8 KiB is at or above
/// the 4 KiB FMA/BTE threshold (BTE off-node).
constexpr std::size_t kSizes[3] = {8, 256, 8192};
/// Their shares: most requests small, most bytes large. Half of the
/// requests are 8 B, so per-message costs (matching, notification
/// handling) dominate the message count; 15 % are 8 KiB, which still
/// carries over 90 % of the bytes, so the BTE lane and the per-byte
/// checksum charge stay in the measured work.
constexpr double kSizeShare[3] = {0.50, 0.35, 0.15};
/// Span names of the generator's put_notify, one per size class, so the
/// traced report gives host time per notification path.
constexpr const char* kPutSpan[3] = {"put_notify.req_8B", "put_notify.req_256B",
                                     "put_notify.req_8KiB"};
constexpr const char* kSizeName[3] = {"8B", "256B", "8KiB"};
constexpr std::size_t kSlotBytes = 8192;
/// Slots per (generator, server, class): a generator reuses a server slot
/// after three further requests to the same server and class. At this load
/// those are about half a millisecond apart on average, against latencies
/// of tens of microseconds; two slots were overrun a few times per run. An
/// overrun slot fails the reply's checksum check.
constexpr int kSlotsPerPair = 4;
/// Reply slots per collector (16 B each).
constexpr int kReplySlots = 256;
constexpr std::size_t kReplyBytes = 16;
/// Source buffers per generator / reply buffers per server, reused only
/// after a flush to the target they were last sent to.
constexpr int kGenBufs = 16;
constexpr int kReplyBufs = 64;
/// Modelled server work per request: a base cost plus a per-byte checksum.
constexpr Time kServeBase = ns(200);
constexpr double kServePsPerByte = 250;  // 0.25 ns per byte
/// The p99 latency limit behind slo_miss_frac: four times the latency of an
/// 8 KiB request on an idle server (about 2.6 us of modelled service plus
/// 2.8 us on the wire for the BTE request and the FMA reply), i.e. what a
/// request sees when it waits behind a few others. Fixed here so a change
/// cannot move it.
constexpr double kSloUs = 22.0;
/// A request issued more than this after its due time counts as late.
constexpr Time kLateAfter = us(1);
/// serve-incast fails its own check when the median latency of the last
/// tenth of requests exceeds the first tenth's by this factor (a growing
/// backlog: the offered rate is above capacity).
constexpr double kBacklogLimit = 1.5;

enum class Role : std::uint8_t { kServer, kGenerator, kCollector };

struct Layout {
  Role role;
  int index;  // server index, or generator index (shared by its collector)
};

Layout layout_of(int rank) {
  if (rank % kServerStride == 0 && rank / kServerStride < kServers)
    return {Role::kServer, rank / kServerStride};
  const int servers_before = std::min(kServers, rank / kServerStride + 1);
  const int i = rank - servers_before;  // index among non-server ranks
  return {i % 2 == 0 ? Role::kGenerator : Role::kCollector, i / 2};
}

struct Ranks {
  std::vector<int> server, generator, collector;
  Ranks() : server(kServers), generator(kGenerators), collector(kGenerators) {
    for (int r = 0; r < kRanks; ++r) {
      const Layout l = layout_of(r);
      if (l.role == Role::kServer) server[l.index] = r;
      if (l.role == Role::kGenerator) generator[l.index] = r;
      if (l.role == Role::kCollector) collector[l.index] = r;
    }
  }
};

struct Request {
  Time due = 0;  // offset from the generator's start; absolute once issued
  std::uint32_t bytes = 0;
  std::uint16_t server = 0;
  std::uint8_t high = 0;
  std::uint8_t size_class = 0;  // index into kSizes
  std::uint8_t slot = 0;  // server slot within (generator, server, class)
  std::uint64_t checksum = 0;
  // Filled in by the run.
  Time issued = 0;
  Time replied = 0;
  bool done = false;
};

std::uint64_t request_id(int gen, int seq) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         static_cast<std::uint32_t>(seq);
}

/// Payload of a request: its id, then a pattern derived from it.
void fill_payload(std::uint64_t id, std::span<std::uint64_t> words) {
  std::uint64_t x = id;
  words[0] = id;
  for (std::size_t i = 1; i < words.size(); ++i) words[i] = x = mix64(x);
}

/// Position-sensitive 64-bit checksum the server echoes.
std::uint64_t checksum(std::span<const std::uint64_t> words) {
  std::uint64_t h = words.size();
  for (std::size_t i = 0; i < words.size(); ++i) h += words[i] * (2 * i + 1);
  return h;
}

double uniform(std::uint64_t& state) {
  state = mix64(state);
  return static_cast<double>(state >> 11) * 0x1.0p-53;
}

/// The seeded input: every generator's arrival schedule, sizes, server
/// choices and classes. Built before the run; the program only receives it.
std::vector<std::vector<Request>> make_schedule(std::uint64_t seed) {
  std::vector<std::vector<Request>> sched(kGenerators);
  const double mean_gap_ps = 1e12 * kGenerators / kOfferedPerSec;
  for (int g = 0; g < kGenerators; ++g) {
    std::uint64_t st = mix64(seed ^ (0x9e3779b97f4a7c15ull * (g + 1)));
    std::vector<int> next_slot(2 * kServers, 0);
    double t = -std::log(1.0 - uniform(st)) * mean_gap_ps;
    std::vector<std::uint64_t> words(kSlotBytes / 8);
    for (int j = 0; t < static_cast<double>(kHorizon); ++j) {
      Request& q = sched[g].emplace_back();
      q.due = static_cast<Time>(t);
      t += -std::log(1.0 - uniform(st)) * mean_gap_ps;
      // Uniform over servers: every server sees the same offered load, so
      // the capacity margin holds for each one and no hot server backs up.
      q.server = static_cast<std::uint16_t>(uniform(st) * kServers);
      q.high = uniform(st) < kHighShare ? 1 : 0;
      const double u = uniform(st);
      q.size_class = u < kSizeShare[0] ? 0 : u < kSizeShare[0] + kSizeShare[1] ? 1 : 2;
      q.bytes = static_cast<std::uint32_t>(kSizes[q.size_class]);
      int& slot = next_slot[2 * q.server + q.high];
      q.slot = static_cast<std::uint8_t>(slot);
      slot = (slot + 1) % kSlotsPerPair;
      const std::span<std::uint64_t> w(words.data(), q.bytes / 8);
      fill_payload(request_id(g, j), w);
      q.checksum = checksum(w);
    }
  }
  return sched;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Shared {
  const Ranks& ranks;
  std::vector<std::vector<Request>>& sched;
  std::vector<int> expected;  // requests per server
  Result& r;
  std::uint64_t setup_end_host = 0;  // wall clock when set-up ended
  std::uint64_t setup_end_cpu = 0;   // CPU time then
  std::uint64_t bad_messages = 0;
  std::vector<std::string> notes;
};

std::uint64_t slot_offset(int gen, int slot) {
  return (static_cast<std::uint64_t>(gen) * kSlotsPerPair +
          static_cast<std::uint64_t>(slot)) *
         kSlotBytes;
}

void generator_main(Rank& self, Shared& sh, int g, rma::Window& hi,
                    rma::Window& lo) {
  std::vector<std::uint64_t> bufs(kGenBufs * kSlotBytes / 8);
  struct Last {
    rma::Window* win = nullptr;
    int target = -1;
  };
  std::vector<Last> last(kGenBufs);
  Spans& sp = sh.r.spans;
  // The schedule starts when set-up ends on this generator.
  const Time start = self.now();
  for (int j = 0; j < static_cast<int>(sh.sched[g].size()); ++j) {
    Request& q = sh.sched[g][j];
    q.due += start;
    if (self.now() < q.due) self.ctx().yield_until(q.due, "serve-arrival");
    const int b = j % kGenBufs;
    if (last[b].win) {
      const std::int32_t s = sp.open("flush", "rma", self.id(), -1,
                                     request_id(g, j), self.now(), true);
      last[b].win->flush(last[b].target);
      sp.close(s, self.now());
    }
    const std::span<std::uint64_t> w(&bufs[b * kSlotBytes / 8], q.bytes / 8);
    fill_payload(request_id(g, j), w);
    rma::Window& win = q.high ? hi : lo;
    const int target = sh.ranks.server[q.server];
    q.issued = self.now();
    const std::int32_t s = sp.open(kPutSpan[q.size_class], "core", self.id(),
                                   -1, request_id(g, j), self.now(), false);
    self.na().put_notify(win, std::as_bytes(w), target, slot_offset(g, q.slot),
                         q.slot);
    sp.close(s, self.now());
    last[b] = {&win, target};
  }
  hi.flush_all();
  lo.flush_all();
}

void server_main(Rank& self, Shared& sh, int s, rma::Window& hi,
                 rma::Window& lo, rma::Window& reply) {
  na::NaEngine& na = self.na();
  na::NotifyRequest rq_hi = na.notify_init(hi, na::MatchSpec::any(), 1);
  na::NotifyRequest rq_lo = na.notify_init(lo, na::MatchSpec::any(), 1);
  na.start(rq_hi);
  na.start(rq_lo);
  na::NotifyRequest* reqs[2] = {&rq_hi, &rq_lo};
  rma::Window* wins[2] = {&hi, &lo};
  std::vector<std::uint64_t> out(kReplyBufs * 2);
  std::vector<std::uint64_t> payload(kSlotBytes / 8);
  std::vector<int> out_target(kReplyBufs, -1);
  Spans& sp = sh.r.spans;
  obs::Profiler* prof = self.world().profiler();
  for (int served = 0; served < sh.expected[s]; ++served) {
    na::NaStatus st;
    std::size_t idx = 2;
    std::int32_t match_span = -1;
    // Poll high, then low, then block on both (high wins ties).
    for (std::size_t k = 0; k < 2 && idx == 2; ++k) {
      const std::int32_t t =
          sp.open("test", "core", self.id(), -1, 0, self.now(), false);
      if (na.test(*reqs[k], &st)) {
        idx = k;
        match_span = t;
      }
      sp.close(t, self.now());
    }
    if (idx == 2) {
      match_span =
          sp.open("wait_any", "core", self.id(), -1, 0, self.now(), true);
      idx = na.wait_any(std::span<na::NotifyRequest*>(reqs, 2), &st);
      sp.close(match_span, self.now());
    }
    const Layout src = layout_of(st.source);
    const auto* base = static_cast<const std::byte*>(wins[idx]->base());
    std::uint64_t id = 0, sum = 0;
    if (src.role == Role::kGenerator && st.tag >= 0 && st.tag < kSlotsPerPair &&
        st.bytes % 8 == 0 && st.bytes >= 8 && st.bytes <= kSlotBytes) {
      obs::PhaseScope app(prof, obs::Phase::kAppCompute);
      std::memcpy(payload.data(), base + slot_offset(src.index, st.tag),
                  st.bytes);
      id = payload[0];
      sum = checksum({payload.data(), st.bytes / 8});
    } else {
      ++sh.bad_messages;
      if (sh.notes.size() < 8)
        sh.notes.push_back("server " + std::to_string(s) +
                           " got a malformed request from rank " +
                           std::to_string(st.source));
    }
    if (match_span >= 0) sp.set_req(match_span, id);
    self.compute(kServeBase +
                 static_cast<Time>(kServePsPerByte * static_cast<double>(st.bytes)));
    const int gen = static_cast<int>(id >> 32);
    const auto seq = static_cast<std::uint32_t>(id);
    const int collector =
        gen >= 0 && gen < kGenerators ? sh.ranks.collector[gen] : sh.ranks.collector[0];
    const int b = served % kReplyBufs;
    if (out_target[b] >= 0) {
      const std::int32_t f =
          sp.open("flush", "rma", self.id(), -1, id, self.now(), true);
      reply.flush(out_target[b]);
      sp.close(f, self.now());
    }
    out[2 * b] = id;
    out[2 * b + 1] = sum;
    const int rslot = static_cast<int>(seq % kReplySlots);
    const std::int32_t p =
        sp.open("put_notify.reply", "core", self.id(), -1, id, self.now(),
                false);
    na.put_notify(reply, std::as_bytes(std::span(&out[2 * b], 2)), collector,
                  static_cast<std::uint64_t>(rslot) * kReplyBytes, rslot);
    sp.close(p, self.now());
    out_target[b] = collector;
    na.start(*reqs[idx]);
  }
  reply.flush_all();
  na.free(rq_hi);
  na.free(rq_lo);
}

void collector_main(Rank& self, Shared& sh, int g, rma::Window& reply) {
  na::NaEngine& na = self.na();
  na::NotifyRequest rq = na.notify_init(reply, na::MatchSpec::any(), 1);
  const auto* base = static_cast<const std::byte*>(reply.base());
  std::vector<Request>& mine = sh.sched[g];
  Spans& sp = sh.r.spans;
  for (std::size_t n = 0; n < mine.size(); ++n) {
    na.start(rq);
    na::NaStatus st;
    const std::int32_t w =
        sp.open("wait", "core", self.id(), -1, 0, self.now(), true);
    na.wait(rq, &st);
    sp.close(w, self.now());
    std::uint64_t msg[2] = {0, 0};
    if (st.tag >= 0 && st.tag < kReplySlots)
      std::memcpy(msg, base + static_cast<std::size_t>(st.tag) * kReplyBytes,
                  sizeof msg);
    sp.set_req(w, msg[0]);
    const int gen = static_cast<int>(msg[0] >> 32);
    const auto seq = static_cast<std::uint32_t>(msg[0]);
    const bool ok = gen == g && seq < mine.size() &&
                    static_cast<int>(seq % kReplySlots) == st.tag &&
                    !mine[seq].done && mine[seq].checksum == msg[1];
    if (!ok) {
      ++sh.bad_messages;
      if (sh.notes.size() < 8)
        sh.notes.push_back("collector " + std::to_string(g) +
                           " got a bad reply for id " +
                           std::to_string(msg[0]));
      continue;
    }
    mine[seq].done = true;
    mine[seq].replied = self.now();
  }
  na.free(rq);
}

}  // namespace

void run_serve_incast(Result& r, Plan plan) {
  const Ranks ranks;
  std::vector<std::vector<Request>> sched = make_schedule(r.seed);
  std::uint64_t total = 0;
  for (const auto& gen : sched) total += gen.size();
  // One check per request (echoed id and checksum, completed), plus the
  // backlog check and the ft-idle check.
  plan(total + 2);

  WorldParams wp;
  wp.fabric.ranks_per_node = kRanksPerNode;

  Shared sh{ranks, sched, std::vector<int>(kServers, 0), r, 0, 0, 0, {}};
  for (const auto& gen : sched)
    for (const Request& q : gen) ++sh.expected[q.server];

  r.spans.reserve(total * 5);
  // Set-up is World construction, window allocation and the barrier after
  // it; the traffic phase follows the barrier.
  const std::uint64_t rss0 = vm_rss_kib();
  const std::uint64_t c0 = cpu_ns();
  {
    World world(kRanks, wp);
    const std::uint64_t ctor_ns = cpu_ns() - c0;
    const std::uint64_t rss_ctor = vm_rss_kib();
    if (r.traced) world.enable_profiling();
    const std::uint64_t run0 = host_ns();
    const std::uint64_t run0_cpu = cpu_ns();
    world.run([&](Rank& self) {
      const Layout l = layout_of(self.id());
      const std::size_t data_bytes =
          l.role == Role::kServer ? kGenerators * kSlotsPerPair * kSlotBytes : 8;
      const std::size_t reply_bytes =
          l.role == Role::kCollector ? kReplySlots * kReplyBytes : 8;
      const std::int32_t a = r.spans.open("win_allocate", "rma", self.id(), -1,
                                          0, self.now(), true);
      auto hi = self.win_allocate(data_bytes);
      auto lo = self.win_allocate(data_bytes);
      auto reply = self.win_allocate(reply_bytes);
      r.spans.close(a, self.now());
      self.barrier();
      // Every rank passes here after the barrier; the first one ends set-up.
      if (sh.setup_end_host == 0) {
        sh.setup_end_host = host_ns();
        sh.setup_end_cpu = cpu_ns();
      }
      switch (l.role) {
        case Role::kServer: server_main(self, sh, l.index, *hi, *lo, *reply); break;
        case Role::kGenerator: generator_main(self, sh, l.index, *hi, *lo); break;
        case Role::kCollector: collector_main(self, sh, l.index, *reply); break;
      }
      self.barrier();
    });
    const std::uint64_t run_end = host_ns();
    const std::uint64_t run_end_cpu = cpu_ns();
    const std::uint64_t win_ns = sh.setup_end_cpu - run0_cpu;
    r.setup_cpu_s = static_cast<double>(ctor_ns + win_ns) / 1e9;
    r.extra["rma.win_allocate_s"] = static_cast<double>(win_ns) / 1e9;
    // run_s is the traffic phase alone; its set-up is in setup_s.
    r.run_cpu_ns += run_end_cpu - sh.setup_end_cpu;
    r.run_host_ns += run_end - sh.setup_end_host;
    r.peak_rss_kib = vm_hwm_kib();
    const std::uint64_t rss_run = vm_rss_kib();
    r.layers.world_rss_kib += rss_ctor > rss0 ? rss_ctor - rss0 : 0;
    r.layers.run_rss_kib += rss_run > rss_ctor ? rss_run - rss_ctor : 0;
    r.layers.add_world(world);
    Time makespan = 0;
    for (int i = 0; i < kRanks; ++i)
      makespan = std::max(makespan, world.engine().rank(i).now());
    // Server utilisation: busy (not blocked) share of each server's virtual
    // time, averaged; the offered load should keep it well below 1.
    double busy = 0;
    for (int srv : sh.ranks.server) {
      const sim::RankCtx& c = world.engine().rank(srv);
      busy += static_cast<double>(c.now() - c.blocked_time()) /
              static_cast<double>(c.now());
    }
    r.extra["bench.server_busy_frac"] = busy / kServers;
    r.virt["virt_ms"] = to_ms(makespan);
    r.digest.add(makespan);
  }

  // Checks and latency statistics, in request order.
  std::vector<double> lat_us, lag_us;
  lat_us.reserve(total);
  lag_us.reserve(total);
  std::vector<std::pair<Time, double>> by_due;
  by_due.reserve(total);
  // Latency by size class and by priority class: the time each path takes.
  std::vector<double> lat_by_size[3], lat_by_class[2];
  std::uint64_t bytes_by_size[3] = {0, 0, 0};
  std::uint64_t slo_miss = 0, late = 0;
  for (int g = 0; g < kGenerators; ++g) {
    for (int j = 0; j < static_cast<int>(sched[g].size()); ++j) {
      const Request& q = sched[g][j];
      check(r, q.done,
            "request " + std::to_string(request_id(g, j)) + " never completed");
      r.digest.add(q.done ? q.replied - q.due : ~0ull);
      r.digest.add(q.issued - q.due);
      if (!q.done) {
        ++slo_miss;
        continue;
      }
      const double l = to_us(q.replied - q.due);
      lat_us.push_back(l);
      by_due.emplace_back(q.due, l);
      lat_by_size[q.size_class].push_back(l);
      lat_by_class[q.high].push_back(l);
      bytes_by_size[q.size_class] += q.bytes;
      lag_us.push_back(to_us(q.issued - q.due));
      if (l > kSloUs) ++slo_miss;
      if (q.issued - q.due > kLateAfter) ++late;
    }
  }
  for (const std::string& n : sh.notes) check(r, false, n);
  check_ft_idle(r);
  std::sort(by_due.begin(), by_due.end());
  const std::size_t tenth = by_due.size() / 10;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < tenth; ++i) {
    first.push_back(by_due[i].second);
    last.push_back(by_due[by_due.size() - 1 - i].second);
  }
  const double backlog = median(first) > 0 ? median(last) / median(first) : 0;
  check(r, backlog > 0 && backlog <= kBacklogLimit,
        "backlog grows: late/early median latency ratio " +
            std::to_string(backlog));

  const double n = static_cast<double>(total);
  r.virt["req_p50_us"] = quantile(lat_us, 0.50);
  r.virt["req_p99_us"] = quantile(lat_us, 0.99);
  r.virt["req_p999_us"] = quantile(lat_us, 0.999);
  r.virt["slo_miss_frac"] = static_cast<double>(slo_miss) / n;
  r.extra["bench.requests"] = n;
  r.extra["ranks"] = kRanks;
  r.extra["latency_samples"] = static_cast<double>(lat_us.size());
  r.extra["slo_us"] = kSloUs;
  r.extra["bench.gen_lag_us_p99"] = quantile(lag_us, 0.99);
  r.extra["bench.late_frac"] = static_cast<double>(late) / n;
  r.extra["bench.backlog_ratio"] = backlog;
  r.extra["bad_messages"] = static_cast<double>(sh.bad_messages);

  // What the mix made the simulator do: per size class its share of the
  // requests and bytes and its latency, per priority class its latency,
  // the unexpected-queue inserts per request, and the bytes per lane.
  const double all_bytes = static_cast<double>(
      bytes_by_size[0] + bytes_by_size[1] + bytes_by_size[2]);
  for (int k = 0; k < 3; ++k) {
    const std::string c = std::string("mix.") + kSizeName[k];
    r.extra[c + ".req_frac"] = static_cast<double>(lat_by_size[k].size()) / n;
    r.extra[c + ".byte_frac"] =
        static_cast<double>(bytes_by_size[k]) / all_bytes;
    r.extra[c + ".p50_us"] = quantile(lat_by_size[k], 0.50);
    r.extra[c + ".p99_us"] = quantile(lat_by_size[k], 0.99);
  }
  for (int h = 0; h < 2; ++h) {
    const std::string c = h ? "mix.high" : "mix.low";
    r.extra[c + ".req_frac"] = static_cast<double>(lat_by_class[h].size()) / n;
    r.extra[c + ".p99_us"] = quantile(lat_by_class[h], 0.99);
  }
  r.extra["mix.uq_inserts_per_req"] =
      static_cast<double>(r.layers.na_uq_inserts) / n;
  const LayerAcc& a = r.layers;
  for (std::size_t i = 0; i < a.lane_names.size(); ++i)
    if (a.lane_ops[i] > 0) {
      const std::string c = std::string("mix.lane.") + a.lane_names[i];
      r.extra[c + "_ops"] = static_cast<double>(a.lane_ops[i]);
      r.extra[c + "_bytes"] = static_cast<double>(a.lane_bytes[i]);
    }
}

}  // namespace perfbench
