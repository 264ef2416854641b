// Scale-ready observability (DESIGN.md §14): full- vs partial-sample
// equivalence over randomized schedules, exact per-rank scalars against a
// shadow tally, read-time top-k outliers, the per-rank memory budget, the
// anomaly journal, and the narma.metrics.v2 dump schema.
//
// The equivalence property is the load-bearing one: shrinking the registry's
// rank sample must change neither a single virtual time (same golden
// schedule hash) nor any whole-family reduction or per-rank counter/gauge
// value (sums, active counts, high-waters, latest values and merged
// histograms are bit-identical). The default-seed loop covers
// kGoldenScheduleCountShort schedules; the full kGoldenScheduleCount run is
// the `slow`-labeled ctest entry.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "apps/stencil.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/world.hpp"
#include "golden_schedule.hpp"
#include "obs/journal.hpp"

namespace {

using namespace narma;

/// Families whose values depend on host wall clock or on the observability
/// configuration itself — excluded from full/partial-sample comparisons
/// (same exclusion the flight recorder applies to snapshots).
bool config_dependent_family(const std::string& name) {
  return name.rfind("obs.", 0) == 0 || name == "sim.run_wall_ns" ||
         name == "sim.events_per_sec";
}

/// Every whole-family reduction and per-rank scalar of a finished world's
/// registry, keyed by family name. Runs of one schedule with different rank
/// samples must produce equal maps.
struct Reductions {
  std::map<std::string, std::pair<std::uint64_t, int>> counters;  // sum, active
  // Gauge (family high-water, latest value).
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> gauges;
  // Per-rank counter totals and gauge (level, high-water), every rank.
  std::map<std::string, std::vector<std::uint64_t>> counter_ranks;
  std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>>
      gauge_ranks;
  // count, sum, min, max, log2 bucket array
  std::map<std::string,
           std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                      std::uint64_t, std::array<std::uint64_t, 64>>>
      hists;
  bool operator==(const Reductions&) const = default;
};

Reductions reduce_all(World& world) {
  Reductions red;
  obs::Registry& reg = *world.metrics();
  std::map<std::string, obs::Kind> kinds;
  reg.visit([&](const obs::Registry::CellView& v) {
    kinds.emplace(v.name, v.kind);
  });
  for (const auto& [name, kind] : kinds) {
    if (config_dependent_family(name)) continue;
    switch (kind) {
      case obs::Kind::kCounter:
        red.counters[name] = {reg.aggregate_counter_sum(name),
                              reg.aggregate_counter_active(name)};
        for (int r = 0; r < reg.nranks(); ++r)
          red.counter_ranks[name].push_back(reg.counter_value(name, r));
        break;
      case obs::Kind::kGauge:
        red.gauges[name] = {reg.aggregate_gauge_hw(name),
                            reg.aggregate_gauge_last(name)};
        for (int r = 0; r < reg.nranks(); ++r)
          red.gauge_ranks[name].push_back(
              {reg.gauge_value(name, r), reg.gauge_high_water(name, r)});
        break;
      case obs::Kind::kHistogram: {
        const obs::HistData h = reg.aggregate_hist(name);
        red.hists[name] = {h.count, h.sum, h.min, h.max, h.buckets};
        break;
      }
    }
  }
  return red;
}

void expect_equivalent_schedule(std::uint64_t seed) {
  Reductions full, part;
  const std::uint64_t h_full = golden::schedule_hash_with(
      seed, golden::ObsOverride::kFullSample,
      [&](World& w) { full = reduce_all(w); });
  const std::uint64_t h_part = golden::schedule_hash_with(
      seed, golden::ObsOverride::kPartialSample,
      [&](World& w) { part = reduce_all(w); });
  ASSERT_EQ(h_full, h_part) << "virtual time diverged at seed " << seed;
  ASSERT_FALSE(full.counters.empty()) << "no counters at seed " << seed;
  ASSERT_EQ(full.counters, part.counters) << "counter sums, seed " << seed;
  ASSERT_EQ(full.gauges, part.gauges) << "gauge reductions, seed " << seed;
  ASSERT_EQ(full.counter_ranks, part.counter_ranks)
      << "per-rank counters, seed " << seed;
  ASSERT_EQ(full.gauge_ranks, part.gauge_ranks)
      << "per-rank gauges, seed " << seed;
  ASSERT_EQ(full.hists, part.hists) << "histograms, seed " << seed;
}

TEST(ObsAggregate, DenseEquivalenceShort) {
  for (std::uint64_t s = 1; s <= golden::kGoldenScheduleCountShort; ++s)
    expect_equivalent_schedule(s);
}

TEST(ObsAggregateSlow, DenseEquivalenceFull) {
  for (std::uint64_t s = 1; s <= golden::kGoldenScheduleCount; ++s)
    expect_equivalent_schedule(s);
}

// The sample override must not perturb the seeded configuration draw: a
// kNone run still reproduces the committed golden fold.
TEST(ObsAggregate, GoldenDrawSequenceUnchanged) {
  ASSERT_EQ(golden::all_schedules_hash(golden::kGoldenScheduleCountShort),
            golden::kGoldenScheduleHashShort);
}

// --- exact per-rank scalars -------------------------------------------------

// Random counter, gauge set/add and histogram updates over 64 ranks with a
// 4-rank sample: every rank's counter total, gauge level and high-water —
// sampled or not — must equal a shadow tally kept beside the registry.
TEST(ObsAggregate, PerRankScalarsMatchShadowTally) {
  obs::ObsParams p;
  p.sample_ranks = 4;
  constexpr int kRanks = 64;
  obs::Registry reg(kRanks, p);
  ASSERT_EQ(reg.sampled_ranks(), (std::vector<int>{0, 16, 32, 48}));
  std::map<int, std::uint64_t> totals;
  std::map<int, std::pair<std::int64_t, std::int64_t>> gauges;  // level, hw
  std::map<int, std::uint64_t> hmax;
  std::int64_t last = 0;
  Xoshiro256 rng(12345);
  for (int step = 0; step < 20000; ++step) {
    const int r = static_cast<int>(rng.next_below(kRanks));
    const Time at = static_cast<Time>(step);
    switch (rng.next_below(4)) {
      case 0: {
        const std::uint64_t n = rng.next_below(100);
        reg.counter("t.c", r).inc(n);
        totals[r] += n;
        break;
      }
      case 1: {
        const auto v = static_cast<std::int64_t>(rng.next_below(1000)) - 200;
        reg.gauge("t.g", r).set(v, at);
        gauges[r].first = v;
        gauges[r].second = std::max(gauges[r].second, v);
        last = v;
        break;
      }
      case 2: {
        const auto d = static_cast<std::int64_t>(rng.next_below(21)) - 10;
        reg.gauge("t.g", r).add(d, at);
        gauges[r].first += d;
        gauges[r].second = std::max(gauges[r].second, gauges[r].first);
        last = gauges[r].first;
        break;
      }
      default: {
        const std::uint64_t v = rng.next_below(1u << 20);
        reg.histogram("t.h", r).record(v);
        hmax[r] = std::max(hmax[r], v);
        break;
      }
    }
  }
  std::uint64_t sum = 0;
  std::int64_t hw = 0;
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(reg.counter_value("t.c", r), totals[r]) << "rank " << r;
    EXPECT_EQ(reg.gauge_value("t.g", r), gauges[r].first) << "rank " << r;
    EXPECT_EQ(reg.gauge_high_water("t.g", r), gauges[r].second)
        << "rank " << r;
    EXPECT_EQ(reg.gauge("t.g", r).high_water(), gauges[r].second);
    EXPECT_EQ(reg.hist_data("t.h", r) != nullptr, r % 16 == 0)
        << "rank " << r;
    sum += totals[r];
    hw = std::max(hw, gauges[r].second);
  }
  EXPECT_EQ(reg.aggregate_counter_sum("t.c"), sum);
  EXPECT_EQ(reg.aggregate_gauge_hw("t.g"), hw);
  EXPECT_EQ(reg.aggregate_gauge_last("t.g"), last);
  // The histogram outlier score is each rank's exact max sample.
  const auto out = reg.outliers("t.h");
  ASSERT_FALSE(out.empty());
  for (const auto& o : out)
    EXPECT_EQ(static_cast<std::uint64_t>(o.value), hmax[o.rank]);
}

// --- read-time top-k outliers ------------------------------------------------

TEST(ObsAggregate, CounterOutliersAreTrueTopK) {
  obs::ObsParams p;
  p.sample_ranks = 2;
  p.outlier_k = 4;
  constexpr int kRanks = 64;
  obs::Registry reg(kRanks, p);
  // Distinct per-rank totals in a scrambled order so admissions interleave
  // with evictions: rank r ends at (r * 37) % 101 + 1.
  std::vector<obs::Counter> handles;
  handles.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) handles.push_back(reg.counter("t.c", r));
  std::vector<std::pair<std::uint64_t, int>> expect;  // total, rank
  for (int r = 0; r < kRanks; ++r) {
    const auto total =
        static_cast<std::uint64_t>((r * 37) % 101 + 1);
    expect.push_back({total, r});
    // Split each rank's total across two bursts so later increments must
    // re-rank an already-admitted entry, not just insert fresh ones.
    handles[static_cast<std::size_t>(r)].inc(total / 2);
    handles[static_cast<std::size_t>(r)].inc(total - total / 2);
  }
  std::sort(expect.begin(), expect.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const auto out = reg.outliers("t.c");
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(out[i].value), expect[i].first)
        << "slot " << i;
    EXPECT_EQ(out[i].rank, expect[i].second) << "slot " << i;
  }
  // The family sum stays exact regardless of which ranks were retained.
  std::uint64_t sum = 0;
  for (const auto& [total, rank] : expect) sum += total;
  EXPECT_EQ(reg.aggregate_counter_sum("t.c"), sum);
  EXPECT_EQ(reg.aggregate_counter_active("t.c"), kRanks);
}

// Equal scores straddling the k-th place: the lower rank wins the slot,
// and zero scores never appear.
TEST(ObsAggregate, OutlierTieAtKthPlaceLowerRankWins) {
  obs::ObsParams p;
  p.outlier_k = 3;
  obs::Registry reg(10, p);
  reg.counter("t.c", 9).inc(50);
  reg.counter("t.c", 7).inc(20);  // ranks 7, 4 and 2 tie for places 2..4
  reg.counter("t.c", 4).inc(20);
  reg.counter("t.c", 2).inc(20);
  reg.counter("t.c", 5);          // registered, zero: never an outlier
  const auto out = reg.outliers("t.c");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].rank, 9);
  EXPECT_EQ(out[0].value, 50);
  EXPECT_EQ(out[1].rank, 2);
  EXPECT_EQ(out[2].rank, 4);
  EXPECT_EQ(out[2].value, 20);
  // Fewer nonzero ranks than k: only those are reported.
  reg.counter("t.d", 6).inc(1);
  ASSERT_EQ(reg.outliers("t.d").size(), 1u);
}

// Outliers come from the exact per-rank scalars, so ranks outside the
// sample are reported for every kind.
TEST(ObsAggregate, OutliersNeedNotBeSampled) {
  obs::ObsParams p;
  p.sample_ranks = 2;  // ranks 0 and 8
  p.outlier_k = 2;
  obs::Registry reg(16, p);
  ASSERT_EQ(reg.sampled_ranks(), (std::vector<int>{0, 8}));
  for (int r = 0; r < 16; ++r) {
    reg.counter("t.c", r).inc(r == 3 ? 900 : r == 13 ? 700 : 10);
    reg.gauge("t.g", r).set(r == 11 ? 80 : 5, static_cast<Time>(r));
    reg.histogram("t.h", r).record(r == 5 ? 1u << 30 : 64);
  }
  reg.histogram("t.h", 0).record(1u << 20);
  const auto c = reg.outliers("t.c");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].rank, 3);
  EXPECT_EQ(c[1].rank, 13);
  const auto g = reg.outliers("t.g");
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g[0].rank, 11);
  EXPECT_EQ(g[0].value, 80);
  EXPECT_EQ(g[1].rank, 0);  // ties at 5: the lowest rank wins
  const auto h = reg.outliers("t.h");
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].rank, 5);
  EXPECT_EQ(h[0].value, std::int64_t{1} << 30);
  EXPECT_EQ(h[1].rank, 0);
  // The unsampled rank's samples live in the remainder; the merged family
  // histogram still counts every sample.
  EXPECT_EQ(reg.hist_data("t.h", 5), nullptr);
  EXPECT_EQ(reg.aggregate_hist("t.h").count, 17u);
  EXPECT_EQ(reg.aggregate_hist("t.h").max, 1u << 30);
}

TEST(ObsAggregate, GaugeOutliersTrackHighWater) {
  obs::ObsParams p;
  p.sample_ranks = 1;
  p.outlier_k = 2;
  obs::Registry reg(8, p);
  std::vector<obs::Gauge> gs;
  for (int r = 0; r < 8; ++r) gs.push_back(reg.gauge("t.g", r));
  // Rank 5 spikes to 90 then settles; rank 2 climbs to 70. The outlier set
  // must rank by high-water (the running max), not the final level.
  for (int r = 0; r < 8; ++r)
    gs[static_cast<std::size_t>(r)].set(r, Time{r + 1});
  gs[5].set(90, Time{10});
  gs[5].set(1, Time{11});
  gs[2].set(70, Time{12});
  const auto out = reg.outliers("t.g");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rank, 5);
  EXPECT_EQ(out[0].value, 90);
  EXPECT_EQ(out[1].rank, 2);
  EXPECT_EQ(out[1].value, 70);
  EXPECT_EQ(reg.aggregate_gauge_hw("t.g"), 90);
}

TEST(ObsAggregate, OutlierKZeroDisablesRetention) {
  obs::ObsParams p;
  p.outlier_k = 0;
  obs::Registry reg(8, p);
  obs::Counter c = reg.counter("t.c", 3);
  c.inc(1000);
  EXPECT_TRUE(reg.outliers("t.c").empty());
  EXPECT_EQ(reg.aggregate_counter_sum("t.c"), 1000u);
}

// --- per-rank memory budget -------------------------------------------------

// The ROADMAP's per-rank target: the whole registry of a 4096-rank
// NotifiedAccess stencil, every family registered, fits in 1 KiB per rank.
TEST(ObsAggregate, RegistryFitsPerRankBudgetAt4096Ranks) {
  constexpr int kRanks = 4096;
  apps::StencilConfig cfg;
  cfg.rows = 64;
  cfg.total_cols = 2 * kRanks;
  cfg.iters = 1;
  cfg.variant = apps::StencilVariant::kNotified;
  cfg.per_point = ns(2);
  World world(kRanks);
  bool verified = false;
  world.run([&](Rank& self) {
    const apps::StencilResult r = apps::run_stencil(self, cfg);
    if (self.id() == 0) verified = r.verified;
  });
  EXPECT_TRUE(verified);
  const obs::Registry& reg = *world.metrics();
  const auto bytes = reg.aggregate_gauge_last("obs.registry_bytes");
  EXPECT_EQ(static_cast<std::size_t>(bytes), reg.footprint_bytes());
  EXPECT_GT(reg.names().size(), 30u);
  EXPECT_LE(bytes / kRanks, 1024) << bytes << " registry bytes";
}

// --- anomaly journal ---------------------------------------------------------

/// A small all-to-root notified workload; every parameter deterministic.
void run_small_workload(World& world) {
  world.run([](Rank& self) {
    constexpr int kMsgs = 8;
    auto win = self.win_allocate(1 << 14, 1);
    if (self.id() != 0) {
      std::vector<std::byte> buf(512, std::byte{0x5a});
      for (int m = 0; m < kMsgs; ++m) {
        self.na().put_notify(*win, {buf.data(), buf.size()}, 0,
                             static_cast<std::uint64_t>(m) * 512, 7);
        win->flush(0);
      }
    } else {
      auto req = self.na().notify_init(
          *win, na::MatchSpec::any(),
          static_cast<std::uint32_t>(kMsgs * (self.size() - 1)));
      self.na().start(req);
      self.na().wait(req);
    }
    self.barrier();
  });
}

TEST(ObsJournal, FaultFreeRunIsClean) {
  WorldParams wp;  // defaults: no faults, journal on, no recorder
  World world(4, wp);
  ASSERT_NE(world.journal(), nullptr);
  run_small_workload(world);
  EXPECT_EQ(world.journal()->appended(), 0u);
  EXPECT_TRUE(world.journal()->records().empty());
}

TEST(ObsJournal, CapacityZeroDisables) {
  WorldParams wp;
  wp.obs.journal_capacity = 0;
  World world(2, wp);
  EXPECT_EQ(world.journal(), nullptr);
  run_small_workload(world);
}

std::string faulty_run_journal_json(double drop_rate) {
  WorldParams wp;
  wp.fabric.faults.seed = 7;
  wp.fabric.faults.drop_rate = drop_rate;
  World world(4, wp);
  run_small_workload(world);
  return world.journal()->to_json();
}

TEST(ObsJournal, FaultDropsAreRecordedDeterministically) {
  const std::string a = faulty_run_journal_json(0.2);
  const std::string b = faulty_run_journal_json(0.2);
  EXPECT_EQ(a, b) << "identical seeded runs must journal identically";
  const json::ParseResult doc = json::parse(a);
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.string_or("schema", ""), "narma.journal.v1");
  const json::Array& recs = doc.value["records"].as_array();
  ASSERT_FALSE(recs.empty());
  bool saw_drop = false;
  for (const json::Value& r : recs)
    saw_drop |= r.string_or("kind", "") == "fault_drop";
  EXPECT_TRUE(saw_drop);
}

TEST(ObsJournal, RingKeepsMostRecentRecords) {
  obs::Journal j(4);
  for (int i = 0; i < 10; ++i)
    j.append(obs::JournalKind::kPressure, Time{i}, i);
  EXPECT_EQ(j.appended(), 10u);
  EXPECT_EQ(j.dropped(), 6u);
  const auto recs = j.records();
  ASSERT_EQ(recs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].t, Time{i + 6});
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].rank, i + 6);
  }
}

// --- narma.metrics.v2 dump ---------------------------------------------------

TEST(ObsAggregate, V2DumpMatchesRegistry) {
  WorldParams wp;
  wp.obs.sample_ranks = 4;
  wp.obs.outlier_k = 3;
  World world(8, wp);
  run_small_workload(world);
  obs::Registry& reg = *world.metrics();
  const json::ParseResult doc = json::parse(reg.to_json());
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.string_or("schema", ""), "narma.metrics.v2");
  EXPECT_TRUE(doc.value["obs_mode"].is_null());
  EXPECT_TRUE(doc.value["shards"].is_null());
  EXPECT_EQ(static_cast<int>(doc.value.number_or("nranks", 0)), 8);
  EXPECT_EQ(doc.value["sample_ranks"].as_array().size(), 4u);
  bool checked = false;
  for (const json::Value& fam : doc.value["metrics"].as_array()) {
    const std::string name = fam.string_or("name", "");
    const std::string kind = fam.string_or("kind", "");
    ASSERT_TRUE(fam["aggregate"].is_object()) << name;
    ASSERT_TRUE(fam["outliers"].is_array()) << name;
    ASSERT_TRUE(fam["sampled"].is_array()) << name;
    if (kind == "counter" && !config_dependent_family(name)) {
      EXPECT_EQ(static_cast<std::uint64_t>(
                    fam["aggregate"].number_or("sum", -1)),
                reg.aggregate_counter_sum(name))
          << name;
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

// The default sample covers every rank of a small run: each family's
// sampled section has one row per rank, and those rows sum to the
// aggregate for every counter.
TEST(ObsAggregate, DefaultSampleCoversSmallRuns) {
  World world(8);
  run_small_workload(world);
  const json::ParseResult doc = json::parse(world.metrics()->to_json());
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value["sample_ranks"].as_array().size(), 8u);
  for (const json::Value& fam : doc.value["metrics"].as_array()) {
    const json::Array& rows = fam["sampled"].as_array();
    ASSERT_EQ(rows.size(), 8u) << fam.string_or("name", "");
    if (fam.string_or("kind", "") != "counter") continue;
    double sum = 0;
    for (const json::Value& row : rows) sum += row.number_or("value", 0);
    EXPECT_EQ(sum, fam["aggregate"].number_or("sum", -1))
        << fam.string_or("name", "");
  }
}

// --- flight recorder with a partial sample -----------------------------------

// Per-family cell deltas summed over every window and row must telescope to
// the final whole-family counter totals — the recorder's defining identity,
// preserved by the sampled rows plus the remainder row.
TEST(ObsAggregate, RecorderTelescopesWithPartialSample) {
  WorldParams wp;
  wp.obs.sample_ranks = 2;
  World world(8, wp);
  world.enable_timeseries(us(5));
  run_small_workload(world);
  std::string path = testing::TempDir() + "obs_agg_ts.json";
  ASSERT_TRUE(world.dump_timeseries(path));
  const json::ParseResult doc = json::parse_file(path);
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value["sample_ranks"].as_array().size(), 2u);
  bool saw_remainder = false;

  const json::Array& fams = doc.value["families"].as_array();
  std::map<std::string, double> windowed;  // family -> summed cell deltas
  for (const json::Value& win : doc.value["windows"].as_array()) {
    ASSERT_TRUE(win["rank_agg"].is_object());
    EXPECT_EQ(win["sampled_ranks"].as_array().size(), 2u);
    for (const json::Value& c : win["cells"].as_array()) {
      const auto idx = static_cast<std::size_t>(c.number_or("family", 0));
      ASSERT_LT(idx, fams.size());
      saw_remainder |= c.number_or("rank", 0) == -1;
      if (fams[idx].string_or("kind", "") == "counter")
        windowed[fams[idx].string_or("name", "?")] +=
            c.number_or("delta", 0);
    }
  }
  obs::Registry& reg = *world.metrics();
  std::size_t compared = 0;
  for (const auto& [name, total] : windowed) {
    if (config_dependent_family(name)) continue;
    EXPECT_EQ(static_cast<std::uint64_t>(total),
              reg.aggregate_counter_sum(name))
        << name;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
  EXPECT_TRUE(saw_remainder);
}

}  // namespace
