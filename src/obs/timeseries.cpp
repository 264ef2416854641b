#include "obs/timeseries.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "obs/journal.hpp"
#include "sim/engine.hpp"

namespace narma::obs {

namespace {

/// Families whose values depend on host wall time. Excluded from snapshots
/// so the time-series JSON is bit-identical across repeated runs (the
/// end-of-run metrics dump still carries them).
bool is_host_time_family(const std::string& name) {
  return name.rfind("obs.phase_", 0) == 0 ||
         name.rfind("obs.profile_", 0) == 0 || name == "sim.run_wall_ns" ||
         name == "sim.events_per_sec";
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

TimeSeries::TimeSeries(Registry& reg, sim::Engine& eng,
                       const ObsParams& params)
    : reg_(reg),
      eng_(eng),
      window_ps_(params.timeseries_window_ps ? params.timeseries_window_ps
                                             : us(100)),
      capacity_(params.timeseries_capacity),
      straggler_threshold_(params.straggler_threshold) {
  NARMA_CHECK(window_ps_ > 0);
  NARMA_CHECK(capacity_ >= 4) << "flight recorder needs >= 4 windows";
  rank_base_.resize(static_cast<std::size_t>(eng.nranks()));
}

std::uint32_t TimeSeries::family_index(const std::string& name, Kind kind) {
  auto it = family_idx_.find(name);
  if (it != family_idx_.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(families_.size());
  families_.push_back(FamilyInfo{name, kind});
  family_idx_.emplace(name, idx);
  base_.emplace_back(static_cast<std::size_t>(reg_.max_rows()));
  return idx;
}

void TimeSeries::snapshot(Time boundary) {
  ++snapshots_;
  Window w;
  w.t_begin = last_boundary_;
  w.t_end = boundary;
  const int nranks = eng_.nranks();
  std::vector<double> fracs;
  fracs.reserve(static_cast<std::size_t>(nranks));
  double min_busy = 2.0;
  std::int32_t min_rank = -1;
  const std::vector<int>& samples = reg_.sampled_ranks();
  std::size_t si = 0;  // walks `samples` (ascending) alongside r
  for (int r = 0; r < nranks; ++r) {
    sim::RankCtx& ctx = eng_.rank(r);
    const Time total = ctx.now();
    const Time blocked = ctx.blocked_time();
    auto& abs = rank_base_[static_cast<std::size_t>(r)];  // absolute totals
    const RankDelta d{total - abs.d_total, blocked - abs.d_blocked};
    abs = {total, blocked};
    w.agg.d_total_sum += d.d_total;
    w.agg.d_blocked_sum += d.d_blocked;
    if (d.d_total > 0) ++w.agg.active;
    if (si < samples.size() && samples[si] == r) {
      w.sampled.push_back({r, d});
      ++si;
    }
    if (d.d_total > 0) {
      const double f = static_cast<double>(d.d_total - d.d_blocked) /
                       static_cast<double>(d.d_total);
      fracs.push_back(f);
      if (f < min_busy) {
        min_busy = f;
        min_rank = r;
      }
    }
  }
  if (fracs.size() >= 2) {
    std::vector<double> sorted = fracs;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    w.agg.median_busy = median;
    w.agg.min_busy = min_busy;
    w.agg.min_rank = min_rank;
    for (double f : fracs)
      if (f < median - straggler_threshold_) ++w.agg.stragglers;
    // At most one journal record per window: the worst rank, if it crosses
    // the threshold. Busy fractions travel as parts-per-million integers.
    if (journal_ && min_rank >= 0 && min_busy < median - straggler_threshold_)
      journal_->append(JournalKind::kStraggler, boundary, min_rank, -1,
                       static_cast<std::uint64_t>(min_busy * 1e6),
                       static_cast<std::uint64_t>(median * 1e6));
  }
  reg_.visit([&](const Registry::CellView& v) {
    if (is_host_time_family(v.name)) return;
    const std::uint32_t idx = family_index(v.name, v.kind);
    CellBase& base = base_[idx][static_cast<std::size_t>(v.row)];
    const auto rank = static_cast<std::int32_t>(v.rank);
    switch (v.kind) {
      case Kind::kCounter:
        if (v.count != base.count) {
          w.cells.push_back({idx, rank, v.count - base.count, 0});
          base.count = v.count;
        }
        break;
      case Kind::kGauge:
        if (v.level != base.level || v.high_water != base.hw) {
          w.cells.push_back({idx, rank,
                             static_cast<std::uint64_t>(v.level),
                             static_cast<std::uint64_t>(v.high_water)});
          base.level = v.level;
          base.hw = v.high_water;
        }
        break;
      case Kind::kHistogram: {
        const std::uint64_t dc = v.hist.count - base.hcount;
        const std::uint64_t ds = v.hist.sum - base.hsum;
        if (dc != 0 || ds != 0) {
          w.cells.push_back({idx, rank, dc, ds});
          base.hcount = v.hist.count;
          base.hsum = v.hist.sum;
        }
        break;
      }
    }
  });
  windows_.push_back(std::move(w));
  last_boundary_ = boundary;
  if (windows_.size() >= capacity_) merge_down();
}

Time TimeSeries::on_boundary(Time boundary, Time /*horizon*/) {
  if (finalized_) return std::numeric_limits<Time>::max();
  snapshot(boundary);
  return boundary + window_ps_;
}

void TimeSeries::finalize(Time t_end) {
  if (finalized_) return;
  snapshot(std::max(t_end, last_boundary_));
  finalized_ = true;
}

TimeSeries::Window TimeSeries::merge(Window&& a, Window&& b) const {
  Window m;
  m.t_begin = a.t_begin;
  m.t_end = b.t_end;
  m.merged = a.merged + b.merged;
  m.agg.d_total_sum = a.agg.d_total_sum + b.agg.d_total_sum;
  m.agg.d_blocked_sum = a.agg.d_blocked_sum + b.agg.d_blocked_sum;
  m.agg.active = std::max(a.agg.active, b.agg.active);
  m.agg.stragglers = a.agg.stragglers + b.agg.stragglers;
  // Weighted-average median: approximate but deterministic; the exact
  // per-window medians are gone once their windows merge.
  const double wa = static_cast<double>(a.merged);
  const double wb = static_cast<double>(b.merged);
  m.agg.median_busy =
      (a.agg.median_busy * wa + b.agg.median_busy * wb) / (wa + wb);
  if (b.agg.min_rank < 0 ||
      (a.agg.min_rank >= 0 && a.agg.min_busy <= b.agg.min_busy)) {
    m.agg.min_busy = a.agg.min_busy;
    m.agg.min_rank = a.agg.min_rank;
  } else {
    m.agg.min_busy = b.agg.min_busy;
    m.agg.min_rank = b.agg.min_rank;
  }
  m.sampled.resize(a.sampled.size());
  for (std::size_t i = 0; i < a.sampled.size(); ++i)
    m.sampled[i] = {a.sampled[i].rank,
                    {a.sampled[i].d.d_total + b.sampled[i].d.d_total,
                     a.sampled[i].d.d_blocked + b.sampled[i].d.d_blocked}};
  // Combine by (family, rank): counters/histograms sum, gauges take the
  // later window's value (last-wins, matching the snapshot semantics).
  // The rank half of the key is cast through uint32 so the remainder row's
  // rank -1 stays distinct from sampled ranks.
  std::map<std::uint64_t, CellDelta> cells;
  auto key = [](const CellDelta& c) {
    return (static_cast<std::uint64_t>(c.family) << 32) |
           static_cast<std::uint32_t>(c.rank);
  };
  for (CellDelta& c : a.cells) cells.emplace(key(c), c);
  for (CellDelta& c : b.cells) {
    auto [it, fresh] = cells.emplace(key(c), c);
    if (fresh) continue;
    switch (families_[c.family].kind) {
      case Kind::kCounter:
      case Kind::kHistogram:
        it->second.a += c.a;
        it->second.b += c.b;
        break;
      case Kind::kGauge:
        it->second = c;
        break;
    }
  }
  m.cells.reserve(cells.size());
  for (auto& [k, c] : cells) m.cells.push_back(c);
  return m;
}

void TimeSeries::merge_down() {
  ++merges_;
  const std::size_t half = windows_.size() / 2;
  std::vector<Window> next;
  next.reserve(windows_.size() - half / 2);
  std::size_t i = 0;
  for (; i + 1 < half; i += 2)
    next.push_back(merge(std::move(windows_[i]), std::move(windows_[i + 1])));
  for (; i < windows_.size(); ++i) next.push_back(std::move(windows_[i]));
  windows_ = std::move(next);
}

void TimeSeries::set_residuals(std::vector<ResidualRow> rows) {
  residuals_ = std::move(rows);
}

std::vector<TimeSeries::Anomaly> TimeSeries::anomalies() const {
  std::vector<Anomaly> out;
  const auto straggler = [&](std::size_t wi, int rank, double f,
                              double median) {
    Anomaly a;
    a.window = static_cast<std::uint32_t>(wi);
    a.kind = "straggler";
    a.rank = rank;
    a.value = f;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "busy %.2f vs window median %.2f", f,
                  median);
    a.detail = buf;
    out.push_back(std::move(a));
  };
  for (std::size_t wi = 0; wi < windows_.size(); ++wi) {
    const Window& w = windows_[wi];
    if (w.agg.min_rank < 0) continue;  // fewer than two active ranks
    // Sampled ranks below the window median by more than the threshold,
    // plus the window's worst rank (captured exactly at snapshot time) when
    // it is not sampled. At <= sample_ranks ranks this is every straggler.
    const double cut = w.agg.median_busy - straggler_threshold_;
    bool worst_seen = false;
    for (const SampledRankDelta& s : w.sampled) {
      if (s.d.d_total <= 0) continue;
      const double f = static_cast<double>(s.d.d_total - s.d.d_blocked) /
                       static_cast<double>(s.d.d_total);
      worst_seen |= s.rank == w.agg.min_rank;
      if (f < cut) straggler(wi, s.rank, f, w.agg.median_busy);
    }
    if (!worst_seen && w.agg.min_busy < cut)
      straggler(wi, w.agg.min_rank, w.agg.min_busy, w.agg.median_busy);
  }
  for (const ResidualRow& r : residuals_) {
    if (!r.flagged) continue;
    Anomaly a;
    a.window = r.window;
    a.kind = "channel_residual";
    a.rank = -1;
    a.value = r.mean_residual_ps;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s: mean residual %.0f ps over model %.0f ps (%llu msgs)",
                  r.backend.c_str(), r.mean_residual_ps, r.mean_model_ps,
                  static_cast<unsigned long long>(r.msgs));
    a.detail = buf;
    out.push_back(std::move(a));
  }
  return out;
}

std::string TimeSeries::to_json() const {
  json::Writer w;
  w.begin_object();
  w.kv("schema", "narma.timeseries.v1");
  w.kv("nranks", eng_.nranks());
  w.kv("window_ps", static_cast<std::uint64_t>(window_ps_));
  w.kv("capacity", static_cast<std::uint64_t>(capacity_));
  w.kv("snapshots", snapshots_);
  w.kv("merges", merges_);
  w.key("sample_ranks").begin_array();
  for (int r : reg_.sampled_ranks()) w.value(r);
  w.end_array();
  w.key("families").begin_array();
  for (const FamilyInfo& f : families_) {
    w.begin_object();
    w.kv("name", f.name);
    w.kv("kind", kind_name(f.kind));
    w.end_object();
  }
  w.end_array();
  w.key("windows").begin_array();
  for (const Window& win : windows_) {
    w.begin_object();
    w.kv("t_begin_ps", static_cast<std::uint64_t>(win.t_begin));
    w.kv("t_end_ps", static_cast<std::uint64_t>(win.t_end));
    w.kv("merged", static_cast<std::uint64_t>(win.merged));
    w.key("rank_agg").begin_object();
    w.kv("total_ps_sum", static_cast<std::uint64_t>(win.agg.d_total_sum));
    w.kv("blocked_ps_sum",
         static_cast<std::uint64_t>(win.agg.d_blocked_sum));
    w.kv("busy_ps_sum", static_cast<std::uint64_t>(win.agg.d_total_sum -
                                                   win.agg.d_blocked_sum));
    w.kv("active", static_cast<std::uint64_t>(win.agg.active));
    w.kv("stragglers", static_cast<std::uint64_t>(win.agg.stragglers));
    w.kv("median_busy", win.agg.median_busy);
    w.kv("min_busy", win.agg.min_rank >= 0 ? win.agg.min_busy : 0.0);
    w.kv("min_rank", static_cast<int>(win.agg.min_rank));
    w.end_object();
    w.key("sampled_ranks").begin_array();
    for (const SampledRankDelta& s : win.sampled) {
      w.begin_object();
      w.kv("rank", static_cast<int>(s.rank));
      w.kv("total_ps", static_cast<std::uint64_t>(s.d.d_total));
      w.kv("blocked_ps", static_cast<std::uint64_t>(s.d.d_blocked));
      w.kv("busy_ps",
           static_cast<std::uint64_t>(s.d.d_total - s.d.d_blocked));
      w.end_object();
    }
    w.end_array();
    w.key("cells").begin_array();
    for (const CellDelta& c : win.cells) {
      w.begin_object();
      w.kv("family", static_cast<std::uint64_t>(c.family));
      w.kv("rank", static_cast<int>(c.rank));
      switch (families_[c.family].kind) {
        case Kind::kCounter:
          w.kv("delta", c.a);
          break;
        case Kind::kGauge:
          w.kv("value", static_cast<std::int64_t>(c.a));
          w.kv("high_water", static_cast<std::int64_t>(c.b));
          break;
        case Kind::kHistogram:
          w.kv("delta_count", c.a);
          w.kv("delta_sum", c.b);
          break;
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("residuals").begin_array();
  for (const ResidualRow& r : residuals_) {
    w.begin_object();
    w.kv("window", static_cast<std::uint64_t>(r.window));
    w.kv("backend", r.backend);
    w.kv("msgs", r.msgs);
    w.kv("mean_model_ps", r.mean_model_ps);
    w.kv("mean_residual_ps", r.mean_residual_ps);
    w.kv("max_abs_residual_ps", r.max_abs_residual_ps);
    w.kv("flagged", r.flagged);
    w.end_object();
  }
  w.end_array();
  w.key("anomalies").begin_array();
  for (const Anomaly& a : anomalies()) {
    w.begin_object();
    w.kv("window", static_cast<std::uint64_t>(a.window));
    w.kv("kind", a.kind);
    w.kv("rank", a.rank);
    w.kv("value", a.value);
    w.kv("detail", a.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool TimeSeries::write_json(const std::string& path) const {
  return json::write_file(path, to_json());
}

}  // namespace narma::obs
