// Unified runtime metrics: the observability substrate every layer reports
// into (ROADMAP: perf PRs measure against this).
//
// A Registry is a per-World collection of named metric *families*, each
// tracking every rank:
//
//  * Counter   — monotone event/byte counts (FMA ops, eager sends, ...).
//  * Gauge     — instantaneous levels with high-water tracking (CQ depth,
//                unexpected-queue depth, slab-pool occupancy, ...).
//  * Histogram — log2-bucketed samples (queueing delays, flush waits, match
//                probes per test, ...).
//
// Handles are cheap value types the instrumented layers cache at
// construction: a disengaged handle (metrics off) makes every hook a single
// branch, an engaged one a branch plus a plain increment. Plain (non-atomic)
// arithmetic is correct here because the whole simulation runs on the one
// engine thread.
//
// When a sim::Tracer is attached, every gauge change of a sampled rank is
// mirrored as a Chrome trace-event "C" (counter) sample, so Perfetto shows
// CQ/UQ depth tracks aligned with the span timeline (the sample caps the
// track count at scale). Counters and histograms are export-only.
//
// Storage is one layout sized for scale (DESIGN.md §14): every family keeps
// an exact per-rank scalar array — counters an 8 B total, gauges a 16 B
// (level, high-water) pair, histograms an 8 B running max — plus, for
// histograms, full log2 buckets only for a deterministic rank sample and one
// shared remainder histogram for every other rank. The sample is every rank
// when nranks <= ObsParams::sample_ranks, so small runs keep full per-rank
// detail; per-rank counter and gauge queries are exact at every scale.
// Outliers (the top-k ranks by counter total, gauge high-water or histogram
// max) are computed when read, from those exact scalars.
//
// Registry::to_json() emits the stable narma.metrics.v2 schema consumed by
// `narma_cli report` and `diff` (see DESIGN.md §7):
//
//   {"schema":"narma.metrics.v2","nranks":N,"sample_ranks":[...],
//    "outlier_k":K,"metrics":[
//     {"name":...,"kind":"counter","aggregate":{"sum":S,"active_ranks":A,
//      "max":M},"outliers":[{"rank":r,"value":v},...],
//      "sampled":[{"rank":r,"value":V},...]},
//     {"name":...,"kind":"gauge","aggregate":{"last":L,"high_water":H},
//      "outliers":[...],"sampled":[{"rank":r,"value":V,"high_water":H}]},
//     {"name":...,"kind":"histogram","aggregate":{"count":N,"sum":S,
//      "min":m,"max":M,"p50":..,"p90":..,"p99":..,"buckets":[{"lo":..,
//      "hi":..,"count":..}]},"outliers":[...],"sampled":[{"rank":r,
//      "count":N,...,"buckets":[...]}]}]}
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "obs/params.hpp"

namespace narma::sim {
class Tracer;
}

namespace narma::obs {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Log2-bucketed histogram state. Bucket 0 counts zero-valued samples;
/// bucket i >= 1 counts samples in [2^(i-1), 2^i - 1] (i = bit_width(v)).
struct HistData {
  std::array<std::uint64_t, 64> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t v);
  /// Adds `o` into this histogram. Log2 buckets merge exactly: the merged
  /// histogram equals the histogram of the concatenated sample streams,
  /// which is what keeps the sampled + remainder family merge exact.
  void merge(const HistData& o);
  /// Quantile estimate: the value at sorted position q*(count-1), linearly
  /// interpolated within the covering bucket and clamped to the observed
  /// [min, max] — so a one-bucket distribution of equal samples reports the
  /// exact value at every q instead of collapsing to the bucket floor.
  double quantile(double q) const;
  /// Percentile summary derived from the buckets via quantile(). stddev and
  /// ci99 stay 0 — log2 buckets carry no sum of squares.
  stats::Summary summary() const;
};

class Registry;

namespace detail {

/// Per-rank gauge storage: the exact level and its high-water.
struct GaugeSlot {
  std::int64_t level = 0;
  std::int64_t high_water = 0;
};

/// One metric family. Its arrays are sized once at registration and never
/// grow, so handle pointers into them stay valid for the Registry's life.
/// Only the arrays of the family's kind are allocated.
struct Family {
  Registry* reg = nullptr;
  std::string name;
  Kind kind = Kind::kCounter;
  std::vector<std::uint64_t> totals;  // counter: per-rank total
  std::vector<GaugeSlot> gauges;      // gauge: per-rank level + high-water
  std::int64_t last = 0;              // gauge: value of the latest set()
  Time last_at = 0;                   //   (by virtual time; ties: later call)
  std::vector<std::uint64_t> maxima;  // histogram: per-rank max sample
  std::vector<HistData> sampled;      // histogram: one per sampled rank
  HistData rest;                      // histogram: all unsampled ranks
};

}  // namespace detail

/// Monotone event counter handle. Default-constructed handles are no-ops.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (slot_) *slot_ += n;
  }
  std::uint64_t value() const { return slot_ ? *slot_ : 0; }
  explicit operator bool() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Level gauge handle with high-water tracking. `at` is the virtual time of
/// the change (used for the family's last value and the tracer sample).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v, Time at);
  void add(std::int64_t d, Time at) {
    if (slot_) set(slot_->level + d, at);
  }
  std::int64_t value() const { return slot_ ? slot_->level : 0; }
  std::int64_t high_water() const { return slot_ ? slot_->high_water : 0; }
  explicit operator bool() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  Gauge(detail::GaugeSlot* slot, detail::Family* fam, std::int32_t rank,
        bool mirror)
      : slot_(slot), fam_(fam), rank_(rank), mirror_(mirror) {}
  detail::GaugeSlot* slot_ = nullptr;
  detail::Family* fam_ = nullptr;
  std::int32_t rank_ = 0;
  bool mirror_ = false;  // sampled rank: mirror changes into the tracer
};

/// Log2-bucketed histogram handle. Samples land in the rank's own exact
/// histogram when the rank is sampled, else in the family's shared
/// remainder; the rank's max sample is always kept exactly.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) {
    if (!hist_) return;
    hist_->record(v);
    if (v > *max_) *max_ = v;
  }
  /// Bulk merge of a whole histogram recorded elsewhere (the engine's
  /// pop-depth and bottom-insert counts), exact in every field.
  void merge(const HistData& h) {
    if (!hist_ || h.count == 0) return;
    hist_->merge(h);
    if (h.max > *max_) *max_ = h.max;
  }
  void record_time(Time dt) { record(static_cast<std::uint64_t>(to_ns(dt))); }
  /// The histogram this handle records into: the rank's own for a sampled
  /// rank, the family's shared remainder otherwise.
  const HistData* data() const { return hist_; }
  explicit operator bool() const { return hist_ != nullptr; }

 private:
  friend class Registry;
  Histogram(HistData* hist, std::uint64_t* max) : hist_(hist), max_(max) {}
  HistData* hist_ = nullptr;
  std::uint64_t* max_ = nullptr;
};

/// Per-World metric registry (see the header comment for the layout).
class Registry {
 public:
  explicit Registry(int nranks, const ObsParams& params = {});
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  int nranks() const { return nranks_; }
  /// Ranks that keep exact histograms and per-rank rows in visit(), the
  /// dump and the flight recorder: every rank when nranks <= sample_ranks,
  /// else sample_ranks evenly spaced ranks (0, stride, 2*stride, ...).
  const std::vector<int>& sampled_ranks() const { return sample_ranks_; }
  /// Rows visit() emits per family: one per sampled rank, plus one
  /// remainder row when some rank is unsampled. The flight recorder sizes
  /// its baseline arrays off this.
  int max_rows() const {
    const int ns = static_cast<int>(sample_ranks_.size());
    return ns + (ns < nranks_ ? 1 : 0);
  }

  /// Handle accessors create the family on first use; the kind of an
  /// existing family must match. Handles stay valid for the Registry's life.
  Counter counter(const std::string& name, int rank);
  Gauge gauge(const std::string& name, int rank);
  Histogram histogram(const std::string& name, int rank);

  /// Mirrors sampled ranks' gauge changes into `t` as Chrome "C" counter
  /// events (one track per (metric, rank), sampled on change). nullptr
  /// detaches.
  void set_tracer(sim::Tracer* t) { tracer_ = t; }
  sim::Tracer* tracer() const { return tracer_; }

  // --- Introspection (tests, exporters) ------------------------------------

  bool has(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Read-only view of one row, passed to visit(). Sampled rows carry the
  /// rank's exact values; the remainder row (rank -1) folds every unsampled
  /// rank: the sum of their counter totals, the max of their gauge levels
  /// and high-waters, and the shared remainder histogram. `row` is a dense
  /// per-family index in [0, max_rows()) usable as an array slot.
  struct CellView {
    const std::string& name;
    Kind kind;
    int rank;
    int row;
    std::uint64_t count;          // counter
    std::int64_t level;           // gauge
    std::int64_t high_water;      // gauge
    const HistData& hist;         // histogram
  };

  /// Iterates every row in deterministic (name asc, row asc) order — the
  /// flight recorder's snapshot pass (src/obs/timeseries).
  void visit(const std::function<void(const CellView&)>& fn) const;
  /// Per-rank introspection. Counter and gauge values are exact for every
  /// rank; hist_data is exact for sampled ranks and nullptr for the rest.
  std::uint64_t counter_value(const std::string& name, int rank) const;
  std::int64_t gauge_value(const std::string& name, int rank) const;
  std::int64_t gauge_high_water(const std::string& name, int rank) const;
  const HistData* hist_data(const std::string& name, int rank) const;

  // --- Whole-family reductions (exact) -------------------------------------

  /// Sum of a counter family over every rank.
  std::uint64_t aggregate_counter_sum(const std::string& name) const;
  /// Ranks with a nonzero counter total.
  int aggregate_counter_active(const std::string& name) const;
  /// Family-wide gauge high-water (max over ranks).
  std::int64_t aggregate_gauge_hw(const std::string& name) const;
  /// Value of the family's latest set() by virtual time (ties go to the
  /// later call). The "current value" a scalar gauge like sim.run_wall_ns
  /// reduces to.
  std::int64_t aggregate_gauge_last(const std::string& name) const;
  /// Merged histogram over every rank.
  HistData aggregate_hist(const std::string& name) const;

  /// The top ObsParams::outlier_k ranks of a family with a nonzero score,
  /// computed on call from the exact per-rank scalars (counter total, gauge
  /// high-water, histogram max), sorted by value descending then rank
  /// ascending.
  struct OutlierView {
    int rank;
    std::int64_t value;
  };
  std::vector<OutlierView> outliers(const std::string& name) const;

  /// Deterministic estimate of the registry's own storage footprint
  /// (every per-rank array and sampled histogram), for the
  /// obs.registry_bytes gauge.
  std::size_t footprint_bytes() const;

  /// Renders the narma.metrics.v2 JSON document: families in lexicographic
  /// name order, {aggregate, outliers, sampled} per family.
  std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  friend class Gauge;

  detail::Family& family(const std::string& name, Kind kind);
  const detail::Family* find(const std::string& name) const;
  /// Index of `rank` in sampled_ranks(), or -1 when it is not sampled.
  int sample_index(int rank) const;

  int nranks_;
  // The one ObsParams knob read after construction (sample_ranks is
  // consumed into sample_ranks_): no params copy, so the registry's
  // footprint does not move with unrelated settings.
  int outlier_k_;
  std::vector<int> sample_ranks_;  // ascending
  int sample_stride_ = 1;
  // Sorted map: stable pointer per family and deterministic JSON order.
  std::map<std::string, std::unique_ptr<detail::Family>> families_;
  sim::Tracer* tracer_ = nullptr;
};

}  // namespace narma::obs
