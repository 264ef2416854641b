#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "sim/trace.hpp"

namespace narma::obs {

// -------------------------------------------------------------- HistData --

void HistData::record(std::uint64_t v) {
  const auto idx = static_cast<std::size_t>(std::bit_width(v));
  ++buckets[idx];
  ++count;
  sum += v;
  if (count == 1 || v < min) min = v;
  if (v > max) max = v;
}

void HistData::merge(const HistData& o) {
  if (o.count == 0) return;
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
  const bool first = count == 0;
  count += o.count;
  sum += o.sum;
  if (first || o.min < min) min = o.min;
  if (o.max > max) max = o.max;
}

double HistData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank-based: the sample at sorted position q*(count-1), linearly
  // interpolated across the covering bucket's span. The span is clamped to
  // the observed extrema where they apply (min lies in the lowest non-empty
  // bucket, max in the highest), so a distribution confined to one bucket
  // reports exact values instead of the bucket floor or midpoint.
  const double pos = q * static_cast<double>(count - 1);
  double seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double cnt = static_cast<double>(buckets[i]);
    if (pos < seen + cnt) {
      double lo = i == 0 ? 0.0 : std::exp2(static_cast<double>(i) - 1.0);
      double hi = i == 0 ? 0.0 : std::exp2(static_cast<double>(i)) - 1.0;
      if (seen == 0) lo = std::max(lo, static_cast<double>(min));
      if (seen + cnt >= static_cast<double>(count))
        hi = std::min(hi, static_cast<double>(max));
      if (hi < lo) hi = lo;
      const double frac = cnt <= 1.0 ? 0.0 : (pos - seen) / (cnt - 1.0);
      return lo + frac * (hi - lo);
    }
    seen += cnt;
  }
  return static_cast<double>(max);
}

stats::Summary HistData::summary() const {
  stats::Summary s;
  s.n = count;
  if (count == 0) return s;
  s.mean = static_cast<double>(sum) / static_cast<double>(count);
  s.min = static_cast<double>(min);
  s.max = static_cast<double>(max);
  s.p10 = quantile(0.10);
  s.median = s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

// ----------------------------------------------------------------- Gauge --

void Gauge::set(std::int64_t v, Time at) {
  if (!slot_) return;
  const bool changed = v != slot_->level;
  slot_->level = v;
  if (v > slot_->high_water) slot_->high_water = v;
  if (at >= fam_->last_at) {
    fam_->last = v;
    fam_->last_at = at;
  }
  // Sampled on change: one counter-track point per distinct level, for
  // sampled ranks only, which caps the Perfetto track count at scale.
  if (changed && mirror_ && fam_->reg->tracer_) {
    fam_->reg->tracer_->counter(
        rank_, "obs", fam_->name + " (rank " + std::to_string(rank_) + ")",
        at, static_cast<double>(v));
  }
}

// -------------------------------------------------------------- Registry --

Registry::Registry(int nranks, const ObsParams& params)
    : nranks_(nranks), outlier_k_(params.outlier_k) {
  NARMA_CHECK(nranks >= 1) << "metrics registry needs at least one rank";
  // Deterministic evenly spaced rank sample: 0, stride, 2*stride, ...
  const int ns = std::min(std::max(0, params.sample_ranks), nranks_);
  sample_stride_ = std::max(1, nranks_ / std::max(1, ns));
  for (int i = 0; i < ns; ++i) sample_ranks_.push_back(i * sample_stride_);
}

int Registry::sample_index(int rank) const {
  if (rank % sample_stride_ != 0) return -1;
  const int i = rank / sample_stride_;
  return i < static_cast<int>(sample_ranks_.size()) ? i : -1;
}

detail::Family& Registry::family(const std::string& name, Kind kind) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    auto fam = std::make_unique<detail::Family>();
    fam->reg = this;
    fam->name = name;
    fam->kind = kind;
    const auto n = static_cast<std::size_t>(nranks_);
    switch (kind) {
      case Kind::kCounter:
        fam->totals.assign(n, 0);
        break;
      case Kind::kGauge:
        fam->gauges.assign(n, {});
        break;
      case Kind::kHistogram:
        fam->maxima.assign(n, 0);
        fam->sampled.resize(sample_ranks_.size());
        break;
    }
    it = families_.emplace(name, std::move(fam)).first;
  }
  NARMA_CHECK(it->second->kind == kind)
      << "metric '" << name << "' re-registered with a different kind";
  return *it->second;
}

const detail::Family* Registry::find(const std::string& name) const {
  auto it = families_.find(name);
  return it == families_.end() ? nullptr : it->second.get();
}

Counter Registry::counter(const std::string& name, int rank) {
  NARMA_CHECK(rank >= 0 && rank < nranks_) << "bad metric rank " << rank;
  detail::Family& fam = family(name, Kind::kCounter);
  return Counter(&fam.totals[static_cast<std::size_t>(rank)]);
}

Gauge Registry::gauge(const std::string& name, int rank) {
  NARMA_CHECK(rank >= 0 && rank < nranks_) << "bad metric rank " << rank;
  detail::Family& fam = family(name, Kind::kGauge);
  return Gauge(&fam.gauges[static_cast<std::size_t>(rank)], &fam, rank,
               sample_index(rank) >= 0);
}

Histogram Registry::histogram(const std::string& name, int rank) {
  NARMA_CHECK(rank >= 0 && rank < nranks_) << "bad metric rank " << rank;
  detail::Family& fam = family(name, Kind::kHistogram);
  const int si = sample_index(rank);
  HistData* h =
      si >= 0 ? &fam.sampled[static_cast<std::size_t>(si)] : &fam.rest;
  return Histogram(h, &fam.maxima[static_cast<std::size_t>(rank)]);
}

bool Registry::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& [name, fam] : families_) out.push_back(name);
  return out;
}

void Registry::visit(const std::function<void(const CellView&)>& fn) const {
  static const HistData kEmpty;
  const int ns = static_cast<int>(sample_ranks_.size());
  for (const auto& [name, fam] : families_) {
    const bool counter = fam->kind == Kind::kCounter;
    const bool gauge = fam->kind == Kind::kGauge;
    for (int i = 0; i < ns; ++i) {
      const auto r = static_cast<std::size_t>(sample_ranks_[i]);
      fn(CellView{name, fam->kind, sample_ranks_[i], i,
                  counter ? fam->totals[r] : 0,
                  gauge ? fam->gauges[r].level : 0,
                  gauge ? fam->gauges[r].high_water : 0,
                  fam->sampled.empty()
                      ? kEmpty
                      : fam->sampled[static_cast<std::size_t>(i)]});
    }
    if (ns == nranks_) continue;
    // Remainder row: fold every unsampled rank (histograms already share
    // one remainder).
    std::uint64_t count = 0;
    std::int64_t level = 0, hw = 0;
    for (int r = 0; r < nranks_ && (counter || gauge); ++r) {
      if (sample_index(r) >= 0) continue;
      const auto ur = static_cast<std::size_t>(r);
      if (counter) {
        count += fam->totals[ur];
      } else {
        level = std::max(level, fam->gauges[ur].level);
        hw = std::max(hw, fam->gauges[ur].high_water);
      }
    }
    fn(CellView{name, fam->kind, -1, ns, count, level, hw, fam->rest});
  }
}

std::uint64_t Registry::counter_value(const std::string& name,
                                      int rank) const {
  const detail::Family* fam = find(name);
  if (!fam || fam->totals.empty() || rank < 0 || rank >= nranks_) return 0;
  return fam->totals[static_cast<std::size_t>(rank)];
}

std::int64_t Registry::gauge_value(const std::string& name, int rank) const {
  const detail::Family* fam = find(name);
  if (!fam || fam->gauges.empty() || rank < 0 || rank >= nranks_) return 0;
  return fam->gauges[static_cast<std::size_t>(rank)].level;
}

std::int64_t Registry::gauge_high_water(const std::string& name,
                                        int rank) const {
  const detail::Family* fam = find(name);
  if (!fam || fam->gauges.empty() || rank < 0 || rank >= nranks_) return 0;
  return fam->gauges[static_cast<std::size_t>(rank)].high_water;
}

const HistData* Registry::hist_data(const std::string& name, int rank) const {
  const detail::Family* fam = find(name);
  if (!fam || fam->sampled.empty() || rank < 0 || rank >= nranks_)
    return nullptr;
  const int si = sample_index(rank);
  return si >= 0 ? &fam->sampled[static_cast<std::size_t>(si)] : nullptr;
}

std::uint64_t Registry::aggregate_counter_sum(const std::string& name) const {
  const detail::Family* fam = find(name);
  if (!fam) return 0;
  std::uint64_t s = 0;
  for (std::uint64_t t : fam->totals) s += t;
  return s;
}

int Registry::aggregate_counter_active(const std::string& name) const {
  const detail::Family* fam = find(name);
  if (!fam) return 0;
  int n = 0;
  for (std::uint64_t t : fam->totals) n += t != 0;
  return n;
}

std::int64_t Registry::aggregate_gauge_hw(const std::string& name) const {
  const detail::Family* fam = find(name);
  if (!fam) return 0;
  std::int64_t hw = 0;
  for (const auto& g : fam->gauges) hw = std::max(hw, g.high_water);
  return hw;
}

std::int64_t Registry::aggregate_gauge_last(const std::string& name) const {
  const detail::Family* fam = find(name);
  return fam ? fam->last : 0;
}

HistData Registry::aggregate_hist(const std::string& name) const {
  HistData h;
  const detail::Family* fam = find(name);
  if (!fam) return h;
  for (const HistData& s : fam->sampled) h.merge(s);
  h.merge(fam->rest);
  return h;
}

std::vector<Registry::OutlierView> Registry::outliers(
    const std::string& name) const {
  std::vector<OutlierView> out;
  const detail::Family* fam = find(name);
  if (!fam || outlier_k_ <= 0) return out;
  for (int r = 0; r < nranks_; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    const std::int64_t score =
        fam->kind == Kind::kCounter ? static_cast<std::int64_t>(fam->totals[ur])
        : fam->kind == Kind::kGauge
            ? fam->gauges[ur].high_water
            : static_cast<std::int64_t>(fam->maxima[ur]);
    if (score != 0) out.push_back({r, score});
  }
  const auto k = std::min(out.size(),
                          static_cast<std::size_t>(outlier_k_));
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k),
                    out.end(), [](const OutlierView& a, const OutlierView& b) {
                      if (a.value != b.value) return a.value > b.value;
                      return a.rank < b.rank;
                    });
  out.resize(k);
  return out;
}

std::size_t Registry::footprint_bytes() const {
  std::size_t b = sizeof(Registry) + sample_ranks_.size() * sizeof(int);
  for (const auto& [name, fam] : families_) {
    // Map node (~3 pointers + color) plus the family and its arrays.
    b += 4 * sizeof(void*) + name.size() + sizeof(detail::Family) +
         fam->name.size();
    b += fam->totals.size() * sizeof(std::uint64_t);
    b += fam->gauges.size() * sizeof(detail::GaugeSlot);
    b += fam->maxima.size() * sizeof(std::uint64_t);
    b += fam->sampled.size() * sizeof(HistData);
  }
  return b;
}

std::string Registry::to_json() const {
  std::ostringstream os;
  const auto emit_hist = [&os](const HistData& h) {
    // Interpolated percentiles (see HistData::quantile); exact for
    // single-valued distributions, so dashboards need not re-derive them
    // from the bucket vector.
    os << "\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"min\":" << h.min << ",\"max\":" << h.max
       << ",\"p50\":" << h.quantile(0.50) << ",\"p90\":" << h.quantile(0.90)
       << ",\"p99\":" << h.quantile(0.99) << ",\"buckets\":[";
    bool first_b = true;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      if (!first_b) os << ',';
      first_b = false;
      const std::uint64_t lo = i == 0 ? 0 : (1ull << (i - 1));
      const std::uint64_t hi = i == 0 ? 0 : (1ull << i) - 1;
      os << "{\"lo\":" << lo << ",\"hi\":" << hi
         << ",\"count\":" << h.buckets[i] << '}';
    }
    os << ']';
  };
  os << "{\"schema\":\"narma.metrics.v2\",\"nranks\":" << nranks_
     << ",\"sample_ranks\":[";
  for (std::size_t i = 0; i < sample_ranks_.size(); ++i) {
    if (i) os << ',';
    os << sample_ranks_[i];
  }
  os << "],\"outlier_k\":" << std::max(0, outlier_k_)
     << ",\"metrics\":[";
  bool first_fam = true;
  for (const auto& [name, fam] : families_) {
    if (!first_fam) os << ',';
    first_fam = false;
    const char* kind = fam->kind == Kind::kCounter   ? "counter"
                       : fam->kind == Kind::kGauge   ? "gauge"
                                                     : "histogram";
    os << "{\"name\":\"" << name << "\",\"kind\":\"" << kind
       << "\",\"aggregate\":{";
    switch (fam->kind) {
      case Kind::kCounter: {
        std::uint64_t mx = 0;
        for (std::uint64_t t : fam->totals) mx = std::max(mx, t);
        os << "\"sum\":" << aggregate_counter_sum(name)
           << ",\"active_ranks\":" << aggregate_counter_active(name)
           << ",\"max\":" << mx;
        break;
      }
      case Kind::kGauge:
        os << "\"last\":" << fam->last
           << ",\"high_water\":" << aggregate_gauge_hw(name);
        break;
      case Kind::kHistogram:
        emit_hist(aggregate_hist(name));
        break;
    }
    os << "},\"outliers\":[";
    const auto out = outliers(name);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i) os << ',';
      os << "{\"rank\":" << out[i].rank << ",\"value\":" << out[i].value
         << '}';
    }
    os << "],\"sampled\":[";
    for (std::size_t i = 0; i < sample_ranks_.size(); ++i) {
      if (i) os << ',';
      const auto r = static_cast<std::size_t>(sample_ranks_[i]);
      os << "{\"rank\":" << r;
      switch (fam->kind) {
        case Kind::kCounter:
          os << ",\"value\":" << fam->totals[r];
          break;
        case Kind::kGauge:
          os << ",\"value\":" << fam->gauges[r].level
             << ",\"high_water\":" << fam->gauges[r].high_water;
          break;
        case Kind::kHistogram:
          os << ',';
          emit_hist(fam->sampled[i]);
          break;
      }
      os << '}';
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

bool Registry::write_json(const std::string& path) const {
  return json::write_file(path, to_json());
}

}  // namespace narma::obs
