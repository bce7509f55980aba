#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/json.h"
#include "util/stats.h"

namespace dsp::obs {

void write_json_string(std::ostream& out, std::string_view s) {
  std::string buf;
  buf.reserve(s.size() + 2);
  buf += '"';
  json_escape_append(buf, s);
  buf += '"';
  out << buf;
}

void write_json_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  out << buf;
}

void Histo::add(double x) {
  // A NaN sample would poison min/max/sum and sort unpredictably in the
  // percentile pass; non-finite samples are dropped instead.
  if (!std::isfinite(x)) return;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
  keep(x);
}

void Histo::keep(double x) {
  if (samples_.size() < max_samples_) {
    samples_.push_back(x);
    return;
  }
  samples_[oldest_] = x;
  oldest_ = (oldest_ + 1) % max_samples_;
}

void Histo::merge(const Histo& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
  const std::size_t n = other.samples_.size();
  for (std::size_t i = 0; i < n; ++i)
    keep(other.samples_[(other.oldest_ + i) % n]);
}

Histo::Snapshot Histo::snapshot() const {
  Snapshot s;
  s.count = count_;
  if (count_ == 0) return s;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.mean = sum_ / static_cast<double>(count_);
  s.p50 = percentile(samples_, 0.50);
  s.p95 = percentile(samples_, 0.95);
  s.p99 = percentile(samples_, 0.99);
  return s;
}

void Histo::reset() {
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
  samples_.clear();
  oldest_ = 0;
}

namespace {

/// Catalogue index of `name`, or `count` when it is not listed.
template <std::size_t N>
std::size_t find_name(const std::string_view (&names)[N],
                      std::string_view name) {
  return static_cast<std::size_t>(std::find(names, names + N, name) - names);
}

}  // namespace

Counter* MetricsRegistry::counter(std::string_view name) {
  const std::size_t i = find_name(kCounterNames, name);
  return i < kCounterCount ? &counters_[i] : nullptr;
}

Histo* MetricsRegistry::histogram(std::string_view name) {
  const std::size_t i = find_name(kHistogramNames, name);
  return i < kHistogramCount ? &histograms_[i] : nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (std::size_t i = 0; i < kCounterCount; ++i)
    counters_[i].add(other.counters_[i].value());
  for (std::size_t i = 0; i < kHistogramCount; ++i)
    histograms_[i].merge(other.histograms_[i]);
}

void MetricsRegistry::to_json(std::ostream& out) const {
  out << "{\"counters\":{";
  bool first = true;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::uint64_t value = counters_[i].value();
    if (value == 0) continue;
    if (!first) out << ',';
    first = false;
    write_json_string(out, kCounterNames[i]);
    out << ':' << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    const Histo::Snapshot s = histograms_[i].snapshot();
    if (s.count == 0) continue;
    if (!first) out << ',';
    first = false;
    write_json_string(out, kHistogramNames[i]);
    out << ":{\"count\":" << s.count << ",\"sum\":";
    write_json_number(out, s.sum);
    out << ",\"min\":";
    write_json_number(out, s.min);
    out << ",\"max\":";
    write_json_number(out, s.max);
    out << ",\"mean\":";
    write_json_number(out, s.mean);
    out << ",\"p50\":";
    write_json_number(out, s.p50);
    out << ",\"p95\":";
    write_json_number(out, s.p95);
    out << ",\"p99\":";
    write_json_number(out, s.p99);
    out << '}';
  }
  out << "}}";
}

void MetricsRegistry::reset() {
  for (Counter& c : counters_) c.reset();
  for (Histo& h : histograms_) h.reset();
}

MetricsRegistry& detail::bind_thread_registry() {
  thread_local MetricsRegistry own;
  t_current = &own;
  return own;
}

}  // namespace dsp::obs
