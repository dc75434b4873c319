#include "obsx/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obsx/json.hpp"

namespace citymesh::obsx {

// -------------------------------------------------------------- Histogram ---

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument{"Histogram: no buckets"};
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument{"Histogram: bounds must ascend"};
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++total_;
  sum_ += sum_quantum_ > 0.0 ? std::round(v / sum_quantum_) * sum_quantum_ : v;
}

void Histogram::add_quantized(std::span<const std::uint64_t> counts, std::uint64_t total,
                              std::int64_t quanta) {
  if (counts.size() != counts_.size() || !(sum_quantum_ > 0.0)) {
    throw std::invalid_argument{"Histogram::add_quantized: shape or quantum mismatch"};
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts_[i] += counts[i];
  total_ += total;
  sum_ += static_cast<double>(quanta) * sum_quantum_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
}

std::vector<double> linear_buckets(double first, double step, std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(first + step * static_cast<double>(i));
  return out;
}

std::vector<double> exponential_buckets(double first, double ratio, std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  double v = first;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(v);
    v *= ratio;
  }
  return out;
}

// -------------------------------------------------------- MetricsSnapshot ---

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, hist] : other.histograms) {
    const auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms.emplace(name, hist);
      continue;
    }
    HistogramSnapshot& mine = it->second;
    if (mine.bounds != hist.bounds) {
      throw std::invalid_argument{"MetricsSnapshot::merge: bounds mismatch for " + name};
    }
    for (std::size_t i = 0; i < mine.counts.size(); ++i) {
      mine.counts[i] += hist.counts[i];
    }
    mine.total += hist.total;
    mine.sum += hist.sum;
  }
}

namespace {

void write_indent(std::ostream& os, int indent) {
  for (int i = 0; i < indent; ++i) os << ' ';
}

void write_histogram_json(std::ostream& os, const HistogramSnapshot& h) {
  os << "{\"bounds\":[";
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    if (i) os << ',';
    os << json_number(h.bounds[i]);
  }
  os << "],\"counts\":[";
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (i) os << ',';
    os << json_number(h.counts[i]);
  }
  os << "],\"total\":" << json_number(h.total) << ",\"sum\":" << json_number(h.sum)
     << '}';
}

}  // namespace

void MetricsSnapshot::write_json(std::ostream& os, int indent) const {
  os << "{\n";
  write_indent(os, indent + 2);
  os << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "\n" : ",\n");
    write_indent(os, indent + 4);
    os << '"' << json_escape(name) << "\": " << json_number(value);
    first = false;
  }
  if (!first) {
    os << '\n';
    write_indent(os, indent + 2);
  }
  os << "},\n";
  write_indent(os, indent + 2);
  os << "\"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    os << (first ? "\n" : ",\n");
    write_indent(os, indent + 4);
    os << '"' << json_escape(name) << "\": ";
    write_histogram_json(os, hist);
    first = false;
  }
  if (!first) {
    os << '\n';
    write_indent(os, indent + 2);
  }
  os << "}\n";
  write_indent(os, indent);
  os << '}';
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

// -------------------------------------------------------- MetricsRegistry ---

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string{name}, std::make_unique<Counter>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    if (!std::equal(bounds.begin(), bounds.end(), it->second->bounds().begin(),
                    it->second->bounds().end())) {
      throw std::invalid_argument{"MetricsRegistry: bounds mismatch for " +
                                  std::string{name}};
    }
    return *it->second;
  }
  return *histograms_
              .emplace(std::string{name}, std::make_unique<Histogram>(
                                              std::vector<double>{bounds.begin(),
                                                                  bounds.end()}))
              .first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace(name, hist->snapshot());
  }
  return snap;
}

void MetricsRegistry::reset() {
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, hist] : histograms_) hist->reset();
}

}  // namespace citymesh::obsx
