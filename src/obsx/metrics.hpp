// Metrics registry (src/obsx): named monotonic counters and fixed-bucket
// histograms, registered once per subsystem and read everywhere.
//
// The §4 evaluation is built on counting what the mesh did; before this
// module the counts lived in ad-hoc member variables duplicated between
// sim::BroadcastMedium, core::CityMeshNetwork, and the benches. Subsystems
// now register their counters here (the medium's transmission/delivery tally
// is the single source of truth) and consumers take a MetricsSnapshot —
// a plain value that merges across runs/seeds and serializes into the run
// manifest (manifest.hpp).
//
// Handles returned by counter()/histogram() are stable for the registry's
// lifetime, so hot paths hold a pointer and pay one increment per event.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace citymesh::obsx {

/// A monotonically increasing event count. reset() exists for per-run reuse
/// of a long-lived registry (benches measuring deltas); within a run the
/// value only grows.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Snapshot of one histogram: `bounds` are ascending inclusive upper bucket
/// edges; `counts` has bounds.size()+1 entries, the last being the overflow
/// bucket (> bounds.back()). A value v lands in the first bucket with
/// v <= bounds[i].
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0.0;

  double mean() const { return total ? sum / static_cast<double>(total) : 0.0; }
  bool operator==(const HistogramSnapshot&) const = default;
};

/// Fixed-bucket histogram. Buckets never reallocate, so record() is a
/// branchless-ish upper_bound plus two adds — cheap enough for per-packet
/// paths.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double v);
  std::uint64_t total() const { return total_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  HistogramSnapshot snapshot() const { return {bounds_, counts_, total_, sum_}; }
  void reset();

  /// Accumulate `sum` in exact multiples of `q` (each recorded value is
  /// rounded to the nearest multiple before adding; bucket assignment still
  /// uses the raw value). Because every partial sum is then exactly
  /// representable (while it stays below 2^53 * q), addition is associative
  /// and the sum depends only on the multiset of recorded values — not on
  /// the order events happened to run in. The tiled engine (src/shardx)
  /// sets this on per-shard latency histograms so merged snapshots are
  /// identical for every shard count K >= 2. 0 (default) disables
  /// quantization — the legacy accumulate-in-arrival-order behavior.
  void set_sum_quantum(double q) { sum_quantum_ = q; }
  double sum_quantum() const { return sum_quantum_; }

  /// Add `total` values already bucketed into `counts` (one per bucket)
  /// whose rounded sum is `quanta` multiples of the sum quantum
  /// (HistogramTally). Requires a sum quantum.
  void add_quantized(std::span<const std::uint64_t> counts, std::uint64_t total,
                     std::int64_t quanta);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double sum_quantum_ = 0.0;
};

/// Many values recorded into one Histogram in a single step: per value a
/// bucket count and, when the histogram has a sum quantum, an integer count
/// of quanta; flush() adds them all. The result equals recording each value
/// with record() while the sum stays below 2^53 quanta: buckets are assigned
/// the same way, and a quantized sum only ever adds exact multiples of the
/// quantum, so one integer count of them adds exactly the same total. A
/// negative value, one of 2^62 quanta or more, and a NaN go to record()
/// itself, as does every value of a histogram without a quantum (it keeps
/// its arrival-order sum). The medium keeps one tally per fan-out
/// (sim/medium.hpp).
class HistogramTally {
 public:
  /// Target `hist` (nullptr: add() ignores values). Flushes first when the
  /// target changes.
  void bind(Histogram* hist) {
    if (hist == hist_) return;
    flush();
    hist_ = hist;
    if (hist_ == nullptr) return;
    bounds_ = hist_->bounds();
    hint_ = 0;
    quantum_ = hist_->sum_quantum();
    // A power-of-two quantum divides exactly by multiplying by its inverse.
    int exponent = 0;
    inverse_ = quantum_ > 0.0 && std::frexp(quantum_, &exponent) == 0.5 ? 1.0 / quantum_ : 0.0;
    counts_.assign(bounds_.size() + 1, 0);
  }

  void add(double v) {
    if (hist_ == nullptr) return;
    if (quantum_ <= 0.0) {
      hist_->record(v);
      return;
    }
    const double x = inverse_ > 0.0 ? v * inverse_ : v / quantum_;
    if (!(x >= 0.0 && x < 0x1p62)) {
      hist_->record(v);
      return;
    }
    ++counts_[bucket_of(v)];
    // record()'s std::round(x), halves away from zero, without the libm
    // call: below 2^62 truncation is exact and so is x - trunc(x) (trunc(x)
    // is 0, or within a factor of two of x).
    const auto whole = static_cast<std::int64_t>(x);
    quanta_ += whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
  }

  /// Add everything since the last flush to the histogram.
  void flush() {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts_) total += c;
    if (total == 0) return;
    hist_->add_quantized(counts_, total, quanta_);
    std::fill(counts_.begin(), counts_.end(), 0);
    quanta_ = 0;
  }

 private:
  /// record()'s bucket for v: the number of bounds below v, its lower_bound
  /// index. One fan-out's latencies mostly share a bucket (over 99.98% of the
  /// values tallied on each perfbench workload do), so the previous value's
  /// is tested first; a miss counts the bounds without a branch.
  std::size_t bucket_of(double v) {
    const std::size_t h = hint_;
    if ((h == 0 || bounds_[h - 1] < v) && (h == bounds_.size() || !(bounds_[h] < v))) return h;
    std::size_t bucket = 0;
    for (const double bound : bounds_) bucket += bound < v ? 1 : 0;
    hint_ = bucket;
    return bucket;
  }

  Histogram* hist_ = nullptr;
  std::span<const double> bounds_;  ///< hist_'s, which never reallocate
  std::size_t hint_ = 0;            ///< the last added value's bucket
  double quantum_ = 0.0;
  double inverse_ = 0.0;  ///< 1 / quantum_ when that is exact, else 0
  std::vector<std::uint64_t> counts_;  ///< per bucket since the last flush
  std::int64_t quanta_ = 0;
};

/// Evenly spaced bucket bounds: first, first+step, ..., n of them.
std::vector<double> linear_buckets(double first, double step, std::size_t n);
/// Geometric bucket bounds: first, first*ratio, ..., n of them.
std::vector<double> exponential_buckets(double first, double ratio, std::size_t n);

/// A mergeable, serializable value capture of a registry. Counters merge by
/// summation; histograms merge bucket-wise and require identical bounds.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Merge another run/seed into this one. Throws std::invalid_argument on
  /// histogram bound mismatches (merging incompatible runs is a bug).
  void merge(const MetricsSnapshot& other);

  /// Deterministic JSON object (keys sorted by std::map, numbers via
  /// shortest-round-trip formatting): same state => byte-identical output.
  void write_json(std::ostream& os, int indent = 0) const;
  std::string to_json() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Owner of named metrics. get-or-create semantics; re-requesting a
/// histogram with different bounds throws (two subsystems disagreeing about
/// a metric's shape is a bug, not a runtime condition).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  const Counter* find_counter(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  MetricsSnapshot snapshot() const;
  /// Zero every metric (per-run reuse); registrations survive.
  void reset();

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace citymesh::obsx
