// Span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own files around calls into the
// library's public functions; nothing inside the library is instrumented.
// A span holds its name, start and end (seconds since the tracer's epoch) and
// the index of the span that was open when it started. Spans stay in memory
// until the run ends; self times are derived from them afterwards.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name;  ///< static string: the layer call this span wraps
  double start_s;
  double end_s;
  int parent;  ///< index of the enclosing span, -1 at top level
  double duration_s() const { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  const std::string& workload() const { return workload_; }
  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    open_ = -1;
  }

  /// Duration of every span named `name`, in recording order.
  std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.duration_s());
    }
    return out;
  }

  /// Per span name: summed duration minus the part covered by direct
  /// children (children never overlap: one thread records every span).
  std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration_s();
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration_s();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

 private:
  int open(const char* name) {
    spans_.push_back({name, now(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void close(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_s = now();
    open_ = s.parent;
  }
  double now() const { return seconds_between(epoch_, Clock::now()); }

  std::string workload_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
