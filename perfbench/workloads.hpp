// The benchmark's workloads. Each one owns its inputs (generated from the
// workload seed), builds them in setup(), and runs one repetition of its
// simulated work per rep(). With a Tracer, both calls also record spans
// around the library calls they make (see trace.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The seed whose behavioural digests are pinned in workloads.cpp.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Behavioural outcome of one rep as ordered (name, value) fields. Two reps
/// on the same inputs must agree field for field; wall-clock values never
/// enter a digest.
class Digest {
 public:
  void add(std::string name, std::uint64_t value);
  void add(std::string name, double value);
  std::string hex() const;
  std::string describe() const;
  bool operator==(const Digest&) const = default;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Per-layer counts and sizes read from public accessors, by metric name.
using Counts = std::map<std::string, double>;

struct RepResult {
  double run_s = 0.0;  ///< wall time of the rep's simulated work
  Digest digest;
  std::uint64_t operations = 0;   ///< flows offered, or sends attempted
  std::uint64_t undelivered = 0;  ///< of those, the ones never delivered
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input from scratch (dropping the previous ones first) and
  /// returns the wall time that took. Fills the set-up layers' counts.
  virtual double setup(Tracer* tracer, Counts& counts) = 0;

  /// Threads a rep keeps busy: the tile count of a tiled network, else 1.
  virtual std::size_t threads() const { return 1; }

  /// One repetition on a freshly built network; building it is not timed.
  /// Untraced, it calls the library's own driver for the workload. Traced,
  /// it replays the same driver from public calls with a span around each,
  /// so both must produce the same digest.
  virtual RepResult rep(Tracer* tracer, Counts& counts) = 0;

  /// Checks of the traced run beyond digest identity; throws on a mismatch.
  virtual void cross_check(const Digest& expected) { (void)expected; }

  /// Digest of kDefaultSeed's inputs.
  virtual std::string_view pinned_digest() const = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);

const std::vector<std::string_view>& workload_names();

}  // namespace perfbench
