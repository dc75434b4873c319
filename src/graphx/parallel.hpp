// The CPUs a city compile may use, and the fork-join that spreads it over
// them (graphx::LinkBuilder's banded sweeps, core::CompiledCity's building
// graph beside its AP network).
//
// A compile uses the CPUs its calling thread may run on: the size of the
// thread's affinity mask (sched_getaffinity), never
// std::thread::hardware_concurrency(), which ignores `taskset` and a
// benchmark that pins each rep to its own CPUs. A thread that is one of
// several parallel workers holds a CpuShare, which caps what a compile on it
// takes (runx gives each sweep worker its share of the caller's CPUs), so
// nested and concurrent compiles never start more threads than there are
// CPUs. The count only decides how the work is split: every compiled graph
// is byte-identical at every count.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace citymesh::graphx {

/// CPUs in the calling thread's affinity mask; 1 where it cannot be read.
std::size_t affinity_cpus();

/// CPUs a compile on the calling thread may use: affinity_cpus(), capped by
/// the innermost CpuShare alive on this thread. At least 1. It sets how
/// finely work splits; idle_cpus() sets how many threads run the pieces.
std::size_t compile_cpus();

/// compile_cpus() minus those of the innermost CpuShare lent to another
/// thread right now. At least 1.
std::size_t idle_cpus();

/// Caps compile_cpus() on the constructing thread until it is destroyed.
/// Shares nest: an inner one replaces the outer one for its lifetime. With
/// `lent`, *lent of the share's CPUs are busy on another thread of the same
/// job for now (it lowers the count when it finishes), and idle_cpus()
/// leaves them out.
class CpuShare {
 public:
  explicit CpuShare(std::size_t cpus, const std::atomic<std::size_t>* lent = nullptr);
  ~CpuShare();
  CpuShare(const CpuShare&) = delete;
  CpuShare& operator=(const CpuShare&) = delete;

  struct State {
    std::size_t cpus = 0;  ///< 0: no share
    const std::atomic<std::size_t>* lent = nullptr;
  };

 private:
  State saved_;
};

/// Run fn(0), ..., fn(count - 1) at once: fn(0) on the caller, each other
/// index on a thread of its own. Returns when all are done, then rethrows
/// the exception of the lowest index that threw. Starts no thread when
/// count <= 1.
template <class Fn>
void fork_join(std::size_t count, Fn&& fn) {
  if (count <= 1) {
    if (count == 1) fn(std::size_t{0});
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  const auto task = [&](std::size_t k) {
    try {
      fn(k);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(count - 1);
  try {
    for (std::size_t k = 1; k < count; ++k) helpers.emplace_back(task, k);
  } catch (...) {
    for (std::thread& t : helpers) t.join();
    throw;
  }
  task(0);
  for (std::thread& t : helpers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace citymesh::graphx
