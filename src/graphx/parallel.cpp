#include "graphx/parallel.hpp"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

namespace citymesh::graphx {

namespace {

/// The innermost CpuShare on this thread.
thread_local CpuShare::State t_share;

}  // namespace

std::size_t affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return 1;
}

std::size_t compile_cpus() {
  const std::size_t cpus = affinity_cpus();
  return t_share.cpus == 0 ? cpus : std::min(cpus, t_share.cpus);
}

std::size_t idle_cpus() {
  const std::size_t cpus = compile_cpus();
  const std::size_t lent = t_share.lent == nullptr ? 0 : t_share.lent->load();
  return lent < cpus ? cpus - lent : 1;
}

CpuShare::CpuShare(std::size_t cpus, const std::atomic<std::size_t>* lent) : saved_(t_share) {
  t_share = {std::max<std::size_t>(cpus, 1), lent};
}

CpuShare::~CpuShare() { t_share = saved_; }

}  // namespace citymesh::graphx
