// Parallel sweep engine: runs independent simulation cells — one
// (system, config, seed) experiment each — across a work-stealing pool
// of std::threads and reduces the results in cell-index order.
//
// Determinism contract: a cell is a pure function of its spec (every
// cell owns its Simulator, Network, Rng streams, and telemetry sinks —
// nothing in the protocol stack is global), and map_ordered() writes
// each result into the slot of its cell index, so the reduced output is
// byte-identical for any jobs count, including jobs = 1. The golden
// serial-vs-parallel tests in tests/parallel_determinism_test.cpp hold
// this line; scheduling order is the ONLY thing allowed to vary.
//
// The pool itself keeps no global state: each worker owns a deque of
// cell indices (seeded round-robin at start) and a private Rng stream
// for victim selection when it runs dry and steals from the back of a
// peer's deque.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace cam::runtime {

/// The cores this process may run on: its affinity mask
/// (sched_getaffinity), which `taskset` or a container narrows, not
/// the machine's hardware thread count. At least 1.
std::size_t usable_cores();

/// Resolves a --jobs request: 0 means "one worker per usable core";
/// anything else is taken literally.
std::size_t effective_jobs(std::size_t requested);

/// Fixed-size work-stealing pool over an index space [0, cells).
///
/// run() executes body(i) exactly once for every i and blocks until all
/// cells finished. If any cell throws, the remaining queued cells are
/// abandoned, every worker drains, and the exception of the
/// lowest-indexed failed cell is rethrown on the caller's thread.
class SweepPool {
 public:
  /// jobs = 0 resolves via effective_jobs(); jobs = 1 runs inline on
  /// the calling thread (no threads spawned — the serial baseline).
  explicit SweepPool(std::size_t jobs = 1);

  std::size_t jobs() const { return jobs_; }

  void run(std::size_t cells, const std::function<void(std::size_t)>& body);

  /// Cells executed by a worker that did not own them initially, during
  /// the most recent run() — observability for the stealing tests.
  std::uint64_t steals() const { return steals_; }

 private:
  std::size_t jobs_;
  std::uint64_t steals_ = 0;
};

/// Runs fn(0..cells-1) on a SweepPool and returns the results in cell
/// order — the ordered deterministic reduction every sweep builds on.
/// R must be default-constructible and movable.
template <class Fn>
auto map_ordered(std::size_t cells, std::size_t jobs, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> out(cells);
  SweepPool pool(jobs);
  pool.run(cells, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace cam::runtime
