#include "runtime/sweep_pool.h"

#include <sched.h>

#include <atomic>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "util/rng.h"

namespace cam::runtime {

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t effective_jobs(std::size_t requested) {
  return requested != 0 ? requested : usable_cores();
}

SweepPool::SweepPool(std::size_t jobs) : jobs_(effective_jobs(jobs)) {}

namespace {

/// One worker's deque of cell indices. Own pops come from the front,
/// steals from the back — classic Chase-Lev shape, implemented with a
/// plain mutex: cells here are whole simulations (milliseconds to
/// seconds each), so queue contention is noise.
struct WorkQueue {
  std::mutex mu;
  std::deque<std::size_t> cells;

  bool pop_front(std::size_t& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (cells.empty()) return false;
    out = cells.front();
    cells.pop_front();
    return true;
  }
  bool steal_back(std::size_t& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (cells.empty()) return false;
    out = cells.back();
    cells.pop_back();
    return true;
  }
};

}  // namespace

void SweepPool::run(std::size_t cells,
                    const std::function<void(std::size_t)>& body) {
  steals_ = 0;
  if (cells == 0) return;
  const std::size_t workers = std::min(jobs_, cells);
  if (workers <= 1) {
    for (std::size_t i = 0; i < cells; ++i) body(i);
    return;
  }

  // Round-robin seeding spreads a cost gradient (cells often get bigger
  // with index — larger n, longer plans) across all workers up front.
  std::vector<WorkQueue> queues(workers);
  for (std::size_t i = 0; i < cells; ++i) {
    queues[i % workers].cells.push_back(i);
  }

  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> steals{0};
  std::mutex err_mu;
  std::size_t err_cell = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  auto worker = [&](std::size_t me) {
    // Private RNG stream for victim selection — per-worker, seeded by
    // worker index only; cell results never observe it.
    Rng rng(0x5EEDC0DEULL ^ me);
    std::size_t cell = 0;
    while (!abort.load(std::memory_order_relaxed)) {
      bool got = queues[me].pop_front(cell);
      if (!got) {
        // Own queue dry: try every peer once, starting at a random
        // victim so idle workers don't convoy on the same queue.
        const std::size_t start = rng.next_below(workers);
        for (std::size_t k = 0; k < workers && !got; ++k) {
          const std::size_t victim = (start + k) % workers;
          if (victim == me) continue;
          got = queues[victim].steal_back(cell);
        }
        if (got) steals.fetch_add(1, std::memory_order_relaxed);
      }
      if (!got) return;  // every queue empty: sweep complete
      try {
        body(cell);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (cell < err_cell) {
          err_cell = cell;
          err = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();
  steals_ = steals.load();
  if (err) std::rethrow_exception(err);
}

}  // namespace cam::runtime
