// SweepPool unit tests: every cell runs exactly once, results land in
// cell order for any jobs count, exceptions propagate (lowest cell
// index wins), and a blocked worker provably has its cells stolen.
#include "runtime/sweep_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cam::runtime {
namespace {

TEST(EffectiveJobs, ZeroMeansUsableCores) {
  // The affinity mask, which taskset narrows, never the machine's
  // hardware thread count.
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  EXPECT_EQ(usable_cores(), static_cast<std::size_t>(CPU_COUNT(&set)));
  EXPECT_EQ(effective_jobs(0), usable_cores());
  EXPECT_EQ(effective_jobs(1), 1u);
  EXPECT_EQ(effective_jobs(7), 7u);
}

TEST(SweepPool, RunsEveryCellExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                           std::size_t{16}}) {
    std::vector<std::atomic<int>> hits(37);
    SweepPool pool(jobs);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "cell " << i << " jobs " << jobs;
    }
  }
}

TEST(SweepPool, ZeroCellsIsANoop) {
  SweepPool pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "no cell should run"; });
}

TEST(SweepPool, MoreJobsThanCellsStillRunsEachOnce) {
  std::vector<std::atomic<int>> hits(3);
  SweepPool pool(16);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(MapOrdered, ResultsLandInCellOrderForAnyJobs) {
  auto expected = [](std::size_t i) { return i * i + 1; };
  std::vector<std::size_t> serial =
      map_ordered(64, 1, [&](std::size_t i) { return expected(i); });
  for (std::size_t jobs : {std::size_t{2}, std::size_t{4},
                           effective_jobs(0)}) {
    std::vector<std::size_t> parallel =
        map_ordered(64, jobs, [&](std::size_t i) { return expected(i); });
    EXPECT_EQ(parallel, serial) << "jobs " << jobs;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], expected(i));
  }
}

TEST(MapOrdered, ExceptionOfLowestFailingCellPropagates) {
  // Serial case: the lowest failing cell is simply the first reached.
  EXPECT_THROW(map_ordered(8, 1,
                           [](std::size_t i) -> int {
                             if (i >= 3) throw std::runtime_error(
                                 "cell " + std::to_string(i));
                             return 0;
                           }),
               std::runtime_error);
  // Parallel case: whatever order workers fail in, the reported error
  // is the lowest-indexed failure (best effort, but with every cell
  // failing it must be a failure, never a pass).
  try {
    map_ordered(16, 4, [](std::size_t i) -> int {
      throw std::runtime_error("cell " + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(std::string(e.what()).rfind("cell ", 0) == 0) << e.what();
  }
}

TEST(SweepPool, SerialPoolReportsNoSteals) {
  SweepPool pool(1);
  pool.run(10, [](std::size_t) {});
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(SweepPool, BlockedWorkerHasItsCellsStolen) {
  // Two workers, four cells: round-robin seeding gives worker 0 cells
  // {0, 2} and worker 1 cells {1, 3}. Cell 0 blocks worker 0 until every
  // OTHER cell has finished — which is only possible if worker 1 steals
  // cell 2 from worker 0's deque. Deterministic: no timing assumptions,
  // the condition variable forces the schedule even on one core.
  std::mutex mu;
  std::condition_variable cv;
  int others_done = 0;

  SweepPool pool(2);
  pool.run(4, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      cv.wait(lock, [&] { return others_done == 3; });
    } else {
      ++others_done;
      cv.notify_all();
    }
  });
  EXPECT_GE(pool.steals(), 1u);
}

TEST(MapOrdered, MoveOnlyishResultsViaVectors) {
  auto out = map_ordered(5, 2, [](std::size_t i) {
    return std::vector<int>(i, static_cast<int>(i));
  });
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].size(), i);
  }
}

}  // namespace
}  // namespace cam::runtime
