// Concurrency stress tests for util/thread_pool.h's parallel_for, written
// to run under ThreadSanitizer (the tsan CMake preset): repeated fan-out,
// edge sizes, exception propagation, and the shared-counter dealing that
// lets free workers take the next index while one index is still
// running. Assertions are deliberately simple — the point is giving TSan
// enough interleavings to catch races on the counter and the results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace dsp {
namespace {

TEST(ThreadPoolStressTest, RepeatedParallelForChurn) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    parallel_for(64, 4, [&sum](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64u * 65u / 2u);
  }
}

TEST(ThreadPoolStressTest, ParallelForEdgeSizes) {
  std::atomic<int> calls{0};
  parallel_for(0, 4, [&calls](std::size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 0);
  parallel_for(1, 4, [&calls](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolStressTest, ParallelForCoversEveryIndexOnce) {
  // n far larger than the worker count: the shared counter must still
  // hand out every index exactly once.
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, 3, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolStressTest, ParallelForPropagatesException) {
  std::atomic<int> calls{0};
  EXPECT_THROW(parallel_for(256, 4,
                            [&calls](std::size_t i) {
                              calls.fetch_add(1, std::memory_order_relaxed);
                              if (i == 17) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  EXPECT_GT(calls.load(), 0);
  EXPECT_LE(calls.load(), 256);
}

TEST(ThreadPoolStressTest, SingleWorkerParallelForRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  parallel_for(8, 1,
               [&ids](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolStressTest, LongIndexDoesNotHoldBackOthers) {
  // Index 0 runs until every other index has finished. Dealt one at a
  // time from a shared counter, the other indices go to the free
  // workers. Dealt in contiguous blocks, index 0's block would hold
  // indices that cannot start before it returns, so the wait times out.
  constexpr std::size_t kN = 64;
  std::atomic<std::size_t> done{0};
  std::size_t seen_by_index0 = 0;  // written by index 0's worker only
  parallel_for(kN, 4, [&](std::size_t i) {
    if (i != 0) {
      done.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((seen_by_index0 = done.load()) < kN - 1 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_EQ(seen_by_index0, kN - 1)
      << "index 0 timed out waiting for the other indices";
  EXPECT_EQ(done.load(), kN - 1);
}

}  // namespace
}  // namespace dsp
