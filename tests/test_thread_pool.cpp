#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/thread_pool.hpp"

namespace bmf {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(8), 8);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
}

TEST(ThreadPool, SizeMatchesConfiguredConcurrency) {
  for (int t : {1, 2, 4, 8}) {
    ThreadPool pool(t);
    EXPECT_EQ(pool.size(), t);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (int t : {1, 2, 8}) {
    ThreadPool pool(t);
    constexpr std::int64_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
    for (std::int64_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyAndSingleton) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::int64_t i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(8, [&](std::int64_t) {
    pool.parallel_for(8, [&](std::int64_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::int64_t i) {
                                   ++hits[static_cast<std::size_t>(i)];
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " after the throw";

  // The pool stays usable: the next loop covers every index once.
  std::vector<std::atomic<int>> again(100);
  pool.parallel_for(100, [&](std::int64_t i) { ++again[static_cast<std::size_t>(i)]; });
  for (std::size_t i = 0; i < again.size(); ++i)
    EXPECT_EQ(again[i].load(), 1) << "index " << i << " of the second loop";
}

/// Distinct thread ids that ran fn's indices.
class ThreadIds {
 public:
  void record() {
    const MutexLock lock(mutex_);
    ids_.insert(std::this_thread::get_id());
  }
  [[nodiscard]] std::size_t count() {
    const MutexLock lock(mutex_);
    return ids_.size();
  }

 private:
  Mutex mutex_;
  std::set<std::thread::id> ids_ BMF_GUARDED_BY(mutex_);
};

TEST(ThreadPool, ParallelForUsesAtMostWidthThreads) {
  ThreadPool pool(4);
  for (int width : {1, 2, 3}) {
    ThreadIds ids;
    std::vector<std::atomic<int>> hits(2000);
    pool.parallel_for(
        2000,
        [&](std::int64_t i) {
          ids.record();
          ++hits[static_cast<std::size_t>(i)];
        },
        width);
    EXPECT_LE(ids.count(), static_cast<std::size_t>(width)) << "width=" << width;
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "width=" << width << " index " << i;
  }
}

TEST(ThreadPool, ConcurrentCallersTakeTurns) {
  ThreadPool pool(4);
  constexpr int kLoops = 20;
  constexpr std::int64_t kN = 5000;
  const auto run = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int loop = 0; loop < kLoops; ++loop)
      pool.parallel_for(kN, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  };
  std::vector<std::atomic<int>> mine(kN), theirs(kN);
  std::thread other([&] { run(theirs); });
  run(mine);
  other.join();
  for (std::size_t i = 0; i < static_cast<std::size_t>(kN); ++i) {
    ASSERT_EQ(mine[i].load(), kLoops) << "index " << i;
    ASSERT_EQ(theirs[i].load(), kLoops) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForThreadsHelperMatchesSerial) {
  constexpr std::int64_t kN = 4096;
  std::vector<std::int64_t> serial(kN), parallel(kN);
  for (std::int64_t i = 0; i < kN; ++i) serial[static_cast<std::size_t>(i)] = i * i;
  parallel_for_threads(8, kN, [&](std::int64_t i) {
    parallel[static_cast<std::size_t>(i)] = i * i;
  });
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, ParallelForThreadsIsCappedAtHardwareConcurrency) {
  ThreadIds ids;
  parallel_for_threads(16, 64, [&](std::int64_t) {
    ids.record();
    // Long enough that every pool thread that exists takes part.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_LE(ids.count(), static_cast<std::size_t>(ThreadPool::resolve_threads(0)));
}

}  // namespace
}  // namespace bmf
