#include "util/reorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace vanet::util {
namespace {

TEST(ReorderWindowCapTest, IsTwiceTheWorkersAndAtLeastTwo) {
  EXPECT_EQ(reorderWindowCap(0), 2u);
  EXPECT_EQ(reorderWindowCap(1), 2u);
  EXPECT_EQ(reorderWindowCap(4), 8u);
  EXPECT_EQ(reorderWindowCap(16), 32u);
}

TEST(ReorderWindowTest, ReleasesPermutedCompletionsInIndexOrder) {
  // Complete a window's worth of claims in a scrambled order: the fold
  // must still observe 0, 1, 2, ... with the matching payloads.
  std::vector<std::size_t> foldedIndices;
  std::vector<int> foldedValues;
  ReorderWindow<int> window(
      /*count=*/6, /*cap=*/6, [&](std::size_t index, int& value) {
        foldedIndices.push_back(index);
        foldedValues.push_back(value);
      });
  std::size_t claimed = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(window.claim(claimed));
    EXPECT_EQ(claimed, static_cast<std::size_t>(i));
  }
  for (const std::size_t index : {3u, 1u, 5u, 0u, 2u, 4u}) {
    window.complete(index, static_cast<int>(index) * 10);
  }
  window.rethrowIfFailed();
  EXPECT_EQ(foldedIndices, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(foldedValues, (std::vector<int>{0, 10, 20, 30, 40, 50}));
  EXPECT_EQ(window.folded(), 6u);
  // {3,1,5} were parked when 0 arrived and completed the window front.
  EXPECT_EQ(window.peakParked(), 4u);
  EXPECT_FALSE(window.claim(claimed));  // drained
}

TEST(ReorderWindowTest, FailDropsLateCompletionsAndRethrows) {
  int folds = 0;
  ReorderWindow<int> window(4, 4, [&](std::size_t, int&) { ++folds; });
  std::size_t claimed = 0;
  ASSERT_TRUE(window.claim(claimed));
  ASSERT_TRUE(window.claim(claimed));
  window.fail(std::make_exception_ptr(std::runtime_error("job 0 failed")));
  window.complete(1, 11);  // late completion after the failure: dropped
  EXPECT_FALSE(window.claim(claimed));
  EXPECT_EQ(folds, 0);
  EXPECT_THROW(window.rethrowIfFailed(), std::runtime_error);
}

TEST(FoldOrderedTest, FoldsEveryIndexInOrderOnManyWorkers) {
  const std::size_t count = 200;
  std::vector<std::size_t> order;
  const std::size_t peak = foldOrdered<std::size_t>(
      count, /*workers=*/4, reorderWindowCap(4),
      [](std::size_t i) { return i * i; },
      [&](std::size_t i, std::size_t& value) {
        EXPECT_EQ(value, i * i);
        order.push_back(i);
      });
  ASSERT_EQ(order.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(order[i], i);
  }
  // The window bound held: O(workers) parked results, never O(count).
  EXPECT_LE(peak, reorderWindowCap(4));
}

TEST(FoldOrderedTest, InlineExecutionMatchesParallel) {
  const auto run = [](int workers) {
    std::vector<std::size_t> order;
    foldOrdered<std::size_t>(
        50, workers, reorderWindowCap(workers),
        [](std::size_t i) { return i + 7; },
        [&](std::size_t i, std::size_t& value) {
          order.push_back(i * 1000 + value);
        });
    return order;
  };
  EXPECT_EQ(run(1), run(3));
}

TEST(FoldOrderedTest, JobErrorRethrowsAndStopsTheFold) {
  std::atomic<int> folds{0};
  EXPECT_THROW(
      foldOrdered<int>(
          64, 4, reorderWindowCap(4),
          [](std::size_t i) -> int {
            if (i == 5) throw std::runtime_error("job 5 failed");
            return static_cast<int>(i);
          },
          [&](std::size_t, int&) { ++folds; }),
      std::runtime_error);
  // Nothing beyond the contiguous prefix before the failure ever folded.
  EXPECT_LT(folds.load(), 64);
}

TEST(FoldOrderedTest, FoldErrorPropagatesToo) {
  EXPECT_THROW(foldOrdered<int>(
                   8, 2, reorderWindowCap(2),
                   [](std::size_t i) { return static_cast<int>(i); },
                   [](std::size_t i, int&) {
                     if (i == 3) throw std::runtime_error("fold failed");
                   }),
               std::runtime_error);
}

TEST(RunWorkersTest, RunsTheWorkerOnEveryThread) {
  std::atomic<int> calls{0};
  runWorkers(4, [&] { ++calls; });
  EXPECT_EQ(calls.load(), 4);
  runWorkers(0, [&] { ++calls; });  // <= 1 runs inline exactly once
  EXPECT_EQ(calls.load(), 5);
}

}  // namespace
}  // namespace vanet::util
