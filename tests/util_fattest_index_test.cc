#include "src/util/fattest_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/rng.h"

namespace airfair {
namespace {

struct Queue {
  int64_t bytes = 0;
  FattestNode fattest;
};

using Index = FattestIndex<Queue, &Queue::fattest>;

int Audit(const Index& index, const std::vector<Queue>& queues) {
  return index.CheckInvariants(
      [&queues](auto&& visit) {
        for (const Queue& q : queues) {
          visit(q);
        }
      },
      [](const std::string&) {});
}

// The linear pick the index replaces: most bytes, lowest order among ties.
const Queue* ScanPick(const std::vector<Queue>& queues) {
  const Queue* pick = nullptr;
  for (const Queue& q : queues) {
    if (q.fattest.linked() &&
        (pick == nullptr || q.bytes > pick->bytes ||
         (q.bytes == pick->bytes && q.fattest.order < pick->fattest.order))) {
      pick = &q;
    }
  }
  return pick;
}

TEST(FattestIndex, StartsEmpty) {
  Index index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Top(), nullptr);
}

TEST(FattestIndex, TopIsMostBytesThenLowestOrder) {
  std::vector<Queue> q(3);
  Index index;
  q[0].bytes = 100;
  q[1].bytes = 300;
  q[2].bytes = 300;
  index.Insert(&q[2], /*order=*/5);
  index.Insert(&q[0], /*order=*/1);
  index.Insert(&q[1], /*order=*/7);
  EXPECT_EQ(index.Top(), &q[2]);  // Tie on bytes: order 5 beats 7.
  q[2].bytes = 200;
  index.Update(&q[2]);
  EXPECT_EQ(index.Top(), &q[1]);
  q[0].bytes = 400;
  index.Update(&q[0]);
  EXPECT_EQ(index.Top(), &q[0]);
  q[0].bytes = 0;
  index.Remove(&q[0]);
  EXPECT_FALSE(q[0].fattest.linked());
  EXPECT_EQ(index.Top(), &q[1]);
  index.Remove(&q[0]);  // No-op when not a member.
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(Audit(index, q), 0);
}

TEST(FattestIndex, RandomOperationsMatchLinearScan) {
  constexpr int kQueues = 64;
  std::vector<Queue> q(kQueues);
  Index index;
  Rng rng(17);
  uint64_t order = 0;
  for (int step = 0; step < 20000; ++step) {
    Queue& target = q[rng.NextBelow(kQueues)];
    // Few distinct sizes, so byte ties are common.
    const int64_t delta = 100 * (1 + static_cast<int64_t>(rng.NextBelow(3)));
    if (rng.Chance(0.55)) {
      target.bytes += delta;
      if (target.fattest.linked()) {
        index.Update(&target);
      } else {
        index.Insert(&target, order++);
      }
    } else if (target.fattest.linked()) {
      target.bytes = target.bytes > delta ? target.bytes - delta : 0;
      if (target.bytes == 0) {
        index.Remove(&target);
      } else {
        index.Update(&target);
      }
    }
    ASSERT_EQ(index.Top(), ScanPick(q)) << "step " << step;
  }
  EXPECT_EQ(Audit(index, q), 0);
}

TEST(FattestIndex, AuditCatchesBrokenOrder) {
  std::vector<Queue> q(4);
  Index index;
  for (int i = 0; i < 4; ++i) {
    q[static_cast<size_t>(i)].bytes = 100 * (i + 1);
    index.Insert(&q[static_cast<size_t>(i)], static_cast<uint64_t>(i));
  }
  EXPECT_EQ(Audit(index, q), 0);
  index.BreakOrderForTesting();
  EXPECT_GT(Audit(index, q), 0);
}

}  // namespace
}  // namespace airfair
