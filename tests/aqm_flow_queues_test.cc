#include "src/aqm/flow_queues.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/aqm/fq_codel.h"
#include "src/core/mac_queues.h"
#include "src/util/check.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

using TieBreak = FlowQueueSet::TieBreak;

class FlowQueueSetTest : public ::testing::Test {
 protected:
  // A one-queue table: every flow hashes to queue 0, so a second tin always
  // collides with the first.
  FlowQueueSet Make(int queues = 1) {
    return FlowQueueSet([this] { return now_; }, queues, /*quantum_bytes=*/300,
                        /*hash_perturbation=*/0, TieBreak::kBacklogOrder);
  }

  // Audits `set` over tins a_ and b_; returns the messages.
  std::vector<std::string> Audit(const FlowQueueSet& set) const {
    std::vector<std::string> messages;
    set.CheckInvariants(
        [this](FlowQueueSet::TinVisitor visit) {
          visit(a_);
          visit(b_);
        },
        [&](const std::string& m) { messages.push_back(m); });
    return messages;
  }

  TimeUs now_;
  FlowTin a_{/*trace_station=*/0};
  FlowTin b_{/*trace_station=*/1};
};

TEST_F(FlowQueueSetTest, SecondTinHashingToAHeldQueueLandsInItsOverflowQueue) {
  FlowQueueSet set = Make();
  set.Push(a_, MakePacket(1000, 1000));
  set.Push(b_, MakePacket(1000, 2000));
  FlowQueue* held = a_.new_queues.Front();
  ASSERT_NE(held, nullptr);
  EXPECT_NE(held, &a_.overflow);
  EXPECT_EQ(held->tin, &a_);
  EXPECT_EQ(b_.new_queues.Front(), &b_.overflow);
  EXPECT_EQ(b_.overflow.tin, &b_);
  EXPECT_EQ(b_.overflow.packets.size(), 1u);
  EXPECT_EQ(a_.backlog_packets, 1);
  EXPECT_EQ(b_.backlog_packets, 1);
  EXPECT_TRUE(Audit(set).empty());
}

TEST_F(FlowQueueSetTest, QueueRetiredByTheDrrIsClaimedByTheOtherTin) {
  FlowQueueSet set = Make();
  set.Push(a_, MakePacket(1000, 1000));
  FlowQueue* queue = a_.new_queues.Front();
  ASSERT_NE(set.Dequeue(a_, CoDelParams::Default()), nullptr);
  // The drained queue moves to the old list, and the next pass retires it
  // and releases it to the table.
  EXPECT_EQ(set.Dequeue(a_, CoDelParams::Default()), nullptr);
  EXPECT_EQ(queue->tin, nullptr);
  EXPECT_TRUE(a_.new_queues.empty());
  EXPECT_TRUE(a_.old_queues.empty());

  set.Push(b_, MakePacket(1000, 2000));
  EXPECT_EQ(b_.new_queues.Front(), queue);  // The table queue, not overflow.
  EXPECT_EQ(queue->tin, &b_);
  EXPECT_TRUE(b_.overflow.packets.empty());
  EXPECT_TRUE(Audit(set).empty());
}

TEST_F(FlowQueueSetTest, DropFattestTakesAnOverflowQueueAndBreaksTiesByOrder) {
  FlowQueueSet set = Make();
  set.Push(a_, MakePacket(1000, 1000));  // Table queue, backlog order 0.
  set.Push(b_, MakePacket(1000, 2000));  // b's overflow queue, order 1.
  set.Push(b_, MakePacket(1000, 2000));
  // The overflow queue holds the most bytes, so it loses the first packet.
  set.DropFattest();
  EXPECT_EQ(set.overflow_drops(), 1);
  EXPECT_EQ(b_.overflow.bytes, 1000);
  EXPECT_EQ(b_.backlog_packets, 1);
  // Now both queues hold 1000 bytes: the lower order, a's table queue, goes.
  set.DropFattest();
  EXPECT_EQ(set.overflow_drops(), 2);
  EXPECT_EQ(a_.backlog_packets, 0);
  EXPECT_EQ(b_.backlog_packets, 1);
  EXPECT_EQ(set.packet_count(), 1);
  EXPECT_TRUE(Audit(set).empty());
}

TEST_F(FlowQueueSetTest, FlushReturnsItsCountResetsCodelAndLeavesTheAuditClean) {
  FlowQueueSet set = Make(/*queues=*/64);
  for (uint16_t port = 1000; port < 1005; ++port) {
    set.Push(a_, MakePacket(1000, port));
    set.Push(a_, MakePacket(1000, port));
  }
  set.Push(b_, MakePacket(1000, 4000));
  FlowQueue* queue = a_.new_queues.Front();
  queue->codel.ForceStateForTesting(/*dropping=*/true, TimeUs::FromMilliseconds(5),
                                    /*count=*/3, /*lastcount=*/1);
  ASSERT_TRUE(Audit(set).empty());

  EXPECT_EQ(set.Flush(a_), 10);
  EXPECT_EQ(set.flushed_total(), 10);
  EXPECT_EQ(set.packet_count(), 1);
  EXPECT_EQ(a_.backlog_packets, 0);
  EXPECT_TRUE(a_.new_queues.empty());
  EXPECT_TRUE(a_.old_queues.empty());
  EXPECT_EQ(queue->tin, nullptr);
  EXPECT_FALSE(queue->codel.dropping());
  EXPECT_TRUE(Audit(set).empty());
  EXPECT_EQ(set.Flush(a_), 0);
}

TEST_F(FlowQueueSetTest, CheckInvariantsFlagsAQueueOnAnotherTinsList) {
  FlowQueueSet set = Make(/*queues=*/64);
  set.Push(a_, MakePacket(1000, 1000));
  set.Push(b_, MakePacket(1000, 1000));  // Same flow: b's overflow queue.
  ASSERT_TRUE(Audit(set).empty());
  a_.new_queues.Front()->tin = &b_;  // Held by b, scheduled by a.
  const std::vector<std::string> messages = Audit(set);
  ASSERT_FALSE(messages.empty());
  bool flagged = false;
  for (const std::string& m : messages) {
    flagged |= m.find("held by a different tin") != std::string::npos;
  }
  EXPECT_TRUE(flagged);
}

// Degenerate configurations fail at construction with one message naming
// the field, instead of dividing by zero or spinning on the first packet.
template <typename Construct>
std::vector<std::string> ConstructionFailures(Construct construct) {
  std::vector<std::string> messages;
  ScopedCheckFailureHandler guard(
      [&](const char*, int, const std::string& m) { messages.push_back(m); });
  construct();
  return messages;
}

TEST(FlowQueueConfig, DegenerateMacQueuesConfigsAreRejected) {
  const auto clock = [] { return TimeUs::Zero(); };
  struct Case {
    int flow_queues, limit, quantum;
    const char* field;
  };
  for (const Case& c : {Case{0, 8192, 300, "flow_queues"}, Case{4096, 0, 300, "global_limit"},
                        Case{4096, 8192, 0, "quantum_bytes"}}) {
    MacQueues::Config config;
    config.flow_queues = c.flow_queues;
    config.global_limit_packets = c.limit;
    config.quantum_bytes = c.quantum;
    const auto messages = ConstructionFailures([&] { MacQueues queues(clock, config); });
    ASSERT_EQ(messages.size(), 1u) << c.field;
    EXPECT_NE(messages[0].find(c.field), std::string::npos) << messages[0];
  }
}

TEST(FlowQueueConfig, DegenerateFqCodelConfigsAreRejected) {
  const auto clock = [] { return TimeUs::Zero(); };
  struct Case {
    int flows, limit, quantum;
    const char* field;
  };
  for (const Case& c : {Case{0, 10240, 1514, "flows"}, Case{1024, 0, 1514, "limit_packets"},
                        Case{1024, -5, 1514, "limit_packets"},
                        Case{1024, 10240, 0, "quantum_bytes"}}) {
    FqCodelConfig config;
    config.flows = c.flows;
    config.limit_packets = c.limit;
    config.quantum_bytes = c.quantum;
    const auto messages = ConstructionFailures([&] { FqCodelQdisc qdisc(clock, config); });
    ASSERT_EQ(messages.size(), 1u) << c.field;
    EXPECT_NE(messages[0].find(c.field), std::string::npos) << messages[0];
  }
}

}  // namespace
}  // namespace airfair
