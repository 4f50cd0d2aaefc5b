// Differential test of the overflow-drop victims: the real MacQueues and
// FqCodelQdisc, whose drops take the top of a fattest-queue index, against
// the reference models of tests/oracle/reference_queues.h, which find the
// victim by the linear scan. Seeded random operation streams keep the global
// limit tiny (most enqueues overflow), use mostly equal packet sizes (byte
// ties are common), force cross-TID hash collisions into the per-TID
// overflow queues, and mix in dequeues, CoDel drops and station teardown.
// Every dequeued packet, and the final drain, must match by flow_seq.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/aqm/fq_codel.h"
#include "src/core/mac_queues.h"
#include "src/util/rng.h"
#include "tests/oracle/reference_queues.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

constexpr Tid kTids[] = {0, 1, 5};

template <typename Queues>
std::vector<std::string> Violations(const Queues& q) {
  std::vector<std::string> out;
  q.CheckInvariants([&out](const std::string& m) { out.push_back(m); });
  return out;
}

// Identity of a dequeued packet: its flow_seq, or -1 for "nothing".
int64_t Seq(const PacketPtr& p) { return p == nullptr ? -1 : p->flow_seq; }

struct MacStreamParams {
  int flow_queues;
  int global_limit;
  uint64_t seed;
};

class MacQueuesVictimTest : public ::testing::TestWithParam<MacStreamParams> {};

TEST_P(MacQueuesVictimTest, DequeuesMatchReference) {
  const MacStreamParams params = GetParam();
  TimeUs now;
  MacQueues::Config config;
  config.flow_queues = params.flow_queues;
  config.global_limit_packets = params.global_limit;
  config.hash_perturbation = params.seed;
  MacQueues real([&now] { return now; }, config);
  ReferenceMacQueues ref([&now] { return now; }, config);
  Rng rng(params.seed);
  constexpr int kStations = 4;
  int64_t seq = 0;
  int64_t dequeued = 0;

  for (int step = 0; step < 6000; ++step) {
    now += TimeUs(static_cast<int64_t>(rng.NextBelow(3000)));
    const auto station = static_cast<StationId>(rng.NextBelow(kStations));
    const Tid tid = kTids[rng.NextBelow(3)];
    const double roll = rng.UniformDouble();
    if (roll < 0.58) {
      // Few flows over a small pool: cross-TID collisions are frequent.
      const auto port = static_cast<uint16_t>(1000 + rng.NextBelow(12));
      const int bytes = rng.Chance(0.8) ? 1500 : 600;
      for (int copy = 0; copy < 2; ++copy) {
        PacketPtr p = MakePacket(bytes, port, 2000, static_cast<uint32_t>(station) + 2);
        p->flow_seq = seq;
        if (copy == 0) {
          real.Enqueue(std::move(p), station, tid);
        } else {
          ref.Enqueue(std::move(p), station, tid);
        }
      }
      ++seq;
    } else if (roll < 0.985) {
      const PacketPtr got = real.Dequeue(station, tid);
      const PacketPtr want = ref.Dequeue(station, tid);
      ASSERT_EQ(Seq(got), Seq(want)) << "step " << step;
      dequeued += got != nullptr;
    } else {
      ASSERT_EQ(real.FlushStation(station), ref.FlushStation(station)) << "step " << step;
    }
    ASSERT_EQ(real.packet_count(), ref.packet_count()) << "step " << step;
    ASSERT_EQ(real.overflow_drops(), ref.overflow_drops()) << "step " << step;
    ASSERT_EQ(real.codel_drops(), ref.codel_drops()) << "step " << step;
    const auto violations = Violations(real);
    ASSERT_TRUE(violations.empty()) << "step " << step << ": " << violations.front();
  }
  // The stream must have exercised what it is meant to.
  EXPECT_GT(real.overflow_drops(), 500);
  EXPECT_GT(real.codel_drops(), 0);
  EXPECT_GT(dequeued, 400);
  EXPECT_GT(real.flushed_total(), 0);

  for (StationId station = 0; station < kStations; ++station) {
    for (const Tid tid : kTids) {
      for (;;) {
        const PacketPtr got = real.Dequeue(station, tid);
        const PacketPtr want = ref.Dequeue(station, tid);
        ASSERT_EQ(Seq(got), Seq(want)) << "drain of station " << station;
        if (got == nullptr) {
          break;
        }
      }
    }
  }
  EXPECT_EQ(real.packet_count(), 0);
  EXPECT_EQ(ref.packet_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Streams, MacQueuesVictimTest,
                         ::testing::Values(MacStreamParams{8, 6, 1}, MacStreamParams{8, 6, 2},
                                           MacStreamParams{4, 3, 3},
                                           MacStreamParams{64, 24, 4},
                                           MacStreamParams{64, 24, 5}));

class FqCodelVictimTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FqCodelVictimTest, DequeuesMatchReference) {
  TimeUs now;
  FqCodelConfig config;
  config.flows = 16;
  config.limit_packets = 10;
  config.hash_perturbation = GetParam();
  FqCodelQdisc real([&now] { return now; }, config);
  ReferenceFqCodel ref([&now] { return now; }, config);
  Rng rng(GetParam());
  int64_t seq = 0;
  int64_t dequeued = 0;

  for (int step = 0; step < 6000; ++step) {
    now += TimeUs(static_cast<int64_t>(rng.NextBelow(3000)));
    if (rng.Chance(0.6)) {
      const auto port = static_cast<uint16_t>(1000 + rng.NextBelow(32));
      const int bytes = rng.Chance(0.8) ? 1500 : 600;
      for (int copy = 0; copy < 2; ++copy) {
        PacketPtr p = MakePacket(bytes, port);
        p->flow_seq = seq;
        if (copy == 0) {
          real.Enqueue(std::move(p));
        } else {
          ref.Enqueue(std::move(p));
        }
      }
      ++seq;
    } else {
      const PacketPtr got = real.Dequeue();
      const PacketPtr want = ref.Dequeue();
      ASSERT_EQ(Seq(got), Seq(want)) << "step " << step;
      dequeued += got != nullptr;
    }
    ASSERT_EQ(real.packet_count(), ref.packet_count()) << "step " << step;
    ASSERT_EQ(real.overflow_drops(), ref.overflow_drops()) << "step " << step;
    ASSERT_EQ(real.codel_drops(), ref.codel_drops()) << "step " << step;
    const auto violations = Violations(real);
    ASSERT_TRUE(violations.empty()) << "step " << step << ": " << violations.front();
  }
  EXPECT_GT(real.overflow_drops(), 500);
  EXPECT_GT(real.codel_drops(), 0);
  EXPECT_GT(dequeued, 1000);

  for (;;) {
    const PacketPtr got = real.Dequeue();
    const PacketPtr want = ref.Dequeue();
    ASSERT_EQ(Seq(got), Seq(want)) << "final drain";
    if (got == nullptr) {
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, FqCodelVictimTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace airfair
