#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/aqm/fifo.h"
#include "src/aqm/fq_codel.h"
#include "src/core/airtime_scheduler.h"
#include "src/core/mac_queues.h"
#include "src/net/packet_pool.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/sim/event_loop.h"
#include "src/util/stats.h"

namespace airfair::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRounds = 5;

double Ns(Clock::duration d) { return std::chrono::duration<double, std::nano>(d).count(); }

// Median over kRounds of `round()`, which returns ns per call, after one
// untimed round that warms caches and grows any lazily sized state.
template <typename Round>
double MedianRound(Round&& round) {
  round();
  std::vector<double> ns;
  for (int r = 0; r < kRounds; ++r) {
    ns.push_back(round());
  }
  return MedianOf(std::move(ns));
}

FlowKey ProbeFlow(int i) {
  return FlowKey{0, 2 + static_cast<uint32_t>(i), static_cast<uint16_t>(40000 + i), 6001, 17};
}

PacketPtr ProbePacket(PacketPool& pool, int flow) {
  PacketPtr p = pool.Allocate();
  p->size_bytes = kFullDataPacketBytes;
  p->type = PacketType::kUdp;
  p->flow = ProbeFlow(flow);
  p->tid = kBestEffortTid;
  return p;
}

// Drives a queue held at its limit in cycles: `dequeues` timed dequeues
// free room, then kCycleEnqueues timed enqueues refill it, so that
// (kCycleEnqueues - dequeues) / kCycleEnqueues of the enqueues overflow.
constexpr int kCycleEnqueues = 256;
constexpr int kCycles = 40;

template <typename Enqueue, typename Dequeue>
QueueCost CycleQueue(PacketPool& pool, int flows, int limit, double overflow_frac,
                     Enqueue&& enqueue, Dequeue&& dequeue) {
  const int dequeues = std::clamp(
      static_cast<int>(std::lround(kCycleEnqueues * (1.0 - overflow_frac))), 1, kCycleEnqueues);
  int next_flow = 0;
  for (int i = 0; i < limit; ++i) {
    enqueue(ProbePacket(pool, next_flow));
    next_flow = (next_flow + 1) % flows;
  }
  std::vector<PacketPtr> batch;
  batch.reserve(kCycleEnqueues);
  std::vector<double> enq_ns;
  std::vector<double> deq_ns;
  for (int r = 0; r < kRounds; ++r) {
    double enq_total = 0;
    double deq_total = 0;
    for (int c = 0; c < kCycles; ++c) {
      const Clock::time_point d0 = Clock::now();
      for (int i = 0; i < dequeues; ++i) {
        batch.push_back(dequeue());
      }
      deq_total += Ns(Clock::now() - d0);
      batch.clear();  // Released outside the spans.
      for (int i = 0; i < kCycleEnqueues; ++i) {
        batch.push_back(ProbePacket(pool, next_flow));
        next_flow = (next_flow + 1) % flows;
      }
      const Clock::time_point e0 = Clock::now();
      for (PacketPtr& p : batch) {
        enqueue(std::move(p));
      }
      enq_total += Ns(Clock::now() - e0);
      batch.clear();
    }
    enq_ns.push_back(enq_total / (kCycles * kCycleEnqueues));
    deq_ns.push_back(deq_total / (kCycles * dequeues));
  }
  return QueueCost{MedianOf(std::move(enq_ns)), MedianOf(std::move(deq_ns))};
}

// An event that re-posts itself a pseudo-random 1 us .. 100 ms ahead, so
// the heap keeps its depth while every dispatch is a pop plus a push.
struct Reposter {
  EventLoop* loop;
  uint64_t* state;
  void operator()() const {
    *state = *state * 6364136223846793005ull + 1442695040888963407ull;
    loop->PostAt(loop->now() + TimeUs(1 + static_cast<int64_t>((*state >> 33) % 100000)),
                 Reposter{loop, state});
  }
};

}  // namespace

double ProbeEventLoopNs(int heap_depth) {
  EventLoop loop;
  uint64_t state = 12345;
  for (int i = 0; i < std::max(1, heap_depth); ++i) {
    Reposter{&loop, &state}();
  }
  constexpr int kCalls = 20000;
  return MedianRound([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      loop.RunOne();
    }
    return Ns(Clock::now() - t0) / kCalls;
  });
}

double ProbePacketPoolNs(int window) {
  PacketPool pool;
  std::vector<PacketPtr> ring(static_cast<size_t>(std::max(1, window)));
  for (PacketPtr& p : ring) {
    p = pool.Allocate();
  }
  constexpr int kCalls = 50000;
  size_t slot = 0;
  const double ns = MedianRound([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      ring[slot].reset();
      ring[slot] = pool.Allocate();
      slot = slot + 1 == ring.size() ? 0 : slot + 1;
    }
    return Ns(Clock::now() - t0) / kCalls;
  });
  ring.clear();  // The pool checks on destruction that nothing is outstanding.
  return ns;
}

QueueCost ProbeFifo(int limit_packets, double overflow_frac) {
  PacketPool pool;
  QueueCost cost;
  {
    FifoQdisc fifo(limit_packets);
    cost = CycleQueue(
        pool, 1, limit_packets, overflow_frac, [&](PacketPtr p) { fifo.Enqueue(std::move(p)); },
        [&] { return fifo.Dequeue(); });
  }
  return cost;
}

QueueCost ProbeFqCodel(int backlogged_flows, double overflow_frac) {
  PacketPool pool;
  QueueCost cost;
  {
    const FqCodelConfig config;
    FqCodelQdisc qdisc([] { return TimeUs::Zero(); }, config);
    cost = CycleQueue(
        pool, std::max(1, backlogged_flows), config.limit_packets, overflow_frac,
        [&](PacketPtr p) { qdisc.Enqueue(std::move(p)); }, [&] { return qdisc.Dequeue(); });
  }
  return cost;
}

QueueCost ProbeMacQueues(int backlogged_stations, double overflow_frac) {
  PacketPool pool;
  QueueCost cost;
  {
    const MacQueues::Config config;
    MacQueues queues([] { return TimeUs::Zero(); }, config);
    // Flow i belongs to station i: one backlogged best-effort flow per
    // station, as in the bulk workloads.
    const int stations = std::max(1, backlogged_stations);
    int next_dequeue = 0;
    cost = CycleQueue(
        pool, stations, config.global_limit_packets, overflow_frac,
        [&](PacketPtr p) {
          const StationId station = static_cast<StationId>(p->flow.dst_node - 2);
          queues.Enqueue(std::move(p), station, kBestEffortTid);
        },
        [&] {
          const StationId station = next_dequeue;
          next_dequeue = (next_dequeue + 1) % stations;
          return queues.Dequeue(station, kBestEffortTid);
        });
  }
  return cost;
}

double ProbeSchedulerNs(int backlogged_stations, double airtime_us) {
  AirtimeScheduler scheduler;
  const int stations = std::max(1, backlogged_stations);
  for (int i = 0; i < stations; ++i) {
    scheduler.MarkBacklogged(i, AccessCategory::kBestEffort);
  }
  const TimeUs charge(std::max<int64_t>(1, std::llround(airtime_us)));
  auto has_data = [](StationId) { return true; };
  constexpr int kCalls = 50000;
  return MedianRound([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      const StationId s = scheduler.NextStation(AccessCategory::kBestEffort, has_data);
      scheduler.ChargeAirtime(s, AccessCategory::kBestEffort, charge);
    }
    return Ns(Clock::now() - t0) / kCalls;
  });
}

double ProbeTraceAppendNs() {
  TraceBuffer::Config config;
  config.capacity = size_t{1} << 16;
  TraceBuffer buf(config);
  constexpr int kCalls = 200000;
  int64_t t = 0;
  return MedianRound([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      ++t;
      buf.Append(TimeUs(t), TraceEventType::kEnqueue, i & 255, 0, t, t & 1023, 0);
    }
    return Ns(Clock::now() - t0) / kCalls;
  });
}

double ProbeSampleTickNs(int stations, double deliveries_per_tick) {
  const size_t n = static_cast<size_t>(std::max(1, stations));
  constexpr int kTicks = 50;
  Timeseries::Config config;
  config.reserve_points = kTicks * (kRounds + 1);  // No growth inside the spans.
  Timeseries series(config);
  std::vector<int> share_ids;
  std::vector<int> latency_ids;
  for (size_t i = 0; i < n; ++i) {
    share_ids.push_back(series.Series("airtime." + std::to_string(i)));
    for (const char* q : {"p50", "p95", "p99"}) {
      latency_ids.push_back(series.Series("latency." + std::string(q) + "." + std::to_string(i)));
    }
  }
  const int jain_id = series.Series("jain");
  const int depth_id = series.Series("depth");
  std::vector<double> airtime(n, 0.0);
  std::vector<double> shares(n, 0.0);
  std::vector<std::vector<double>> latency(n);
  const int64_t deliveries = std::max<int64_t>(0, std::llround(deliveries_per_tick));
  uint64_t state = 99;
  int64_t tick = 0;
  return MedianRound([&] {
    double total_ns = 0;
    for (int k = 0; k < kTicks; ++k) {
      ++tick;
      // The deliver sink's work, outside the span.
      for (int64_t d = 0; d < deliveries; ++d) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        latency[static_cast<size_t>(d) % n].push_back(static_cast<double>(state >> 44));
      }
      for (size_t i = 0; i < n; ++i) {
        airtime[i] += static_cast<double>((state >> (i % 32)) & 0xfff);
      }
      const TimeUs now(tick * 10000);
      const Clock::time_point t0 = Clock::now();
      double total = 0;
      for (size_t i = 0; i < n; ++i) {
        shares[i] = airtime[i];
        total += shares[i];
      }
      for (size_t i = 0; i < n; ++i) {
        shares[i] /= total;
        series.Record(share_ids[i], now, shares[i]);
      }
      series.Record(jain_id, now, JainFairnessIndex(shares));
      series.Record(depth_id, now, static_cast<double>(deliveries));
      for (size_t i = 0; i < n; ++i) {
        std::vector<double>& samples = latency[i];
        if (samples.empty()) {
          continue;
        }
        std::sort(samples.begin(), samples.end());
        const double q[3] = {0.5, 0.95, 0.99};
        for (int j = 0; j < 3; ++j) {
          const size_t idx = static_cast<size_t>(q[j] * static_cast<double>(samples.size() - 1));
          series.Record(latency_ids[i * 3 + static_cast<size_t>(j)], now, samples[idx]);
        }
        samples.clear();
      }
      total_ns += Ns(Clock::now() - t0);
    }
    return total_ns / kTicks;
  });
}

}  // namespace airfair::bench
