#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/aqm/fq_codel.h"
#include "src/core/mac_queue_backend.h"
#include "src/mac/qdisc_backend.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/scenario/experiments.h"

namespace airfair::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint16_t kUdpPort = 6001;
constexpr uint16_t kBulkPort = 5001;
// RunFor granularity: slice wall times, heap depth and queue shape are
// sampled at every slice boundary, and a traced run drains its ring here.
// Slicing does not change results: RunUntil(end) dispatches every event at
// or before `end`, exactly as one long RunFor would.
constexpr TimeUs kSlice = TimeUs::FromMilliseconds(10);
// Ring capacity of a traced run: larger than the records one slice appends
// on every workload, so draining per slice loses nothing.
constexpr size_t kTraceRingRecords = size_t{1} << 18;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

std::map<std::string, int64_t> Counters() {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : CounterSnapshot()) {
    out[name] = value;
  }
  return out;
}

int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after, const char* name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

// FNV-1a over the bytes of every simulated output.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// Sharding knobs are pinned when the config has them: the benchmark runs
// single-threaded whatever AIRFAIR_SHARDS / AIRFAIR_HOST_BUS_US say, and
// still compiles against a tree that has dropped the sharded loop.
template <typename Config>
void PinSingleThreaded(Config& config) {
  if constexpr (requires { config.shards; }) {
    config.shards = 1;
  }
  if constexpr (requires { config.host_bus_delay; }) {
    config.host_bus_delay = TimeUs::Zero();
  }
}

double MedianOrZero(std::vector<double> v) { return v.empty() ? 0.0 : MedianOf(std::move(v)); }

// The traffic endpoints of one testbed. Members destroy in reverse order:
// pings and senders go before the listeners that own the accepted sockets.
struct Endpoints {
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
  std::vector<std::unique_ptr<TcpListener>> listeners;
  std::vector<TcpSocket*> receivers;
  std::vector<std::unique_ptr<TcpSocket>> senders;
  std::vector<std::unique_ptr<PingSender>> pings;
};

void BuildEndpoints(const WorkloadSpec& spec, Testbed& tb, Endpoints* ep) {
  const int n = tb.station_count();
  ep->receivers.assign(static_cast<size_t>(n), nullptr);
  for (int i = 0; i < n; ++i) {
    if (spec.tcp) {
      auto listener = std::make_unique<TcpListener>(tb.station_host(i), kBulkPort, TcpConfig());
      TcpSocket** slot = &ep->receivers[static_cast<size_t>(i)];
      listener->on_accept = [slot](TcpSocket* s) { *slot = s; };
      ep->listeners.push_back(std::move(listener));
      auto sender = std::make_unique<TcpSocket>(tb.server_host(), TcpConfig());
      sender->Connect(tb.station_node(i), kBulkPort);
      sender->WriteForever();
      ep->senders.push_back(std::move(sender));
    } else {
      ep->sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), kUdpPort));
      UdpSource::Config src;
      src.rate_bps = spec.offered_bps_per_station;
      ep->sources.push_back(
          std::make_unique<UdpSource>(tb.server_host(), tb.station_node(i), kUdpPort, src));
      ep->sources.back()->Start();
    }
    PingSender::Config ping;
    ping.interval = TimeUs::FromMilliseconds(100);  // 10 Hz on every station.
    ep->pings.push_back(std::make_unique<PingSender>(tb.server_host(), tb.station_node(i), ping));
    ep->pings.back()->Start();
  }
}

// A testbed with its endpoints. Members destroy in reverse order, so the
// endpoints go before the testbed whose hosts they are bound to.
struct Built {
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<Endpoints> ep;
  SetupTime time;
};

Built Build(const WorkloadSpec& spec, const TestbedConfig& config) {
  Built b;
  const Clock::time_point t0 = Clock::now();
  b.tb = std::make_unique<Testbed>(config);
  const Clock::time_point t1 = Clock::now();
  b.ep = std::make_unique<Endpoints>();
  BuildEndpoints(spec, *b.tb, b.ep.get());
  const Clock::time_point t2 = Clock::now();
  b.time.build_s = Seconds(t1 - t0);
  b.time.setup_s = Seconds(t2 - t0);
  return b;
}

// Backlogged flow queues (FQ-CoDel), stations with a best-effort backlog
// (MAC queues), or the single FIFO queue.
double BackloggedFlows(Testbed& tb) {
  const ApQueueBackend* backend = tb.ap().backend();
  if (const auto* mac = dynamic_cast<const MacQueueBackend*>(backend)) {
    int stations = 0;
    for (int i = 0; i < tb.station_count(); ++i) {
      stations += mac->queues().TidBacklog(i, kBestEffortTid) > 0 ? 1 : 0;
    }
    return stations;
  }
  if (const auto* qd = dynamic_cast<const QdiscBackend*>(backend)) {
    if (const auto* fq = dynamic_cast<const FqCodelQdisc*>(&qd->qdisc())) {
      return fq->active_flows();
    }
    return qd->qdisc().packet_count() > 0 ? 1 : 0;
  }
  return 0;
}

void FillQueueCounts(Testbed& tb, TestbedRun* run) {
  const ApQueueBackend* backend = tb.ap().backend();
  QueueCounts& q = run->queues;
  if (const auto* mac = dynamic_cast<const MacQueueBackend*>(backend)) {
    q.enqueued = mac->queues().enqueued_total();
    q.dequeued = mac->queues().dequeued_total();
    q.overflow_drops = mac->queues().overflow_drops();
    q.codel_drops = mac->queues().codel_drops();
  } else if (const auto* qd = dynamic_cast<const QdiscBackend*>(backend)) {
    if (const auto* fq = dynamic_cast<const FqCodelQdisc*>(&qd->qdisc())) {
      q.enqueued = fq->enqueued_total();
      q.dequeued = fq->dequeued_total();
      q.overflow_drops = fq->overflow_drops();
      q.codel_drops = fq->codel_drops();
    } else {
      // The FIFO qdisc keeps only a drop count. Every packet the server
      // creates travels downlink, so its enqueues are the server's packets
      // less those lost on the wire or unroutable at the AP.
      q.overflow_drops = qd->qdisc().drops();
      q.enqueued = tb.server_host()->packets_created() - run->tally.link_drops -
                   run->tally.ap_unroutable;
      q.dequeued = q.enqueued - q.overflow_drops - qd->qdisc().packet_count();
    }
  }
}

class SliceRunner {
 public:
  SliceRunner(Testbed& tb, TestbedRun* run) : tb_(tb), run_(run) {}

  void RunFor(TimeUs duration, bool measuring) {
    const TimeUs end = tb_.sim().now() + duration;
    while (tb_.sim().now() < end) {
      const TimeUs step = std::min(kSlice, end - tb_.sim().now());
      const Clock::time_point start = Clock::now();
      tb_.sim().RunFor(step);
      const double wall = Seconds(Clock::now() - start);
      run_->run_wall_s += wall;
      run_->slice_wall_ms.push_back(wall * 1e3);
      run_->heap_depth.push_back(static_cast<double>(tb_.sim().loop().pending_events()));
      flows_.push_back(BackloggedFlows(tb_));
      in_flight_.push_back(static_cast<double>(tb_.ledger()->Tally().in_flight));
      DrainTrace(measuring);
    }
  }

  void Finish() {
    run_->queues.backlogged_flows_p50 = MedianOrZero(flows_);
    run_->in_flight_p50 = static_cast<int64_t>(MedianOrZero(in_flight_));
  }

 private:
  void DrainTrace(bool measuring) {
    const TraceBuffer* buf = tb_.trace_buffer();
    if (buf == nullptr) {
      return;
    }
    const uint64_t head = buf->total_appended();
    if (head - cursor_ > buf->capacity()) {
      run_->trace.lost += head - cursor_ - buf->capacity();
    }
    TraceSummary& t = run_->trace;
    buf->ForEachSince(cursor_, [&t, measuring](const TraceRecord& rec) {
      switch (static_cast<TraceEventType>(rec.type)) {
        case TraceEventType::kDeliver:
          ++t.delivered;
          break;
        case TraceEventType::kDequeue:
          if (measuring) {
            t.sojourn_ms.push_back(static_cast<double>(rec.a0) / 1e3);
          }
          break;
        case TraceEventType::kTxEnd:
          if (measuring) {
            t.air_ms.push_back(static_cast<double>(rec.a0) / 1e3);
            t.mpdus_ok += rec.a1;
            t.mpdus_lost += rec.a2;
          }
          break;
        default:
          break;
      }
    });
    cursor_ = head;
    t.appended = head;
  }

  Testbed& tb_;
  TestbedRun* run_;
  uint64_t cursor_ = 0;
  std::vector<double> flows_;
  std::vector<double> in_flight_;
};

void Check(bool ok, const std::string& what, TestbedRun* run) {
  if (!ok) {
    run->failures.push_back(what);
  }
}

uint64_t DigestOf(const TestbedRun& run) {
  Digest d;
  d.Add(static_cast<int64_t>(run.scheme));
  for (double s : run.airtime_share) d.Add(s);
  for (double g : run.goodput_mbps_by_station) d.Add(g);
  for (double r : run.rtt_ms.samples()) d.Add(r);
  const LedgerTallies& t = run.tally;
  for (int64_t v : {t.injected, t.delivered, t.dropped, t.drained, t.in_flight, t.backend_drops,
                    t.ap_retry_drops, t.station_drops, t.link_drops, t.reorder_duplicates}) {
    d.Add(v);
  }
  for (int64_t v : {run.tx, run.collisions, run.mpdu_errors, run.aggregates,
                    run.tcp_retransmits, run.tcp_timeouts, run.queues.enqueued,
                    run.queues.dequeued, run.queues.overflow_drops, run.queues.codel_drops}) {
    d.Add(v);
  }
  d.Add(run.busy_s);
  d.Add(run.ampdu_mpdus);
  return d.value();
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"udp_anomaly",
       "2 fast + 1 slow station, 60 Mbit/s CBR UDP each (Fig. 5): per-packet path and the "
       "backend overflow-drop path at the smallest N",
       /*tcp=*/false, /*stations=*/3, /*offered=*/60e6, TimeUs::FromSeconds(2),
       TimeUs::FromSeconds(34)},
      {"udp_scale256",
       "ScaleConfig(256) rate mix, 480 Mbit/s CBR UDP split evenly (fig_scale N=256): work "
       "that grows with station count",
       /*tcp=*/false, /*stations=*/256, /*offered=*/480e6 / 256, TimeUs::FromSeconds(1),
       TimeUs::FromSeconds(4)},
      {"tcp_latency",
       "2 fast + 1 slow station, one bulk TCP download each (Figs. 1/4): dequeue, CoDel, "
       "TCP and uplink ACK contention instead of overflow drops",
       /*tcp=*/true, /*stations=*/3, /*offered=*/0, TimeUs::FromSeconds(3),
       TimeUs::FromSeconds(150)},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

const std::vector<QueueScheme>& Schemes() {
  static const std::vector<QueueScheme> kSchemes = {QueueScheme::kFifo, QueueScheme::kFqCodel,
                                                    QueueScheme::kFqMac,
                                                    QueueScheme::kAirtimeFair};
  return kSchemes;
}

const char* SchemeKey(QueueScheme scheme) {
  switch (scheme) {
    case QueueScheme::kFifo:
      return "fifo";
    case QueueScheme::kFqCodel:
      return "fq_codel";
    case QueueScheme::kFqMac:
      return "fq_mac";
    case QueueScheme::kAirtimeFair:
      return "airtime";
  }
  return "unknown";
}

TestbedConfig MakeConfig(const WorkloadSpec& spec, QueueScheme scheme, uint64_t seed,
                         bool trace) {
  TestbedConfig config;
  if (spec.stations == 3) {
    config.stations = ThreeStationSetup();
  } else {
    config = ScaleConfig(spec.stations, scheme, seed);
  }
  config.seed = seed;
  config.scheme = scheme;
  config.audit = false;
  config.packet_pool = true;
  config.trace = trace;
  config.trace_config.capacity = kTraceRingRecords;
  config.sample_interval = kSampleInterval;
  config.faults = FaultPlan();
  config.churn_seed = seed * 2 + 1;  // Nonzero: never read AIRFAIR_CHURN_SEED.
  PinSingleThreaded(config);
  return config;
}

TestbedRun RunTestbed(const WorkloadSpec& spec, QueueScheme scheme, uint64_t seed, bool traced) {
  TestbedRun run;
  run.scheme = scheme;
  run.traced = traced;
  const TestbedConfig config = MakeConfig(spec, scheme, seed, traced);
  const std::map<std::string, int64_t> before = Counters();
  Built built = Build(spec, config);
  run.setup = built.time;
  std::unique_ptr<Testbed>& tb = built.tb;
  std::unique_ptr<Endpoints>& ep = built.ep;

  SliceRunner runner(*tb, &run);
  runner.RunFor(spec.warmup, /*measuring=*/false);
  const TimeUs measure_from = tb->sim().now();
  tb->StartMeasurement();
  for (auto& sink : ep->sinks) sink->StartMeasuring(measure_from);
  for (auto& ping : ep->pings) ping->StartMeasuring(measure_from);
  for (TcpSocket* r : ep->receivers) {
    if (r != nullptr) r->StartMeasuring(measure_from);
  }
  runner.RunFor(spec.measure, /*measuring=*/true);
  runner.Finish();

  Testbed& t = *tb;
  run.sim_s = t.sim().now().ToSeconds();
  run.measure_s = spec.measure.ToSeconds();
  run.events = t.sim().loop().dispatched_events();
  run.airtime_share = t.AirtimeShares();
  run.jain = t.JainAirtimeIndex();
  const int n = t.station_count();
  for (int i = 0; i < n; ++i) {
    int64_t bytes = 0;
    if (spec.tcp) {
      const TcpSocket* r = ep->receivers[static_cast<size_t>(i)];
      bytes = r != nullptr ? r->measured_delivered_bytes() : 0;
    } else {
      bytes = ep->sinks[static_cast<size_t>(i)]->measured_bytes();
    }
    const double mbps = static_cast<double>(bytes) * 8.0 / run.measure_s / 1e6;
    run.goodput_mbps_by_station.push_back(mbps);
    run.goodput_mbps += mbps;
    run.rtt_ms.Merge(ep->pings[static_cast<size_t>(i)]->rtt_ms());
    const RunningStats& agg = t.ap().AggregationStats(i);
    run.aggregates += agg.count();
    run.ampdu_mpdus += agg.sum();
  }
  run.tally = t.ledger()->Tally();
  run.tx = t.medium().transmissions();
  run.collisions = t.medium().collisions();
  run.mpdu_errors = t.medium().mpdu_errors();
  run.busy_s = t.medium().busy_time().ToSeconds();
  run.mean_tx_air_us = run.tx > 0 ? run.busy_s * 1e6 / static_cast<double>(run.tx) : 0.0;
  for (const auto& sender : ep->senders) {
    run.tcp_retransmits += sender->retransmits();
    run.tcp_timeouts += sender->timeouts();
  }
  FillQueueCounts(t, &run);

  ep.reset();
  tb.reset();  // Publishes the event-loop, pool and host counters.
  const std::map<std::string, int64_t> after = Counters();
  run.events_counter = Delta(before, after, "sim.events.dispatched");
  run.events_scheduled = Delta(before, after, "sim.events.scheduled");
  run.events_detached = Delta(before, after, "sim.events.detached");
  run.tokens_created = Delta(before, after, "sim.tokens.created");
  run.pool_allocated = Delta(before, after, "packets.pool.allocated");
  run.pool_chunks = Delta(before, after, "packets.pool.chunks");
  run.heap_packets = Delta(before, after, "packets.heap");

  Check(run.tally.Imbalance() == 0,
        "ledger imbalance " + std::to_string(run.tally.Imbalance()) + ": " +
            run.tally.ToString(),
        &run);
  Check(run.heap_packets == 0, "net.heap_packets = " + std::to_string(run.heap_packets), &run);
  Check(run.events == run.events_counter,
        "dispatched_events() " + std::to_string(run.events) +
            " != sim.events.dispatched delta " + std::to_string(run.events_counter),
        &run);
  Check(run.rtt_ms.count() > 0, "no ping replies in the measurement window", &run);
  run.digest = DigestOf(run);
  return run;
}

SetupTime TimeSetup(const WorkloadSpec& spec, QueueScheme scheme, uint64_t seed) {
  return Build(spec, MakeConfig(spec, scheme, seed, /*trace=*/false)).time;
}

}  // namespace airfair::bench
