// airbench layer probes: wall-time spans around direct calls into one
// layer's public functions.
//
// Inside a testbed, the event loop, packet pool, qdiscs, MAC queues,
// airtime scheduler and trace ring are only reached from event dispatch, so
// their cost cannot be timed from outside a run. Each probe instead builds
// the layer on its own and drives it at the shape a workload's untraced run
// measured (heap depth, backlogged flows, the share of enqueues that
// overflow, ...). A layer's estimated share of a run's wall time is then
//   ns per call x calls per simulated second / wall ns per simulated second.
//
// Queue probes freeze the queue clock, so CoDel never drops inside a probe:
// they time the structure (hashing, DRR lists, overflow drops), not the AQM
// decision.

#ifndef AIRFAIR_PERFBENCH_PROBES_H_
#define AIRFAIR_PERFBENCH_PROBES_H_

namespace airfair::bench {

struct QueueCost {
  double enqueue_ns = 0;
  double dequeue_ns = 0;
};

// EventLoop::RunOne at a steady heap depth; each event re-posts itself.
double ProbeEventLoopNs(int heap_depth);
// PacketPool::Allocate plus release, with `window` packets outstanding.
double ProbePacketPoolNs(int window);
// Queue layers held at their packet limit, with `overflow_frac` of the
// enqueues overflowing it.
QueueCost ProbeFifo(int limit_packets, double overflow_frac);
QueueCost ProbeFqCodel(int backlogged_flows, double overflow_frac);
QueueCost ProbeMacQueues(int backlogged_stations, double overflow_frac);
// AirtimeScheduler::NextStation + ChargeAirtime over backlogged stations.
double ProbeSchedulerNs(int backlogged_stations, double airtime_us);
// TraceBuffer::Append.
double ProbeTraceAppendNs();
// One timeseries sample tick's obs work (Timeseries::Record per series,
// JainFairnessIndex, per-station latency sort) at `stations` stations with
// `deliveries_per_tick` latency samples to fold.
double ProbeSampleTickNs(int stations, double deliveries_per_tick);

}  // namespace airfair::bench

#endif  // AIRFAIR_PERFBENCH_PROBES_H_
