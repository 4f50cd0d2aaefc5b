// airbench workloads: how one testbed run of a workload is built, driven and
// measured.
//
// Every workload is run once per queue scheme (FIFO, FQ-CoDel, FQ-MAC,
// Airtime), one scheme after another on the calling thread. Testbeds are
// built through the scenario layer's public API (TestbedConfig, Testbed,
// ScaleConfig) with every environment-derived setting pinned, and driven
// through Simulation::RunFor in fixed simulated-time slices. The load is
// generated in simulated time, so a slow simulator never makes the
// generator late: there is no generator lateness to report.

#ifndef AIRFAIR_PERFBENCH_WORKLOADS_H_
#define AIRFAIR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/scenario/conservation.h"
#include "src/scenario/testbed.h"
#include "src/util/stats.h"

namespace airfair::bench {

struct WorkloadSpec {
  std::string name;
  std::string why;
  bool tcp = false;                      // Bulk TCP download; otherwise CBR UDP.
  int stations = 3;                      // 3 = the paper's 2 fast + 1 slow setup.
  double offered_bps_per_station = 0;    // UDP only (open loop).
  TimeUs warmup;
  TimeUs measure;
};

const std::vector<WorkloadSpec>& Workloads();
// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

// The four schemes, in the order a pass runs them.
const std::vector<QueueScheme>& Schemes();
// Short metric-name form of a scheme: fifo, fq_codel, fq_mac, airtime.
const char* SchemeKey(QueueScheme scheme);

// Timeseries sampling cadence of a traced testbed.
inline constexpr TimeUs kSampleInterval = TimeUs::FromMilliseconds(10);

// Every TestbedConfig field that otherwise defaults from the environment,
// pinned: no audit, no faults, packet pool on, single-threaded (one shard,
// no host bus), tracing as requested.
TestbedConfig MakeConfig(const WorkloadSpec& spec, QueueScheme scheme, uint64_t seed,
                         bool trace);

// Drives the workload's scheme-specific queue layer counters.
struct QueueCounts {
  int64_t enqueued = 0;
  int64_t dequeued = 0;
  int64_t overflow_drops = 0;
  int64_t codel_drops = 0;
  double backlogged_flows_p50 = 0;  // Backlogged flow queues (qdisc) or stations (MAC).
};

// Simulated-time distributions drained from the TraceBuffer ring of a
// traced run, per slice, so the ring never wraps past unread records.
struct TraceSummary {
  uint64_t appended = 0;
  uint64_t lost = 0;            // Records overwritten before they were read.
  int64_t delivered = 0;        // kDeliver records (feeds the sampler).
  std::vector<double> sojourn_ms;  // kDequeue sojourn, measurement window.
  std::vector<double> air_ms;      // kTxEnd duration, measurement window.
  int64_t mpdus_ok = 0;            // kTxEnd MPDU outcomes, measurement window.
  int64_t mpdus_lost = 0;
};

// Wall time (host seconds) of building one testbed.
struct SetupTime {
  double build_s = 0;  // The Testbed constructor.
  double setup_s = 0;  // Constructor plus traffic endpoints: all before the first RunFor.
};

// One testbed: one scheme of one workload at one seed.
struct TestbedRun {
  QueueScheme scheme = QueueScheme::kFifo;
  bool traced = false;

  // Wall time (host seconds).
  SetupTime setup;
  double run_wall_s = 0;  // Inside Simulation::RunFor.
  std::vector<double> slice_wall_ms;

  // Simulated time.
  double sim_s = 0;
  double measure_s = 0;

  // Event loop and packet pool.
  int64_t events = 0;            // EventLoop::dispatched_events().
  int64_t events_counter = 0;    // sim.events.dispatched counter delta.
  int64_t events_scheduled = 0;  // Counter deltas from here on.
  int64_t events_detached = 0;
  int64_t tokens_created = 0;
  int64_t pool_allocated = 0;
  int64_t pool_chunks = 0;
  int64_t heap_packets = 0;
  std::vector<double> heap_depth;  // Pending events at each slice boundary.

  // Model outputs over the measurement window.
  std::vector<double> airtime_share;
  double jain = 0;
  std::vector<double> goodput_mbps_by_station;
  double goodput_mbps = 0;
  SampleSet rtt_ms;  // Ping RTTs, all stations pooled.

  // Layer counters over the whole run.
  LedgerTallies tally;
  int64_t tx = 0;
  int64_t collisions = 0;
  int64_t mpdu_errors = 0;
  double busy_s = 0;
  int64_t aggregates = 0;
  double ampdu_mpdus = 0;
  double mean_tx_air_us = 0;
  int64_t tcp_retransmits = 0;
  int64_t tcp_timeouts = 0;
  int64_t in_flight_p50 = 0;
  QueueCounts queues;

  TraceSummary trace;

  // Correctness: every failed per-testbed check, and a digest of every
  // simulated output.
  std::vector<std::string> failures;
  uint64_t digest = 0;
};

TestbedRun RunTestbed(const WorkloadSpec& spec, QueueScheme scheme, uint64_t seed, bool traced);

// Builds the untraced testbed and its endpoints, times that, and tears them
// down without running.
SetupTime TimeSetup(const WorkloadSpec& spec, QueueScheme scheme, uint64_t seed);

}  // namespace airfair::bench

#endif  // AIRFAIR_PERFBENCH_WORKLOADS_H_
