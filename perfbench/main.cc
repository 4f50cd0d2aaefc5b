// airbench: the repository's benchmark program.
//
//   airbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   airbench --self-test
//
// --trace 0 measures the end-to-end metrics from untraced runs. --trace 1
// measures the per-layer metrics: untraced and traced runs of the same
// workload and seed, plus direct-drive layer probes sized from the untraced
// run's counts (probes.h). A run first times kSetupSamples builds of each
// scheme's testbed, then repeats whole passes (the four schemes, one after
// another) until --seconds have elapsed. sim_rate takes each 10 ms slice at
// its fastest over the passes; the other wall times are medians over passes.
// The simulated outputs of every pass must be identical. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with `attempted` / `failed` counting testbed runs and their failed checks.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/workloads.h"

extern char** environ;

namespace airfair::bench {
namespace {

using Clock = std::chrono::steady_clock;

double Median(std::vector<double> v) { return v.empty() ? 0.0 : MedianOf(std::move(v)); }

double Quantile(std::vector<double> v, double q) {
  SampleSet s;
  for (double x : v) s.Add(x);
  return s.empty() ? 0.0 : s.Quantile(q);
}

// ---------------------------------------------------------------------------
// Settings, machine and build.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "airbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      std::fprintf(stderr, "airbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!args->self_test && FindWorkload(args->workload) == nullptr) {
    std::fprintf(stderr, "airbench: unknown workload '%s'\n", args->workload.c_str());
    return false;
  }
  if (!(args->seconds > 0)) {
    std::fprintf(stderr, "airbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

// Removes every AIRFAIR_* variable, so no knob the simulator reads from the
// environment can change what is measured. Returns the removed names.
std::vector<std::string> ScrubEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("AIRFAIR_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    ::unsetenv(name.c_str());
  }
  return names;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct BuildInfo {
  std::string build_type = AIRBENCH_BUILD_TYPE;
  std::string cxx_flags = AIRBENCH_CXX_FLAGS;
  bool ndebug = false;
  bool sanitizer = false;
  bool trace_compiled = AIRFAIR_TRACE_ENABLED != 0;
};

BuildInfo GetBuildInfo() {
  BuildInfo info;
#ifdef NDEBUG
  info.ndebug = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  info.sanitizer = true;
#endif
  if (info.cxx_flags.find("-fsanitize") != std::string::npos) {
    info.sanitizer = true;
  }
  return info;
}

void PrintContext(const Args& args, const BuildInfo& build,
                  const std::vector<std::string>& scrubbed) {
  std::printf("[machine] nproc=%u cpu=\"%s\"\n", std::thread::hardware_concurrency(),
              CpuModel().c_str());
  std::printf("[build] compiler=\"gcc %s\" build_type=%s NDEBUG=%d sanitizer=%d "
              "AIRFAIR_TRACE=%d cxx_flags=\"%s\" source=%s\n",
              __VERSION__, build.build_type.c_str(), build.ndebug ? 1 : 0,
              build.sanitizer ? 1 : 0, build.trace_compiled ? 1 : 0, build.cxx_flags.c_str(),
              args.source_id.c_str());
  std::string removed;
  for (const std::string& name : scrubbed) removed += " " + name;
  std::printf("[settings] removed from the environment:%s\n", removed.c_str());
}

void PrintSettings(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace) {
  const TestbedConfig c = MakeConfig(spec, QueueScheme::kFifo, seed, trace);
  std::printf("[settings] workload=%s seed=%llu seconds=%.3g trace=%d threads=1 shards=1 "
              "host_bus_us=0 audit=%d packet_pool=%d faults=%zu churn_seed=%llu "
              "sample_interval_ms=%.0f warmup_s=%.0f measure_s=%.0f\n",
              spec.name.c_str(), static_cast<unsigned long long>(c.seed), seconds, trace ? 1 : 0,
              c.audit ? 1 : 0, c.packet_pool ? 1 : 0, c.faults.events.size(),
              static_cast<unsigned long long>(c.churn_seed), c.sample_interval.ToMilliseconds(),
              spec.warmup.ToSeconds(), spec.measure.ToSeconds());
  std::printf("[settings] load is generated in simulated time: generator lateness is 0 by "
              "construction\n");
}

// ---------------------------------------------------------------------------
// Passes and their correctness checks.

using Pass = std::vector<TestbedRun>;  // One run per scheme, in Schemes() order.

// `pass`'s run of `scheme` (const or not, as the pass is).
template <typename P>
auto& Of(P& pass, QueueScheme scheme) {
  for (auto& run : pass) {
    if (run.scheme == scheme) return run;
  }
  std::abort();
}

// The workload's paper-shape verdict. On failure, marks the testbeds the
// verdict compares.
void CheckVerdict(const WorkloadSpec& spec, Pass& pass) {
  TestbedRun& fifo = Of(pass, QueueScheme::kFifo);
  TestbedRun& airtime = Of(pass, QueueScheme::kAirtimeFair);
  std::string failure;
  char buf[200];
  if (spec.name == "udp_anomaly") {
    const double slow = fifo.airtime_share.size() > 2 ? fifo.airtime_share[2] : 0.0;
    if (!(slow > 0.5)) {
      std::snprintf(buf, sizeof(buf), "verdict: FIFO slow-station airtime %.3f <= 0.5", slow);
      failure = buf;
    } else if (!(airtime.jain >= 0.99)) {
      std::snprintf(buf, sizeof(buf), "verdict: Airtime Jain %.4f < 0.99", airtime.jain);
      failure = buf;
    }
  } else if (spec.name == "udp_scale256") {
    if (!(airtime.jain > fifo.jain)) {
      std::snprintf(buf, sizeof(buf), "verdict: Airtime Jain %.4f <= FIFO Jain %.4f",
                    airtime.jain, fifo.jain);
      failure = buf;
    }
  } else if (spec.name == "tcp_latency") {
    const double f = fifo.rtt_ms.Median();
    const double a = airtime.rtt_ms.Median();
    if (!(f >= 5 * a)) {
      std::snprintf(buf, sizeof(buf), "verdict: FIFO median RTT %.2f ms < 5x Airtime %.2f ms",
                    f, a);
      failure = buf;
    }
  }
  if (!failure.empty()) {
    fifo.failures.push_back(failure);
    airtime.failures.push_back(failure);
  }
}

Pass RunPass(const WorkloadSpec& spec, uint64_t seed, bool traced) {
  Pass pass;
  for (QueueScheme scheme : Schemes()) {
    pass.push_back(RunTestbed(spec, scheme, seed, traced));
  }
  CheckVerdict(spec, pass);
  return pass;
}

// Every pass of one seed must reproduce the first pass's simulated outputs
// (tracing included: it never changes results).
void CheckDeterminism(const Pass& reference, Pass& pass) {
  for (size_t i = 0; i < pass.size(); ++i) {
    if (pass[i].digest != reference[i].digest) {
      char buf[120];
      std::snprintf(buf, sizeof(buf), "output digest %016llx differs from first pass %016llx",
                    static_cast<unsigned long long>(pass[i].digest),
                    static_cast<unsigned long long>(reference[i].digest));
      pass[i].failures.push_back(buf);
    }
  }
}

uint64_t WorkloadDigest(const Pass& pass) {
  uint64_t h = 14695981039346656037ull;
  for (const TestbedRun& run : pass) {
    h = (h ^ run.digest) * 1099511628211ull;
  }
  return h;
}

struct RunCount {
  int64_t attempted = 0;
  int64_t failed = 0;
};

RunCount CountFailures(const std::vector<Pass>& passes) {
  RunCount t;
  for (const Pass& pass : passes) {
    for (const TestbedRun& run : pass) {
      ++t.attempted;
      if (!run.failures.empty()) {
        ++t.failed;
        for (const std::string& f : run.failures) {
          std::printf("[check] FAIL %s %s: %s\n", SchemeName(run.scheme),
                      run.traced ? "traced" : "untraced", f.c_str());
        }
      }
    }
  }
  return t;
}

// Passes after the first keep only their timings, digests and checks:
// retaining every pass's per-slice and per-packet samples would make peak
// RSS grow with the number of passes a machine fits into a run.
void Compact(Pass& pass) {
  for (TestbedRun& run : pass) {
    run.slice_wall_ms = {};
    run.heap_depth = {};
    run.rtt_ms = SampleSet();
    run.trace.sojourn_ms = {};
    run.trace.air_ms = {};
  }
}

// The process's peak resident set (VmHWM). Unlike getrusage's ru_maxrss,
// it starts afresh at exec, so the launcher's own footprint is not counted.
double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

// Per scheme (Schemes() order), the fastest RunFor wall time of each slice
// over the untraced passes. Every pass of a seed does the same simulated work
// slice by slice, and other work on the host only ever adds to a slice's
// time, so the fastest of a slice's passes is its steadiest measure.
using SliceWalls = std::vector<std::vector<double>>;

void FoldFastest(const Pass& pass, SliceWalls* fastest) {
  if (fastest->empty()) {
    for (const TestbedRun& run : pass) fastest->push_back(run.slice_wall_ms);
    return;
  }
  for (size_t i = 0; i < pass.size(); ++i) {
    std::vector<double>& best = (*fastest)[i];
    const std::vector<double>& walls = pass[i].slice_wall_ms;
    for (size_t k = 0; k < std::min(best.size(), walls.size()); ++k) {
      best[k] = std::min(best[k], walls[k]);
    }
  }
}

// Repeats whole passes until the deadline (at least one). `traced_too`
// alternates untraced and traced passes. Returns the peak RSS after the
// first untraced pass, which does not depend on how many passes follow.
double RunPasses(const WorkloadSpec& spec, uint64_t seed, double seconds, bool traced_too,
                 std::vector<Pass>* untraced, std::vector<Pass>* traced, SliceWalls* fastest) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  double peak_rss_mib = 0;
  do {
    untraced->push_back(RunPass(spec, seed, false));
    FoldFastest(untraced->back(), fastest);
    if (untraced->size() == 1) {
      peak_rss_mib = PeakRssMiB();
    }
    if (traced_too) {
      traced->push_back(RunPass(spec, seed, true));
    }
    if (untraced->size() > 1) {
      Compact(untraced->back());
      if (traced_too) Compact(traced->back());
    }
  } while (Clock::now() < deadline);
  const Pass& reference = untraced->front();
  for (std::vector<Pass>* passes : {untraced, traced}) {
    for (Pass& pass : *passes) {
      CheckDeterminism(reference, pass);
    }
  }
  return peak_rss_mib;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    list_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& list() const { return list_; }

  void Print() const {
    for (const Metric& m : list_) {
      std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < list_.size(); ++i) {
      char buf[256];
      // A non-finite value fails the run's check; JSON spells it null.
      char value[32] = "null";
      if (std::isfinite(list_[i].value)) {
        std::snprintf(value, sizeof(value), "%.17g", list_[i].value);
      }
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", list_[i].name.c_str(), value, list_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> list_;
};

// Set-up is timed apart from the passes, kSetupSamples times per scheme,
// so that its median does not rest on the few passes a run fits in.
constexpr int kSetupSamples = 20;

// Median set-up and Testbed-constructor wall time, summed over the schemes.
SetupTime MedianSetup(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<std::vector<double>> setup(Schemes().size());
  std::vector<std::vector<double>> build(Schemes().size());
  for (int k = 0; k < kSetupSamples; ++k) {
    for (size_t i = 0; i < Schemes().size(); ++i) {
      const SetupTime t = TimeSetup(spec, Schemes()[i], seed);
      setup[i].push_back(t.setup_s);
      build[i].push_back(t.build_s);
    }
  }
  SetupTime total;
  for (size_t i = 0; i < Schemes().size(); ++i) {
    total.setup_s += Median(setup[i]);
    total.build_s += Median(build[i]);
  }
  return total;
}

// Per-pass throughput of the simulator over all four testbeds.
double PassSimRate(const Pass& pass) {
  double sim = 0, wall = 0;
  for (const TestbedRun& run : pass) {
    sim += run.sim_s;
    wall += run.run_wall_s;
  }
  return wall > 0 ? sim / wall : 0.0;
}

double MedianOverPasses(const std::vector<Pass>& passes,
                        const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  for (const Pass& pass : passes) v.push_back(f(pass));
  return Median(std::move(v));
}

// The highest percentile (at most p99) that has at least ten samples
// beyond it.
double TailQuantile(size_t samples) {
  if (samples == 0) return 0.0;
  return std::clamp(1.0 - 10.0 / static_cast<double>(samples), 0.0, 0.99);
}

// Simulated seconds of a pass over the wall time of a pass made of every
// slice's fastest run.
double FastestSimRate(const Pass& pass, const SliceWalls& fastest) {
  double sim = 0, wall_ms = 0;
  for (const TestbedRun& run : pass) sim += run.sim_s;
  for (const std::vector<double>& walls : fastest) {
    for (double w : walls) wall_ms += w;
  }
  return wall_ms > 0 ? sim / (wall_ms / 1e3) : 0.0;
}

Metrics EndToEnd(const std::vector<Pass>& passes, const SliceWalls& fastest,
                 const RunCount& tally, const SetupTime& setup, double peak_rss_mib) {
  const TestbedRun& airtime = Of(passes.front(), QueueScheme::kAirtimeFair);
  Metrics m;
  m.Add("sim_rate", FastestSimRate(passes.front(), fastest), "sim-s/s");
  m.Add("setup_s", setup.setup_s, "s");
  m.Add("peak_rss_mb", peak_rss_mib, "MiB");
  m.Add("goodput_mbps", airtime.goodput_mbps, "Mbit/s");
  m.Add("airtime_jain", airtime.jain, "index");
  m.Add("latency_p50_ms", airtime.rtt_ms.Median(), "ms");
  const double q = TailQuantile(airtime.rtt_ms.count());
  m.Add("latency_p99_ms", airtime.rtt_ms.Quantile(q), "ms");
  std::printf("[e2e] latency tail percentile p%.2f over n=%zu pooled ping RTTs (airtime scheme)\n",
              100 * q, airtime.rtt_ms.count());
  std::printf("[e2e] sim_rate: every slice at its fastest of %zu untraced passes "
              "(median pass %.6g sim-s/s)\n",
              passes.size(), MedianOverPasses(passes, PassSimRate));
  std::printf("[e2e] failed_frac=%.6g ratio (%lld of %lld testbed runs failed a check)\n",
              tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 0.0,
              static_cast<long long>(tally.failed), static_cast<long long>(tally.attempted));
  return m;
}

// Per-scheme layer costs estimated from the probes.
struct LayerCost {
  double ns_per_call = 0;
  double calls_per_sim_s = 0;
  double est_share = 0;  // Of the scheme's untraced RunFor wall time.
};

struct SchemeLayers {
  QueueScheme scheme;
  double wall_ns_per_sim_s = 0;
  double sim_s = 0;
  std::map<std::string, LayerCost> layers;  // "sim", "net", "aqm.enq", ...
  double heap_depth = 0;
  double sample_tick_ns = 0;
};

// Median over passes of one scheme's RunFor wall ns per simulated second.
double WallNsPerSimSecond(const std::vector<Pass>& passes, QueueScheme scheme) {
  return MedianOverPasses(passes, [scheme](const Pass& p) {
    return Of(p, scheme).run_wall_s * 1e9 / Of(p, scheme).sim_s;
  });
}

LayerCost Cost(double ns, double calls, double sim_s, double wall_ns_per_sim_s) {
  LayerCost c;
  c.ns_per_call = ns;
  c.calls_per_sim_s = sim_s > 0 ? calls / sim_s : 0.0;
  c.est_share = wall_ns_per_sim_s > 0 ? ns * c.calls_per_sim_s / wall_ns_per_sim_s : 0.0;
  return c;
}

SchemeLayers ProbeScheme(const std::vector<Pass>& untraced, const std::vector<Pass>& traced,
                         QueueScheme scheme, int stations, double trace_append_ns) {
  const TestbedRun& run = Of(untraced.front(), scheme);
  SchemeLayers s;
  s.scheme = scheme;
  s.sim_s = run.sim_s;
  s.wall_ns_per_sim_s = WallNsPerSimSecond(untraced, scheme);
  const double wall = s.wall_ns_per_sim_s;
  s.heap_depth = Median(run.heap_depth);
  s.layers["sim"] = Cost(ProbeEventLoopNs(static_cast<int>(s.heap_depth)),
                         static_cast<double>(run.events), run.sim_s, wall);
  s.layers["net"] = Cost(ProbePacketPoolNs(static_cast<int>(run.in_flight_p50)),
                         static_cast<double>(run.pool_allocated), run.sim_s, wall);
  const QueueCounts& q = run.queues;
  const double overflow = q.enqueued > 0 ? static_cast<double>(q.overflow_drops) / q.enqueued : 0;
  const int flows = static_cast<int>(std::lround(q.backlogged_flows_p50));
  QueueCost cost;
  std::string layer;
  switch (scheme) {
    case QueueScheme::kFifo:
      cost = ProbeFifo(TestbedConfig().fifo_limit_packets, overflow);
      layer = "aqm";
      break;
    case QueueScheme::kFqCodel:
      cost = ProbeFqCodel(flows, overflow);
      layer = "aqm";
      break;
    case QueueScheme::kFqMac:
    case QueueScheme::kAirtimeFair:
      cost = ProbeMacQueues(flows, overflow);
      layer = "core.macq";
      break;
  }
  s.layers[layer + ".enqueue"] =
      Cost(cost.enqueue_ns, static_cast<double>(q.enqueued), run.sim_s, wall);
  s.layers[layer + ".dequeue"] =
      Cost(cost.dequeue_ns, static_cast<double>(q.dequeued), run.sim_s, wall);
  if (scheme == QueueScheme::kAirtimeFair) {
    s.layers["core.sched"] =
        Cost(ProbeSchedulerNs(flows, run.mean_tx_air_us), static_cast<double>(run.aggregates),
             run.sim_s, wall);
  }
  // Traced-run obs costs, relative to the traced wall time.
  const TestbedRun& tr = Of(traced.front(), scheme);
  const double traced_wall = WallNsPerSimSecond(traced, scheme);
  const double ticks = tr.sim_s / kSampleInterval.ToSeconds();
  s.sample_tick_ns = ProbeSampleTickNs(stations, static_cast<double>(tr.trace.delivered) / ticks);
  s.layers["obs.append"] =
      Cost(trace_append_ns, static_cast<double>(tr.trace.appended), tr.sim_s, traced_wall);
  s.layers["obs.sample"] = Cost(s.sample_tick_ns, ticks, tr.sim_s, traced_wall);
  return s;
}

// Untraced layers that add up to scenario.layer_coverage; obs runs only
// when tracing is on and is reported against the traced wall time.
const char* const kUntracedLayers[] = {"sim", "net", "aqm", "core"};

std::string LayerOf(const std::string& key) {
  if (key.rfind("core", 0) == 0) return "core";
  if (key.rfind("aqm", 0) == 0) return "aqm";
  if (key.rfind("obs", 0) == 0) return "obs";
  return key;
}

void PrintLayerTable(const std::vector<SchemeLayers>& schemes) {
  std::printf("\n[layers] per scheme: ns/call, calls per simulated second, est_share of "
              "RunFor wall (obs: of the traced wall)\n");
  std::printf("  %-10s %-18s %12s %14s %10s\n", "scheme", "span", "ns/call", "calls/sim-s",
              "est_share");
  for (const SchemeLayers& s : schemes) {
    std::map<std::string, double> by_layer;
    for (const auto& [key, c] : s.layers) {
      std::printf("  %-10s %-18s %12.1f %14.0f %10.4f\n", SchemeKey(s.scheme), key.c_str(),
                  c.ns_per_call, c.calls_per_sim_s, c.est_share);
      if (LayerOf(key) != "obs") by_layer[LayerOf(key)] += c.est_share;
    }
    std::vector<std::pair<double, std::string>> ranked;
    double coverage = 0;
    for (const auto& [layer, share] : by_layer) {
      ranked.emplace_back(share, layer);
      coverage += share;
    }
    std::sort(ranked.rbegin(), ranked.rend());
    std::printf("  %-10s ranking:", SchemeKey(s.scheme));
    for (const auto& [share, layer] : ranked) std::printf(" %s=%.3f", layer.c_str(), share);
    std::printf("  coverage=%.3f  (wall %.0f ns per sim-s)\n", coverage, s.wall_ns_per_sim_s);
  }
}

Metrics PerLayer(const WorkloadSpec& spec, const std::vector<Pass>& untraced,
                 const std::vector<Pass>& traced, const SetupTime& setup) {
  const Pass& p0 = untraced.front();
  const TestbedRun& airtime = Of(p0, QueueScheme::kAirtimeFair);
  const TestbedRun& airtime_traced = Of(traced.front(), QueueScheme::kAirtimeFair);

  double sim_s = 0, events = 0, scheduled = 0, detached = 0, tokens = 0, packets = 0;
  double heap_packets = 0, chunks = 0, link_drops = 0;
  std::vector<double> heap_depth, slice_ms;
  for (const TestbedRun& run : p0) {
    sim_s += run.sim_s;
    events += static_cast<double>(run.events);
    scheduled += static_cast<double>(run.events_scheduled);
    detached += static_cast<double>(run.events_detached);
    tokens += static_cast<double>(run.tokens_created);
    packets += static_cast<double>(run.pool_allocated);
    heap_packets += static_cast<double>(run.heap_packets);
    chunks += static_cast<double>(run.pool_chunks);
    link_drops += static_cast<double>(run.tally.link_drops);
    heap_depth.insert(heap_depth.end(), run.heap_depth.begin(), run.heap_depth.end());
    slice_ms.insert(slice_ms.end(), run.slice_wall_ms.begin(), run.slice_wall_ms.end());
  }
  const double wall = MedianOverPasses(untraced, [](const Pass& p) {
    double w = 0;
    for (const TestbedRun& run : p) w += run.run_wall_s;
    return w;
  });

  // Probes, sized from the untraced run's counts.
  const double append_ns = ProbeTraceAppendNs();
  std::vector<SchemeLayers> schemes;
  for (QueueScheme scheme : Schemes()) {
    schemes.push_back(ProbeScheme(untraced, traced, scheme, spec.stations, append_ns));
  }
  PrintLayerTable(schemes);

  // Workload-level figures: call-weighted ns, shares of the summed wall.
  auto weighted_ns = [&](const std::string& key) {
    double ns = 0, calls = 0;
    for (const SchemeLayers& s : schemes) {
      const auto it = s.layers.find(key);
      if (it == s.layers.end()) continue;
      ns += it->second.ns_per_call * it->second.calls_per_sim_s * s.sim_s;
      calls += it->second.calls_per_sim_s * s.sim_s;
    }
    return calls > 0 ? ns / calls : 0.0;
  };
  auto share = [&](const std::string& layer) {
    double busy = 0, total = 0;
    for (const SchemeLayers& s : schemes) {
      total += s.wall_ns_per_sim_s * s.sim_s;
      for (const auto& [key, c] : s.layers) {
        if (LayerOf(key) == layer) busy += c.ns_per_call * c.calls_per_sim_s * s.sim_s;
      }
    }
    return total > 0 ? busy / total : 0.0;
  };
  auto queue_sum = [&](bool mac, auto field) {
    double v = 0, s = 0;
    for (const TestbedRun& run : p0) {
      const bool is_mac =
          run.scheme == QueueScheme::kFqMac || run.scheme == QueueScheme::kAirtimeFair;
      if (is_mac == mac) {
        v += static_cast<double>(field(run.queues));
        s += run.sim_s;
      }
    }
    return std::make_pair(v, s);
  };
  auto enq = [](const QueueCounts& q) { return q.enqueued; };
  auto ovf = [](const QueueCounts& q) { return q.overflow_drops; };
  auto cod = [](const QueueCounts& q) { return q.codel_drops; };

  Metrics m;
  m.Add("sim.events_per_sim_s", events / sim_s, "1/sim-s");
  m.Add("sim.ns_per_event", wall * 1e9 / events, "ns");
  m.Add("sim.detached_frac", scheduled > 0 ? detached / scheduled : 0.0, "ratio");
  m.Add("sim.tokens_per_sim_s", tokens / sim_s, "1/sim-s");
  m.Add("sim.heap_depth_p50", Median(heap_depth), "count");
  m.Add("sim.slice_wall_ms_p50", Quantile(slice_ms, 0.5), "ms");
  m.Add("sim.slice_wall_ms_p99", Quantile(slice_ms, TailQuantile(slice_ms.size())), "ms");
  m.Add("sim.post_dispatch_ns", weighted_ns("sim"), "ns");
  m.Add("sim.est_share", share("sim"), "ratio");

  m.Add("net.packets_per_sim_s", packets / sim_s, "1/sim-s");
  m.Add("net.heap_packets", heap_packets, "count");
  m.Add("net.pool_chunks", chunks, "count");
  m.Add("net.pool_alloc_free_ns", weighted_ns("net"), "ns");
  m.Add("net.link_drops", link_drops, "count");
  m.Add("net.tcp_retransmits", static_cast<double>(airtime.tcp_retransmits), "count");
  m.Add("net.tcp_timeouts", static_cast<double>(airtime.tcp_timeouts), "count");
  m.Add("net.est_share", share("net"), "ratio");

  for (const bool mac : {false, true}) {
    const std::string p = mac ? "core.macq." : "aqm.";
    const auto [enqueued, qsim] = queue_sum(mac, enq);
    m.Add(p + "enqueued_per_sim_s", qsim > 0 ? enqueued / qsim : 0.0, "1/sim-s");
    m.Add(p + "overflow_drop_frac", enqueued > 0 ? queue_sum(mac, ovf).first / enqueued : 0.0,
          "ratio");
    m.Add(p + "codel_drop_frac", enqueued > 0 ? queue_sum(mac, cod).first / enqueued : 0.0,
          "ratio");
    m.Add(p + "enqueue_ns", weighted_ns(p + "enqueue"), "ns");
    m.Add(p + "dequeue_ns", weighted_ns(p + "dequeue"), "ns");
    if (mac) {
      m.Add("core.sched.pick_ns", weighted_ns("core.sched"), "ns");
      m.Add("core.est_share", share("core"), "ratio");
    } else {
      m.Add("aqm.est_share", share("aqm"), "ratio");
    }
  }

  const TraceSummary& tr = airtime_traced.trace;
  m.Add("mac.tx_per_sim_s", static_cast<double>(airtime.tx) / airtime.sim_s, "1/sim-s");
  m.Add("mac.collision_frac",
        airtime.tx > 0 ? static_cast<double>(airtime.collisions) / airtime.tx : 0.0, "ratio");
  m.Add("mac.busy_frac", airtime.busy_s / airtime.sim_s, "ratio");
  m.Add("mac.ampdu_mean",
        airtime.aggregates > 0 ? airtime.ampdu_mpdus / airtime.aggregates : 0.0, "mpdus");
  m.Add("mac.retry_drops", static_cast<double>(airtime.tally.ap_retry_drops), "count");
  const double mpdus = static_cast<double>(tr.mpdus_ok + tr.mpdus_lost);
  m.Add("mac.mpdu_error_frac", mpdus > 0 ? tr.mpdus_lost / mpdus : 0.0, "ratio");
  m.Add("mac.reorder_duplicates", static_cast<double>(airtime.tally.reorder_duplicates),
        "count");
  m.Add("mac.sojourn_ms_p50", Quantile(tr.sojourn_ms, 0.5), "sim-ms");
  m.Add("mac.sojourn_ms_p99", Quantile(tr.sojourn_ms, TailQuantile(tr.sojourn_ms.size())),
        "sim-ms");
  m.Add("mac.air_ms_p50", Quantile(tr.air_ms, 0.5), "sim-ms");

  const double untraced_rate = MedianOverPasses(untraced, PassSimRate);
  const double traced_rate = MedianOverPasses(traced, PassSimRate);
  m.Add("obs.trace_overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio");
  m.Add("obs.trace_append_ns", append_ns, "ns");
  m.Add("obs.sample_ns", schemes.back().sample_tick_ns, "ns");  // Airtime: last in Schemes().

  m.Add("scenario.testbed_build_ms", setup.build_s * 1e3, "ms");
  for (QueueScheme scheme : Schemes()) {
    m.Add(std::string("scenario.") + SchemeKey(scheme) + ".sim_rate",
          MedianOverPasses(untraced, [scheme](const Pass& p) {
            return Of(p, scheme).sim_s / Of(p, scheme).run_wall_s;
          }), "sim-s/s");
  }
  double coverage = 0;
  for (const char* layer : kUntracedLayers) coverage += share(layer);
  m.Add("scenario.layer_coverage", coverage, "ratio");
  std::printf("[layers] traced ring: %llu records appended, %llu lost; sojourn n=%zu air n=%zu\n",
              static_cast<unsigned long long>(tr.appended),
              static_cast<unsigned long long>(tr.lost), tr.sojourn_ms.size(), tr.air_ms.size());
  return m;
}

// ---------------------------------------------------------------------------
// One benchmark run.

struct Result {
  RunCount tally;
  Metrics metrics;
  uint64_t digest = 0;
  double sim_s = 0;            // Simulated seconds of the first pass's testbeds.
  int64_t events_counter = 0;  // Their sim.events.dispatched counter delta.
};

Result RunWorkload(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace) {
  PrintSettings(spec, seed, seconds, trace);
  // Set-up is timed first, while the allocator's state does not yet depend
  // on how many passes the machine fitted into the run.
  const SetupTime setup = MedianSetup(spec, seed);
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  SliceWalls fastest;
  const double peak_rss_mib =
      RunPasses(spec, seed, seconds, trace, &untraced, &traced, &fastest);

  Result result;
  std::vector<Pass> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  result.tally = CountFailures(all);
  result.digest = WorkloadDigest(untraced.front());

  const Pass& p0 = untraced.front();
  std::printf("\n[outputs] %s seed=%llu: %zu untraced + %zu traced passes\n", spec.name.c_str(),
              static_cast<unsigned long long>(seed), untraced.size(), traced.size());
  std::printf("  %-10s %9s %8s %10s %10s %10s %10s %16s\n", "scheme", "Mbit/s", "Jain",
              "rtt_p50", "sim-s/s", "setup_ms", "events", "digest");
  for (const TestbedRun& run : p0) {
    result.sim_s += run.sim_s;
    result.events_counter += run.events_counter;
    std::printf("  %-10s %9.2f %8.4f %10.2f %10.2f %10.3f %10lld %016llx\n",
                SchemeKey(run.scheme), run.goodput_mbps, run.jain, run.rtt_ms.Median(),
                run.sim_s / run.run_wall_s, run.setup.setup_s * 1e3,
                static_cast<long long>(run.events), static_cast<unsigned long long>(run.digest));
  }
  std::printf("  workload digest %016llx\n", static_cast<unsigned long long>(result.digest));
  std::printf("  untraced pass sim-s/s:");
  for (const Pass& pass : untraced) std::printf(" %.2f", PassSimRate(pass));
  std::printf("\n");

  result.metrics = trace ? PerLayer(spec, untraced, traced, setup)
                         : EndToEnd(untraced, fastest, result.tally, setup, peak_rss_mib);
  return result;
}

bool AllFinite(const Metrics& metrics, const std::string& label) {
  bool ok = true;
  for (const Metric& m : metrics.list()) {
    if (m.unit.empty() || !std::isfinite(m.value)) {
      std::printf("[check] FAIL %s: metric %s = %g unit '%s'\n", label.c_str(),
                  m.name.c_str(), m.value, m.unit.c_str());
      ok = false;
    }
  }
  return ok;
}

// Short mode: every workload, both trace modes, two seeds. Checks that every
// metric prints with a unit and a finite value, that the correctness checks
// and paper-shape verdicts pass, and that sim.events_per_sim_s x simulated
// seconds reproduces the sim.events.dispatched counter delta.
int SelfTest() {
  bool ok = true;
  for (const WorkloadSpec& spec : Workloads()) {
    for (const uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
      for (const bool trace : {false, true}) {
        const std::string label =
            spec.name + " seed=" + std::to_string(seed) + " trace=" + (trace ? "1" : "0");
        const Result r = RunWorkload(spec, seed, 0.01, trace);
        r.metrics.Print();
        bool events_match = true;
        for (const Metric& m : r.metrics.list()) {
          if (m.name == "sim.events_per_sim_s") {
            const int64_t events = std::llround(m.value * r.sim_s);
            events_match = events == r.events_counter;
            std::printf("[self-test] sim.events_per_sim_s x %.0f sim-s = %lld, "
                        "sim.events.dispatched delta = %lld\n",
                        r.sim_s, static_cast<long long>(events),
                        static_cast<long long>(r.events_counter));
          }
        }
        const bool pass = AllFinite(r.metrics, label) && r.tally.failed == 0 && events_match;
        std::printf("[self-test] %s %s (%lld/%lld testbed runs failed a check)\n",
                    pass ? "ok  " : "FAIL", label.c_str(), static_cast<long long>(r.tally.failed),
                    static_cast<long long>(r.tally.attempted));
        ok = ok && pass;
      }
    }
  }
  std::printf("[self-test] %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const std::vector<std::string> scrubbed = ScrubEnvironment();
  const BuildInfo build = GetBuildInfo();
  PrintContext(args, build, scrubbed);
  if (!build.ndebug || build.sanitizer) {
    std::fprintf(stderr,
                 "airbench: refusing to time a %s build (NDEBUG=%d, sanitizer=%d); build "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build.build_type.c_str(), build.ndebug ? 1 : 0, build.sanitizer ? 1 : 0);
    return 3;
  }
  if (args.self_test) {
    return SelfTest();
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  std::printf("[workload] %s: %s\n", spec.name.c_str(), spec.why.c_str());
  const Result r = RunWorkload(spec, args.seed, args.seconds, args.trace);
  std::printf("\n[metrics] %s\n", args.trace ? "per-layer (traced run)" : "end-to-end");
  r.metrics.Print();
  const bool correct = r.tally.failed == 0 && AllFinite(r.metrics, args.workload);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(r.tally.attempted), static_cast<long long>(r.tally.failed),
              r.metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace airfair::bench

int main(int argc, char** argv) { return airfair::bench::Main(argc, argv); }
