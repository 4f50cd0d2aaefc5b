// Perturbation schedules for the fault-injection subsystem.
//
// A FaultPlan is a list of timed perturbations the FaultInjector replays
// against a running testbed: station churn (leave/join), Gilbert-Elliott
// burst loss windows, and scheduled rate fades. Plans are built
// programmatically (benches, tests) or parsed from the AIRFAIR_FAULT_SCHEDULE
// environment variable, whose grammar is semicolon-separated events:
//
//   leave:<sta>:<t_ms>
//   join:<sta>:<t_ms>
//   burst:<sta>:<t_ms>:<dur_ms>:<p_bad>[:<good_ms>:<bad_ms>]
//   fade:<sta>:<t_ms>:<mcs>[:<restore_ms>]
//
// where <sta> is a station index, times are simulated milliseconds from the
// start of the run, <p_bad> is the per-MPDU loss probability in the bad
// channel state, <good_ms>/<bad_ms> are the mean dwell times of the
// Gilbert-Elliott chain (defaults 200/20 ms), <mcs> is the MCS index to fade
// to, and <restore_ms> (relative to the fade) restores the pre-fade rate.
//
// Everything here is plain data: the schedule carries no randomness. The
// seed for the burst chains lives beside the plan so a run is reproducible
// from (plan, seed) alone.

#ifndef AIRFAIR_SRC_FAULT_FAULT_SCHEDULE_H_
#define AIRFAIR_SRC_FAULT_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace airfair {

enum class FaultKind {
  kLeave,     // Station departs: full MAC-state teardown, traffic drained.
  kJoin,      // Station (re)joins: fresh block-ack sessions, fresh deficits.
  kBurstLoss, // Gilbert-Elliott two-state loss layered on the channel model.
  kRateFade,  // Scheduled MCS down/up-shift through the station table.
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kLeave;
  int station = 0;
  TimeUs at = TimeUs::Zero();

  // kBurstLoss only.
  TimeUs duration = TimeUs::Zero();
  double p_bad = 0.5;
  TimeUs mean_good = TimeUs::FromMilliseconds(200);
  TimeUs mean_bad = TimeUs::FromMilliseconds(20);

  // kRateFade only.
  int mcs = 0;
  TimeUs restore_after = TimeUs::Zero();  // Zero: the fade is permanent.
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  // Convenience builders (used by the benches and tests; times are absolute
  // simulated time).
  FaultPlan& Leave(int station, TimeUs at);
  FaultPlan& Join(int station, TimeUs at);
  FaultPlan& Burst(int station, TimeUs at, TimeUs duration, double p_bad);
  FaultPlan& Fade(int station, TimeUs at, int mcs, TimeUs restore_after = TimeUs::Zero());
};

// Parses the AIRFAIR_FAULT_SCHEDULE grammar above. Returns false (and sets
// `error`, if non-null) on a malformed schedule; `plan` then holds every
// event parsed before the failure.
bool ParseFaultSchedule(const std::string& text, FaultPlan* plan, std::string* error);

// Plan from the AIRFAIR_FAULT_SCHEDULE environment variable (empty plan if
// unset). A malformed schedule is a hard failure: a silently ignored fault
// schedule would invalidate whatever experiment asked for it.
FaultPlan FaultPlanFromEnv();

// Seed for the fault subsystem's dedicated RNG: AIRFAIR_CHURN_SEED if set,
// otherwise derived from the testbed seed. Kept apart from Simulation::rng()
// so enabling faults never perturbs the traffic randomness (the same
// scenario with and without a schedule stays comparable), and an A/B run
// can vary the fault randomness without touching the traffic stream. A set
// value must be an unsigned decimal integer that fits in 64 bits; anything
// else (letters, a sign, a trailing suffix, overflow) fails an AF_CHECK
// naming the variable.
uint64_t ChurnSeedFromEnv(uint64_t testbed_seed);

}  // namespace airfair

#endif  // AIRFAIR_SRC_FAULT_FAULT_SCHEDULE_H_
