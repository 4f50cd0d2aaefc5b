#include "src/fault/fault_schedule.h"

#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "src/util/check.h"
#include "src/util/env_knob.h"

namespace airfair {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLeave:
      return "leave";
    case FaultKind::kJoin:
      return "join";
    case FaultKind::kBurstLoss:
      return "burst";
    case FaultKind::kRateFade:
      return "fade";
  }
  return "?";
}

FaultPlan& FaultPlan::Leave(int station, TimeUs at) {
  FaultEvent e;
  e.kind = FaultKind::kLeave;
  e.station = station;
  e.at = at;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::Join(int station, TimeUs at) {
  FaultEvent e;
  e.kind = FaultKind::kJoin;
  e.station = station;
  e.at = at;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::Burst(int station, TimeUs at, TimeUs duration, double p_bad) {
  FaultEvent e;
  e.kind = FaultKind::kBurstLoss;
  e.station = station;
  e.at = at;
  e.duration = duration;
  e.p_bad = p_bad;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::Fade(int station, TimeUs at, int mcs, TimeUs restore_after) {
  FaultEvent e;
  e.kind = FaultKind::kRateFade;
  e.station = station;
  e.at = at;
  e.mcs = mcs;
  e.restore_after = restore_after;
  events.push_back(e);
  return *this;
}

namespace {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, sep)) {
    out.push_back(item);
  }
  return out;
}

bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ParseMs(const std::string& text, TimeUs* out) {
  int ms = 0;
  if (!ParseInt(text, &ms) || ms < 0) {
    return false;
  }
  *out = TimeUs::FromMilliseconds(ms);
  return true;
}

bool Fail(std::string* error, const std::string& token, const char* why) {
  if (error != nullptr) {
    *error = "bad fault event '" + token + "': " + why;
  }
  return false;
}

}  // namespace

bool ParseFaultSchedule(const std::string& text, FaultPlan* plan, std::string* error) {
  for (const std::string& token : Split(text, ';')) {
    if (token.empty()) {
      continue;  // Tolerate trailing/duplicate separators.
    }
    const std::vector<std::string> f = Split(token, ':');
    FaultEvent e;
    if (f[0] == "leave" || f[0] == "join") {
      if (f.size() != 3) {
        return Fail(error, token, "expected <kind>:<sta>:<t_ms>");
      }
      e.kind = f[0] == "leave" ? FaultKind::kLeave : FaultKind::kJoin;
      if (!ParseInt(f[1], &e.station) || !ParseMs(f[2], &e.at)) {
        return Fail(error, token, "malformed station or time");
      }
    } else if (f[0] == "burst") {
      if (f.size() != 5 && f.size() != 7) {
        return Fail(error, token,
                    "expected burst:<sta>:<t_ms>:<dur_ms>:<p_bad>[:<good_ms>:<bad_ms>]");
      }
      e.kind = FaultKind::kBurstLoss;
      if (!ParseInt(f[1], &e.station) || !ParseMs(f[2], &e.at) ||
          !ParseMs(f[3], &e.duration) || !ParseDouble(f[4], &e.p_bad)) {
        return Fail(error, token, "malformed station, time, duration or probability");
      }
      if (e.p_bad < 0.0 || e.p_bad > 1.0) {
        return Fail(error, token, "p_bad outside [0, 1]");
      }
      if (f.size() == 7 &&
          (!ParseMs(f[5], &e.mean_good) || !ParseMs(f[6], &e.mean_bad) ||
           e.mean_good.us() <= 0 || e.mean_bad.us() <= 0)) {
        return Fail(error, token, "malformed dwell times");
      }
    } else if (f[0] == "fade") {
      if (f.size() != 4 && f.size() != 5) {
        return Fail(error, token, "expected fade:<sta>:<t_ms>:<mcs>[:<restore_ms>]");
      }
      e.kind = FaultKind::kRateFade;
      if (!ParseInt(f[1], &e.station) || !ParseMs(f[2], &e.at) || !ParseInt(f[3], &e.mcs)) {
        return Fail(error, token, "malformed station, time or MCS");
      }
      if (f.size() == 5 && !ParseMs(f[4], &e.restore_after)) {
        return Fail(error, token, "malformed restore time");
      }
    } else {
      return Fail(error, token, "unknown kind");
    }
    if (e.station < 0) {
      return Fail(error, token, "negative station index");
    }
    plan->events.push_back(e);
  }
  return true;
}

FaultPlan FaultPlanFromEnv() {
  FaultPlan plan;
  const char* env = std::getenv("AIRFAIR_FAULT_SCHEDULE");
  if (env == nullptr || *env == '\0') {
    return plan;
  }
  std::string error;
  AF_CHECK(ParseFaultSchedule(env, &plan, &error))
      << " AIRFAIR_FAULT_SCHEDULE: " << error;
  return plan;
}

uint64_t ChurnSeedFromEnv(uint64_t testbed_seed) {
  if (const char* env = std::getenv("AIRFAIR_CHURN_SEED"); env != nullptr && *env != '\0') {
    uint64_t seed = 0;
    AF_CHECK(ParseUint64(env, &seed))
        << " AIRFAIR_CHURN_SEED: expected an unsigned decimal integer below 2^64,"
        << " got \"" << env << "\"";
    return seed;
  }
  // Decorrelate from the traffic seed without an extra knob: the golden
  // ratio step is splitmix64's increment, so nearby testbed seeds still get
  // unrelated fault streams.
  return testbed_seed * 0x9E3779B97F4A7C15ull + 0x60642E2A34326F15ull;
}

}  // namespace airfair
