#include "src/util/env_knob.h"

#include <cstdlib>
#include <limits>

#include "src/util/check.h"

namespace airfair {

bool ParseUint64(const char* text, uint64_t* out) {
  if (*text == '\0') {
    return false;
  }
  uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

uint64_t PositiveIntFromEnv(const char* name, uint64_t max, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  uint64_t value = 0;
  const bool ok = ParseUint64(env, &value) && value >= 1 && value <= max;
  AF_CHECK(ok) << " " << name << ": expected a decimal integer in [1, " << max << "], got \""
               << env << "\"";
  return ok ? value : fallback;
}

bool ParsePositiveDecimal(const char* text, double* out) {
  bool digits = false;
  bool point = false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p >= '0' && *p <= '9') {
      digits = true;
    } else if (*p == '.' && !point) {
      point = true;
    } else {
      return false;
    }
  }
  if (!digits) {
    return false;
  }
  // The text is plain digits and one point, so strtod reads all of it.
  const double value = std::strtod(text, nullptr);
  if (!(value > 0.0)) {
    return false;
  }
  *out = value;
  return true;
}

double PositiveDecimalFromEnv(const char* name, double min, double max, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  double value = 0.0;
  const bool ok = ParsePositiveDecimal(env, &value) && value >= min && value <= max;
  AF_CHECK(ok) << " " << name << ": expected a decimal number in [" << min << ", " << max
               << "], got \"" << env << "\"";
  return ok ? value : fallback;
}

}  // namespace airfair
