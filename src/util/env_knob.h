// Strict parsing of integer environment knobs.
//
// atoi/atoll read "64k" as 64, "1e6" as 1 and "abc" as 0, so a mistyped knob
// silently runs a different experiment. These parsers accept decimal digits
// only, and a rejected value fails an AF_CHECK that names the variable and
// the value.

#ifndef AIRFAIR_SRC_UTIL_ENV_KNOB_H_
#define AIRFAIR_SRC_UTIL_ENV_KNOB_H_

#include <cstdint>

namespace airfair {

// Strict unsigned decimal: digits only (no sign, blank or suffix) and no
// wrap-around past 2^64 - 1. Returns false, leaving `out` alone, otherwise.
bool ParseUint64(const char* text, uint64_t* out);

// The positive integer knob `name`, in [1, max]. Unset or empty gives
// `fallback`. Any other value outside that range (not all digits, 0, above
// `max`) fails an AF_CHECK and, if the failure handler returns, gives
// `fallback`.
uint64_t PositiveIntFromEnv(const char* name, uint64_t max, uint64_t fallback);

}  // namespace airfair

#endif  // AIRFAIR_SRC_UTIL_ENV_KNOB_H_
