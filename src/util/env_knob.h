// Strict parsing of numeric environment knobs.
//
// atoi/atof read "64k" as 64, "1e6" as 1, "2x" as 2 and "abc" as 0, so a
// mistyped knob silently runs a different experiment. These parsers accept
// plain decimal digits (and one '.' for the decimal form) only, and a
// rejected value fails an AF_CHECK that names the variable and the value.

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

// Strict positive decimal: digits with at most one '.', at least one digit
// and a value above 0 (no sign, exponent, blank or suffix). Returns false,
// leaving `out` alone, otherwise.
bool ParsePositiveDecimal(const char* text, double* out);

// The decimal knob `name`, in [min, max] with min > 0. Unset or empty gives
// `fallback`; any other value outside that range fails an AF_CHECK and, if
// the failure handler returns, gives `fallback`.
double PositiveDecimalFromEnv(const char* name, double min, double max, double fallback);

}  // namespace airfair

#endif  // AIRFAIR_SRC_UTIL_ENV_KNOB_H_
