#pragma once

// Numeric environment overrides (the DLB_* knobs in KNOBS.md).
//
// Every knob reader parses through these two functions, so a typo
// cannot silently turn into a default: `DLB_GUARD_MAX_RECOVERIES=two`
// throws instead of disabling recovery.

#include <cstdint>

namespace dlbench::util {

/// The base-10 integer in variable `name`, or `fallback` when it is
/// unset or empty. Throws dlbench::Error naming the variable when the
/// value has trailing characters, no digits, or overflows int64.
std::int64_t env_i64(const char* name, std::int64_t fallback);

/// The floating-point value in variable `name` (strtod syntax, e.g.
/// "0.25" or "2e10"), or `fallback` when it is unset or empty. Throws
/// dlbench::Error naming the variable when the value is malformed.
double env_f64(const char* name, double fallback);

}  // namespace dlbench::util
