#pragma once

// Strict numeric parsing for the DLB_* environment knobs (KNOBS.md) and
// the benches' numeric flags.
//
// Every knob reader and flag handler parses through these functions, so
// a typo cannot silently turn into a default or a truncated value:
// `DLB_GUARD_MAX_RECOVERIES=two` and `--requests=1e3` throw instead.

#include <cstdint>
#include <string>

namespace dlbench::util {

/// The base-10 integer `text`. Throws dlbench::Error naming `what` (a
/// variable or flag name) when the text has trailing characters, no
/// digits, or overflows int64.
std::int64_t parse_i64(const std::string& text, const std::string& what);

/// The floating-point value `text` (strtod syntax, e.g. "0.25" or
/// "2e10"). Throws dlbench::Error naming `what` when it is malformed.
double parse_f64(const std::string& text, const std::string& what);

/// parse_i64 of variable `name`, or `fallback` when it is unset or
/// empty.
std::int64_t env_i64(const char* name, std::int64_t fallback);

/// parse_f64 of variable `name`, or `fallback` when it is unset or
/// empty.
double env_f64(const char* name, double fallback);

}  // namespace dlbench::util
