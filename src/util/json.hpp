#pragma once

// JSON scalars shared by every emitter: the --json-out record documents
// (core/report) and the chrome trace (runtime/trace).

#include <string>

namespace dlbench::util::json {

/// `s` as a JSON string literal, quotes included. Escapes '"', '\\',
/// newline, tab and every other control byte (as \u00XX); other bytes
/// pass through, so UTF-8 stays UTF-8.
std::string quoted(const std::string& s);

/// The shortest decimal that parses back to exactly `v`. JSON has no
/// NaN/Infinity literals, and the histogram's empty sentinel is NaN
/// (see runtime/histogram.hpp), so non-finite values emit null: a
/// fully-shed window never produces an unparsable or garbage p99.
std::string num(double v);

}  // namespace dlbench::util::json
