#include "util/env.hpp"

#include <cerrno>
#include <cstdlib>

#include "util/error.hpp"

namespace dlbench::util {

std::int64_t parse_i64(const std::string& text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    throw Error(what + "=\"" + text + "\" is not an integer");
  return value;
}

double parse_f64(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    throw Error(what + "=\"" + text + "\" is not a number");
  return value;
}

std::int64_t env_i64(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  return parse_i64(raw, name);
}

double env_f64(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  return parse_f64(raw, name);
}

}  // namespace dlbench::util
