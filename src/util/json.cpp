#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace dlbench::util::json {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", ch);
          out += hex;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

}  // namespace dlbench::util::json
