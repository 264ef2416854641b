#include "common/env.hpp"

#include <cstdlib>

#include "common/assert.hpp"

namespace narma::env {

std::int64_t get_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  NARMA_CHECK(end && *end == '\0')
      << name << "=\"" << v << "\"; accepted: a base-10 integer";
  return parsed;
}

double get_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  NARMA_CHECK(end && *end == '\0')
      << name << "=\"" << v << "\"; accepted: a decimal number";
  return parsed;
}

std::string get_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string(v) : fallback;
}

bool get_bool(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::string s(v);
  const bool yes = s == "1" || s == "true" || s == "yes" || s == "on";
  const bool no = s == "0" || s == "false" || s == "no" || s == "off";
  NARMA_CHECK(yes || no) << name << "=\"" << s
                         << "\"; accepted: 1|true|yes|on or 0|false|no|off";
  return yes;
}

std::string get_choice(const char* name,
                       std::initializer_list<const char*> accepted) {
  const std::string s = get_string(name, "");
  if (s.empty()) return s;
  bool known = false;
  std::string forms;
  for (const char* a : accepted) {
    known |= s == a;
    forms += forms.empty() ? "" : "|";
    forms += a;
  }
  NARMA_CHECK(known) << name << "=\"" << s << "\"; accepted: " << forms;
  return s;
}

}  // namespace narma::env
