#include "common/env.hpp"

#include <cstdlib>
#include <utility>

#include "common/assert.hpp"

namespace narma::env {

namespace {

std::string error(std::string_view name, std::string_view text,
                  std::string_view forms) {
  return std::string(name).append("=\"").append(text).append(
      "\"; accepted: ").append(forms);
}

/// The variable's value, or nullptr when it is unset or empty.
const char* lookup(const char* name) {
  const char* v = std::getenv(name);
  return (v && *v) ? v : nullptr;
}

template <class T>
T checked(Parsed<T> p) {
  NARMA_CHECK(p.error.empty()) << p.error;
  return std::move(p.value);
}

}  // namespace

Parsed<std::int64_t> parse_int(std::string_view name, std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const long long parsed = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0')
    return {0, error(name, text, "a base-10 integer")};
  return {parsed, {}};
}

Parsed<double> parse_double(std::string_view name, std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const double parsed = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0')
    return {0.0, error(name, text, "a decimal number")};
  return {parsed, {}};
}

Parsed<bool> parse_bool(std::string_view name, std::string_view text) {
  const bool yes =
      text == "1" || text == "true" || text == "yes" || text == "on";
  const bool no =
      text == "0" || text == "false" || text == "no" || text == "off";
  if (!yes && !no)
    return {false, error(name, text, "1|true|yes|on or 0|false|no|off")};
  return {yes, {}};
}

Parsed<std::string> parse_choice(std::string_view name, std::string_view text,
                                 std::initializer_list<const char*> accepted) {
  std::string forms;
  for (const char* a : accepted) {
    if (text == a) return {std::string(text), {}};
    forms += forms.empty() ? "" : "|";
    forms += a;
  }
  return {{}, error(name, text, forms)};
}

std::int64_t get_int(const char* name, std::int64_t fallback) {
  const char* v = lookup(name);
  return v ? checked(parse_int(name, v)) : fallback;
}

double get_double(const char* name, double fallback) {
  const char* v = lookup(name);
  return v ? checked(parse_double(name, v)) : fallback;
}

std::string get_string(const char* name, const std::string& fallback) {
  const char* v = lookup(name);
  return v ? std::string(v) : fallback;
}

}  // namespace narma::env
