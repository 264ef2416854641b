// Strict text parsers for knobs, and environment-variable readers built on
// them.
//
// parse_* check one value against its accepted forms and, when it is outside
// them, return an error naming the knob, the value and the forms, so a typo
// never silently runs another configuration. Command-line tools run their
// flags and variables through them; the get_* readers (benchmark harness
// knobs such as NARMA_REPS=3) fall back to the caller's default when the
// variable is unset or empty and make a malformed value a fatal NARMA_CHECK.
// The library itself reads no environment: it takes its params as given.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace narma::env {

/// One parse: `error` is empty on success, else
/// `<name>="<text>"; accepted: <forms>`.
template <class T>
struct Parsed {
  T value{};
  std::string error;
};

/// Accepted form: a base-10 integer.
Parsed<std::int64_t> parse_int(std::string_view name, std::string_view text);
/// Accepted form: a floating-point number (strtod syntax).
Parsed<double> parse_double(std::string_view name, std::string_view text);
/// Accepted forms: 1/true/yes/on and 0/false/no/off.
Parsed<bool> parse_bool(std::string_view name, std::string_view text);
/// Accepted forms: the entries of `accepted`.
Parsed<std::string> parse_choice(std::string_view name, std::string_view text,
                                 std::initializer_list<const char*> accepted);

std::int64_t get_int(const char* name, std::int64_t fallback);
double get_double(const char* name, double fallback);
std::string get_string(const char* name, const std::string& fallback);

}  // namespace narma::env
