// Environment-variable overrides for benchmark harness knobs
// (e.g. NARMA_REPS=3 to shorten a sweep). All reads are typed and fall back
// to the caller's default when the variable is unset or empty; a set value
// outside the accepted forms is a fatal NARMA_CHECK naming the variable, the
// value and the forms, so a typo never silently runs another configuration.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

namespace narma::env {

/// Accepted form: a base-10 integer.
std::int64_t get_int(const char* name, std::int64_t fallback);
/// Accepted form: a floating-point number (strtod syntax).
double get_double(const char* name, double fallback);
std::string get_string(const char* name, const std::string& fallback);
/// Accepted forms: 1/true/yes/on and 0/false/no/off.
bool get_bool(const char* name, bool fallback);
/// Returns the value when it is one of `accepted`, "" when unset or empty.
std::string get_choice(const char* name,
                       std::initializer_list<const char*> accepted);

}  // namespace narma::env
