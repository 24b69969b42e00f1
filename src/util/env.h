// The one reader for every APQ_* environment knob, and the one decimal
// parser for every integer that arrives from outside the program.
//
// The hardening rule: unset and empty mean "use the default"; an invalid
// value prints one stderr line naming the knob, the value and what is
// accepted, and the caller keeps its default, so a knob never fails a query.
// Callers latch each read in a function-local static (knobs are read once
// per process) and keep the knob name a string literal at the call site,
// which is what tools/knob_doc_check.py scans for.
#ifndef APQ_UTIL_ENV_H_
#define APQ_UTIL_ENV_H_

#include <cstdint>
#include <optional>
#include <string>

namespace apq {

/// Parses `s` as a plain decimal integer in [lo, hi] into *out. Digits
/// only: a sign, a space, a suffix, an empty string, null and overflow are
/// all rejected (false, *out untouched).
bool ParseDecimal(const char* s, uint64_t lo, uint64_t hi, uint64_t* out);

/// The integer knob `name` in [lo, hi]. nullopt when unset or empty, and
/// when invalid after a one-line stderr warning.
std::optional<uint64_t> EnvInt(const char* name, uint64_t lo, uint64_t hi);

/// The path knob `name` when the path can be opened for writing (probed by
/// an append-mode open, so an existing file is not truncated). "" when
/// unset or empty, and when unwritable after a one-line stderr warning.
std::string EnvPath(const char* name);

}  // namespace apq

#endif  // APQ_UTIL_ENV_H_
