#include "util/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace apq {

bool ParseDecimal(const char* s, uint64_t lo, uint64_t hi, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t v = 0;
  for (; *s != '\0'; ++s) {
    if (*s < '0' || *s > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(*s - '0');
    if (v > (kMax - digit) / 10) return false;
    v = v * 10 + digit;
  }
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

std::optional<uint64_t> EnvInt(const char* name, uint64_t lo, uint64_t hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  uint64_t n = 0;
  if (!ParseDecimal(v, lo, hi, &n)) {
    std::fprintf(stderr,
                 "apq: ignoring %s=\"%s\": expected digits only, in "
                 "%llu..%llu; keeping the default\n",
                 name, v, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return std::nullopt;
  }
  return n;
}

std::string EnvPath(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return "";
  std::FILE* f = std::fopen(v, "a");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "apq: ignoring %s=\"%s\": cannot open for writing (%s); "
                 "this export stays off\n",
                 name, v, std::strerror(errno));
    return "";
  }
  std::fclose(f);
  return v;
}

}  // namespace apq
