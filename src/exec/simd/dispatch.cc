// Runtime CPU dispatch for the SIMD kernel tier.
//
// The probe runs once per process (__builtin_cpu_supports, cached in a
// static); the APQ_SIMD environment override follows the util/env.h rule
// every knob does, with level names in place of numbers: anything that is
// not a known level name is rejected with a one-line warning and the
// runtime probe decides, so a typo can never silently change which kernels
// run. A recognized level the CPU cannot execute is clamped down (with a
// warning) instead of crashing on an illegal instruction.
#include "exec/simd/simd_ops.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace apq {
namespace simd {

// Defined in kernels_avx2.cc / kernels_avx512.cc, compiled with -mavx2 /
// -mavx512f (per-file flags; see CMakeLists). When the APQ_SIMD build option
// is off those files are not compiled and these externs must not be
// referenced — the scalar table is all that exists.
#if defined(APQ_SIMD_TIERS)
const SimdOps& Avx2Ops();
const SimdOps& Avx512Ops();
#endif

namespace {

const SimdOps& ScalarOps() {
  static const SimdOps ops = [] {
    SimdOps o;
    o.level = SimdLevel::kScalar;
    return o;
  }();
  return ops;
}

SimdLevel ProbeHighest() {
#if defined(APQ_SIMD_TIERS) && defined(__x86_64__)
  // AVX-512 needs F (compress, masked gathers) plus DQ (vcvtqq2pd /
  // vcvttpd2qq for the cross-typed predicates) and VL (256-bit mask compares
  // in the LIKE probe) — all present together on every AVX-512 part that
  // matters (Skylake-SP onward, Zen 4 onward).
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return SimdLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

/// Parsed APQ_SIMD override: kAuto when unset or rejected.
SimdLevel EnvLevel() {
  static const SimdLevel level = [] {
    const char* v = std::getenv("APQ_SIMD");
    if (v == nullptr || v[0] == '\0') return SimdLevel::kAuto;
    SimdLevel parsed;
    if (!ParseSimdLevelName(v, &parsed)) {
      std::fprintf(stderr,
                   "apq: ignoring APQ_SIMD=\"%s\": unknown level (use "
                   "scalar, avx2, or avx512); using the runtime probe\n",
                   v);
      return SimdLevel::kAuto;
    }
    const SimdLevel best = ProbeHighest();
    if (parsed > best) {
      std::fprintf(stderr,
                   "apq: APQ_SIMD=\"%s\" exceeds what this CPU/build "
                   "supports; clamping to %s\n",
                   v, LevelName(best));
      return best;
    }
    return parsed;
  }();
  return level;
}

}  // namespace

bool ParseSimdLevelName(const char* s, SimdLevel* out) {
  if (s == nullptr) return false;
  char buf[8];
  size_t i = 0;
  for (; s[i] != '\0'; ++i) {
    if (i + 1 >= sizeof(buf)) return false;
    buf[i] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(s[i])));
  }
  buf[i] = '\0';
  if (std::strcmp(buf, "scalar") == 0) {
    *out = SimdLevel::kScalar;
    return true;
  }
  if (std::strcmp(buf, "avx2") == 0) {
    *out = SimdLevel::kAvx2;
    return true;
  }
  if (std::strcmp(buf, "avx512") == 0) {
    *out = SimdLevel::kAvx512;
    return true;
  }
  return false;
}

const char* LevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto: return "auto";
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "?";
}

SimdLevel HighestSupported() {
  static const SimdLevel best = ProbeHighest();
  return best;
}

bool LevelSupported(SimdLevel level) {
  return level != SimdLevel::kAuto && level <= HighestSupported();
}

const SimdOps& OpsFor(SimdLevel level) {
  if (level == SimdLevel::kAuto) return Ops();
  if (level > HighestSupported()) level = HighestSupported();
#if defined(APQ_SIMD_TIERS)
  switch (level) {
    case SimdLevel::kAvx512: return Avx512Ops();
    case SimdLevel::kAvx2: return Avx2Ops();
    default: break;
  }
#endif
  return ScalarOps();
}

const SimdOps& Ops() {
  static const SimdOps* active = [] {
    const SimdLevel env = EnvLevel();
    return &OpsFor(env == SimdLevel::kAuto ? HighestSupported() : env);
  }();
  return *active;
}

const SimdOps& Resolve(SimdLevel requested) {
  if (EnvLevel() != SimdLevel::kAuto) return Ops();
  if (requested == SimdLevel::kAuto) return Ops();
  return OpsFor(requested);
}

SimdLevel ActiveLevel() { return Ops().level; }

}  // namespace simd
}  // namespace apq
