#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/logging.h"
#include "common/macros.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

// The vector paths use per-function target attributes so this file (and
// the whole library) builds for a generic x86-64 baseline yet still
// contains AVX2 code, selected at runtime. On non-x86 targets (or
// compilers without the attribute) every level falls through to scalar.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define METALEAK_SIMD_X86 1
#include <immintrin.h>
#else
#define METALEAK_SIMD_X86 0
#endif

namespace metaleak {

namespace {

// --- Scalar reference kernels -------------------------------------------
//
// These are the semantics oracle: the vector paths below must match them
// byte for byte on every input (tested by tests/simd_kernel_test.cc).

// Templated over the code storage width (uint8_t / uint16_t / uint32_t):
// codes compare as widened values, so every width is semantically the
// u32 kernel reading fewer bytes.
template <typename Code>
size_t ScalarCountEqualT(const Code* a, const Code* b, size_t n) {
  size_t count = 0;
  for (size_t r = 0; r < n; ++r) count += a[r] == b[r];
  return count;
}

size_t ScalarCountEqualF64(const double* a, const double* b, size_t n) {
  size_t count = 0;
  for (size_t r = 0; r < n; ++r) count += a[r] == b[r];
  return count;
}

void ScalarEpsilonBallMseInto(const double* real, const double* syn,
                              size_t n, double eps, EpsilonBallStats* out) {
  for (size_t r = 0; r < n; ++r) {
    const double rv = real[r];
    if (std::isnan(rv)) continue;
    const double d = rv - syn[r];
    if (std::abs(d) <= eps) ++out->matches;
    out->sum_squares += d * d;
    ++out->compared;
  }
}

template <typename Code>
void ScalarEpsilonBallMseCodedInto(const double* real,
                                   const Code* syn_codes,
                                   const double* code_numeric, size_t n,
                                   double eps, EpsilonBallStats* out) {
  for (size_t r = 0; r < n; ++r) {
    const double rv = real[r];
    const double sv = code_numeric[syn_codes[r]];
    if (std::isnan(rv) || std::isnan(sv)) continue;
    const double d = rv - sv;
    if (std::abs(d) <= eps) ++out->matches;
    out->sum_squares += d * d;
    ++out->compared;
  }
}

#if METALEAK_SIMD_X86

// Widened scalar code load for the width-generic AVX2 bodies below
// (tail rows and gather-index setup). `width` is the storage size in
// bytes: 1, 2 or 4.
inline uint32_t CodeAtWidth(const void* codes, int width, size_t r) {
  switch (width) {
    case 1:
      return static_cast<const uint8_t*>(codes)[r];
    case 2:
      return static_cast<const uint16_t*>(codes)[r];
    default:
      return static_cast<const uint32_t*>(codes)[r];
  }
}

// --- AVX2 kernels (256-bit lanes, hardware gathers) ---------------------

__attribute__((target("avx2"))) size_t Avx2CountEqualU32(const uint32_t* a,
                                                         const uint32_t* b,
                                                         size_t n) {
  size_t count = 0;
  size_t r = 0;
  for (; r + 8 <= n; r += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + r));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + r));
    const int mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(va, vb)));
    count += static_cast<size_t>(__builtin_popcount(mask));
  }
  for (; r < n; ++r) count += a[r] == b[r];
  return count;
}

__attribute__((target("avx2"))) size_t Avx2CountEqualU16(const uint16_t* a,
                                                         const uint16_t* b,
                                                         size_t n) {
  size_t count = 0;
  size_t r = 0;
  for (; r + 16 <= n; r += 16) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + r));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + r));
    // movemask_epi8 yields 2 identical bits per 16-bit lane.
    const int mask = _mm256_movemask_epi8(_mm256_cmpeq_epi16(va, vb));
    count += static_cast<size_t>(
                 __builtin_popcount(static_cast<unsigned>(mask))) /
             2;
  }
  for (; r < n; ++r) count += a[r] == b[r];
  return count;
}

__attribute__((target("avx2"))) size_t Avx2CountEqualU8(const uint8_t* a,
                                                        const uint8_t* b,
                                                        size_t n) {
  size_t count = 0;
  size_t r = 0;
  for (; r + 32 <= n; r += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + r));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + r));
    const int mask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb));
    count += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(mask)));
  }
  for (; r < n; ++r) count += a[r] == b[r];
  return count;
}

__attribute__((target("avx2"))) size_t Avx2CountEqualF64(const double* a,
                                                         const double* b,
                                                         size_t n) {
  size_t count = 0;
  size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const __m256d va = _mm256_loadu_pd(a + r);
    const __m256d vb = _mm256_loadu_pd(b + r);
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(va, vb, _CMP_EQ_OQ));
    count += static_cast<size_t>(__builtin_popcount(mask));
  }
  for (; r < n; ++r) count += a[r] == b[r];
  return count;
}

__attribute__((target("avx2"))) void Avx2EpsilonBallMseBody(
    const double* real, const double* syn, const void* syn_codes,
    int code_width, const double* code_numeric, size_t n, double eps,
    EpsilonBallStats* outp) {
  // Shared body for the plain and coded variants: `syn` supplies the
  // synthetic lane values directly, or (when null) they are gathered
  // through code_numeric[syn_codes[r]] with `code_width`-byte indices
  // widened in-register. Accumulates into *outp so cache-tiled callers
  // can carry the stats across tiles (bit-identical on multiple-of-4
  // tile boundaries: the 4-row lane grouping is preserved).
  EpsilonBallStats& out = *outp;
  const __m256d veps = _mm256_set1_pd(eps);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  size_t r = 0;
  alignas(32) double sq[4];
  for (; r + 4 <= n; r += 4) {
    const __m256d vr = _mm256_loadu_pd(real + r);
    __m256d vs;
    if (syn != nullptr) {
      vs = _mm256_loadu_pd(syn + r);
    } else {
      __m128i idx;
      if (code_width == 4) {
        idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
            static_cast<const uint32_t*>(syn_codes) + r));
      } else if (code_width == 2) {
        idx = _mm_cvtepu16_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(
                static_cast<const uint16_t*>(syn_codes) + r)));
      } else {
        int packed;
        std::memcpy(&packed, static_cast<const uint8_t*>(syn_codes) + r, 4);
        idx = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(packed));
      }
      // Masked gather with a zeroed source: identical to the plain
      // gather but avoids the _mm256_undefined_pd() the plain intrinsic
      // expands to (GCC flags it -Wmaybe-uninitialized).
      vs = _mm256_mask_i32gather_pd(
          _mm256_setzero_pd(), code_numeric, idx,
          _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
    }
    // Plain variant: skip on real-side NaN only. Coded variant: skip
    // when either side is NaN (see the header contract).
    const __m256d ord = syn != nullptr
                            ? _mm256_cmp_pd(vr, vr, _CMP_ORD_Q)
                            : _mm256_cmp_pd(vr, vs, _CMP_ORD_Q);
    const __m256d d = _mm256_sub_pd(vr, vs);
    const __m256d ad = _mm256_andnot_pd(sign_mask, d);
    const __m256d mle = _mm256_cmp_pd(ad, veps, _CMP_LE_OQ);
    out.matches +=
        static_cast<size_t>(__builtin_popcount(_mm256_movemask_pd(mle)));
    out.compared +=
        static_cast<size_t>(__builtin_popcount(_mm256_movemask_pd(ord)));
    // Masked squares: +0.0 in the skipped lanes. Adding +0.0 leaves the
    // accumulator bit-identical (it is never -0.0: it starts at +0.0 and
    // only non-negative squares are added — until a NaN arrives, after
    // which every add preserves the NaN exactly like the reference), so
    // the lane-order adds below round exactly like the sequential sum.
    _mm256_store_pd(sq, _mm256_and_pd(_mm256_mul_pd(d, d), ord));
    out.sum_squares += sq[0];
    out.sum_squares += sq[1];
    out.sum_squares += sq[2];
    out.sum_squares += sq[3];
  }
  for (; r < n; ++r) {
    const double rv = real[r];
    const double sv = syn != nullptr
                          ? syn[r]
                          : code_numeric[CodeAtWidth(syn_codes, code_width, r)];
    if (std::isnan(rv) || (syn == nullptr && std::isnan(sv))) continue;
    const double d = rv - sv;
    if (std::abs(d) <= eps) ++out.matches;
    out.sum_squares += d * d;
    ++out.compared;
  }
}

#endif  // METALEAK_SIMD_X86

// --- Dispatch state ------------------------------------------------------

SimdLevel DetectSupportedLevel() {
#if METALEAK_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

struct EnvResolution {
  SimdLevel level = SimdLevel::kScalar;
  std::string raw = "unset";
};

const EnvResolution& ResolveEnv() {
  static const EnvResolution resolved = [] {
    EnvResolution r;
    const SimdLevel supported = SupportedSimdLevel();
    r.level = supported;
    const char* env = std::getenv("METALEAK_SIMD");
    if (env != nullptr && env[0] != '\0') {
      r.raw = env;
      std::string v(env);
      for (char& ch : v) ch = static_cast<char>(std::tolower(ch));
      if (v == "off" || v == "scalar" || v == "0" || v == "none") {
        r.level = SimdLevel::kScalar;
      } else if (v == "avx2") {
        r.level = std::min(supported, SimdLevel::kAvx2);
      } else if (v != "auto") {
        METALEAK_LOG(kWarning)
            << "unrecognized METALEAK_SIMD value \"" << env
            << "\" (expected off|avx2|auto); using auto";
      }
    }
    METALEAK_LOG(kInfo) << "SIMD dispatch: " << SimdLevelName(r.level)
                        << " kernels (supported: "
                        << SimdLevelName(supported)
                        << ", METALEAK_SIMD=" << r.raw << ")";
    return r;
  }();
  return resolved;
}

// Test/bench override: -1 = none. Relaxed atomics are enough — overrides
// are installed between kernel phases, never mid-kernel.
std::atomic<int> g_level_override{-1};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel SupportedSimdLevel() {
  static const SimdLevel level = DetectSupportedLevel();
  return level;
}

SimdLevel ActiveSimdLevel() {
  const int override_level = g_level_override.load(std::memory_order_relaxed);
  if (override_level >= 0) return static_cast<SimdLevel>(override_level);
  return ResolveEnv().level;
}

const char* SimdEnvSetting() { return ResolveEnv().raw.c_str(); }

void SetSimdLevelOverride(SimdLevel level) {
  const SimdLevel clamped = std::min(level, SupportedSimdLevel());
  g_level_override.store(static_cast<int>(clamped),
                         std::memory_order_relaxed);
}

void ClearSimdLevelOverride() {
  g_level_override.store(-1, std::memory_order_relaxed);
}

HostInfo QueryHostInfo() {
  HostInfo info;
  info.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos) info.cpu_model = line.substr(start);
      }
      break;
    }
  }
  std::ostringstream features;
#if METALEAK_SIMD_X86
  const char* sep = "";
  if (__builtin_cpu_supports("sse4.2")) {
    features << sep << "sse4.2";
    sep = " ";
  }
  if (__builtin_cpu_supports("popcnt")) {
    features << sep << "popcnt";
    sep = " ";
  }
  if (__builtin_cpu_supports("avx2")) {
    features << sep << "avx2";
    sep = " ";
  }
  if (__builtin_cpu_supports("avx512f")) {
    features << sep << "avx512f";
    sep = " ";
  }
#else
  features << "non-x86";
#endif
  info.cpu_features = features.str();
  info.hardware_threads = std::thread::hardware_concurrency();
  return info;
}

size_t PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    // macOS reports ru_maxrss in bytes.
    return static_cast<size_t>(usage.ru_maxrss) / (1024 * 1024);
#else
    // Linux reports ru_maxrss in KiB.
    return static_cast<size_t>(usage.ru_maxrss) / 1024;
#endif
  }
#endif
  return 0;
}

std::string BenchMetadataJson() {
  const HostInfo host = QueryHostInfo();
  const char* threads_env = std::getenv("METALEAK_THREADS");
  std::ostringstream os;
  os << "\"meta\": {"
     << "\"cpu_model\": \"" << JsonEscape(host.cpu_model) << "\", "
     << "\"cpu_features\": \"" << JsonEscape(host.cpu_features) << "\", "
     << "\"hardware_threads\": " << host.hardware_threads << ", "
     << "\"simd_level\": \"" << SimdLevelName(ActiveSimdLevel()) << "\", "
     << "\"simd_supported\": \"" << SimdLevelName(SupportedSimdLevel())
     << "\", "
     << "\"simd_env\": \"" << JsonEscape(SimdEnvSetting()) << "\", "
     << "\"threads_env\": \""
     << JsonEscape(threads_env != nullptr ? threads_env : "unset")
     << "\", "
     << "\"max_rss_mb\": " << PeakRssMb() << "}";
  return os.str();
}

// --- Kernel dispatch -----------------------------------------------------

size_t CountEqualU32(SimdLevel level, const uint32_t* a, const uint32_t* b,
                     size_t n) {
#if METALEAK_SIMD_X86
  if (level == SimdLevel::kAvx2) {
    return Avx2CountEqualU32(a, b, n);
  }
#else
  (void)level;
#endif
  return ScalarCountEqualT(a, b, n);
}

size_t CountEqualU16(SimdLevel level, const uint16_t* a, const uint16_t* b,
                     size_t n) {
#if METALEAK_SIMD_X86
  if (level == SimdLevel::kAvx2) {
    return Avx2CountEqualU16(a, b, n);
  }
#else
  (void)level;
#endif
  return ScalarCountEqualT(a, b, n);
}

size_t CountEqualU8(SimdLevel level, const uint8_t* a, const uint8_t* b,
                    size_t n) {
#if METALEAK_SIMD_X86
  if (level == SimdLevel::kAvx2) {
    return Avx2CountEqualU8(a, b, n);
  }
#else
  (void)level;
#endif
  return ScalarCountEqualT(a, b, n);
}

size_t CountEqualF64(SimdLevel level, const double* a, const double* b,
                     size_t n) {
#if METALEAK_SIMD_X86
  if (level == SimdLevel::kAvx2) {
    return Avx2CountEqualF64(a, b, n);
  }
#else
  (void)level;
#endif
  return ScalarCountEqualF64(a, b, n);
}

void EpsilonBallMseInto(SimdLevel level, const double* real,
                        const double* syn, size_t n, double eps,
                        EpsilonBallStats* stats) {
#if METALEAK_SIMD_X86
  if (level == SimdLevel::kAvx2) {
    Avx2EpsilonBallMseBody(real, syn, nullptr, 4, nullptr, n, eps, stats);
    return;
  }
#else
  (void)level;
#endif
  ScalarEpsilonBallMseInto(real, syn, n, eps, stats);
}

namespace {

template <typename Code>
void EpsilonBallMseCodedIntoDispatch(SimdLevel level, const double* real,
                                     const Code* syn_codes,
                                     const double* code_numeric, size_t n,
                                     double eps, EpsilonBallStats* stats) {
#if METALEAK_SIMD_X86
  if (level == SimdLevel::kAvx2) {
    Avx2EpsilonBallMseBody(real, nullptr, syn_codes,
                           static_cast<int>(sizeof(Code)), code_numeric, n,
                           eps, stats);
    return;
  }
#else
  (void)level;
#endif
  ScalarEpsilonBallMseCodedInto(real, syn_codes, code_numeric, n, eps,
                                stats);
}

}  // namespace

void EpsilonBallMseCodedInto(SimdLevel level, const double* real,
                             const uint32_t* syn_codes,
                             const double* code_numeric, size_t n,
                             double eps, EpsilonBallStats* stats) {
  EpsilonBallMseCodedIntoDispatch(level, real, syn_codes, code_numeric, n,
                                  eps, stats);
}

void EpsilonBallMseCodedInto(SimdLevel level, const double* real,
                             const uint16_t* syn_codes,
                             const double* code_numeric, size_t n,
                             double eps, EpsilonBallStats* stats) {
  EpsilonBallMseCodedIntoDispatch(level, real, syn_codes, code_numeric, n,
                                  eps, stats);
}

void EpsilonBallMseCodedInto(SimdLevel level, const double* real,
                             const uint8_t* syn_codes,
                             const double* code_numeric, size_t n,
                             double eps, EpsilonBallStats* stats) {
  EpsilonBallMseCodedIntoDispatch(level, real, syn_codes, code_numeric, n,
                                  eps, stats);
}

// --- Bit-parallel row sets -----------------------------------------------

void BitsetOrInto(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

void BitsetOrNotInto(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t w = 0; w < words; ++w) dst[w] |= ~src[w];
}

}  // namespace metaleak
