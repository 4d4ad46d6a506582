// SIMD + bit-parallel inner kernels for the dense-code hot loops.
//
// Every hot path in MetaLeak is a flat scan over dense int32 codes or
// doubles (CSR probe tables, the fused Def 2.2/2.3 match+MSE scan,
// identifiability bitmaps). This layer provides the handful of
// primitives those scans actually need, each in two codegen variants:
//
//   * an always-available scalar reference (the semantics oracle), and
//   * an AVX2 path (256-bit lanes, hardware gathers),
//
// selected at runtime by CPU feature detection. The AVX2 paths are
// compiled with per-function target attributes, so the library binary
// stays generic-arch: an AVX2 kernel is *present* in every build but only
// *dispatched* on hardware that supports it. A host without AVX2 runs
// the scalar kernels.
//
// Parity contract: every kernel returns byte-identical results to its
// scalar reference on every input — including NaN handling and the order
// of floating-point accumulation (the epsilon-ball kernel adds masked
// squares in row order precisely so the MSE sum rounds exactly like the
// sequential reference; see Avx2EpsilonBallMseBody in simd.cc).
// Consumers therefore keep the library-wide bit-identical guarantees
// (fused scan == decoded scoring, threads-1 == threads-8) at any dispatch
// level, and the golden-parity suites double as the gate for these
// kernels.
//
// Dispatch control: `METALEAK_SIMD` caps the level ("off"/"scalar" or
// "avx2"; unset/"auto" picks the best supported). The resolved level is
// logged once (INFO) on first use and surfaced in the audit markdown and
// the bench JSON metadata. Tests and benches can force a level
// in-process with SetSimdLevelOverride.
//
// Bit-parallel row sets: identifiability bitmaps are packed 64 rows to a
// word, so OR/AND-NOT merges touch one word per 64 rows. The word
// helpers have no dispatch level — word-parallelism is available
// everywhere.
#ifndef METALEAK_COMMON_SIMD_H_
#define METALEAK_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace metaleak {

/// Kernel codegen levels, ordered: a CPU that supports level L supports
/// every level below it.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable level name: "scalar", "avx2".
const char* SimdLevelName(SimdLevel level);

/// Best level this CPU can execute (cached after the first query).
SimdLevel SupportedSimdLevel();

/// The level kernels dispatch to: min(SupportedSimdLevel, METALEAK_SIMD
/// cap), unless a test override is installed. Resolving the environment
/// happens once per process and logs the outcome at INFO.
SimdLevel ActiveSimdLevel();

/// Raw METALEAK_SIMD setting as seen at first resolution ("unset" when
/// absent). Surfaced by the audit markdown and bench metadata.
const char* SimdEnvSetting();

/// Forces ActiveSimdLevel() to `level` (tests and the scalar-vs-SIMD
/// bench axes). Levels above SupportedSimdLevel() are clamped. Must not
/// be called while kernels are running on other threads.
void SetSimdLevelOverride(SimdLevel level);

/// Removes the override installed by SetSimdLevelOverride.
void ClearSimdLevelOverride();

// --- Host observability --------------------------------------------------

/// Host CPU description for bench metadata: model string from
/// /proc/cpuinfo (or "unknown"), the SIMD-relevant feature flags this
/// process detected, and the hardware thread count.
struct HostInfo {
  std::string cpu_model;
  std::string cpu_features;  // e.g. "sse4.2 avx2 avx512f"
  unsigned hardware_threads = 0;
};

HostInfo QueryHostInfo();

/// JSON fragment `"meta": {...}` describing the host and the SIMD
/// dispatch state — including the peak resident set (`max_rss_mb`) so
/// the narrow-width memory savings are visible — embedded at the top of
/// every BENCH_*.json so results are comparable across machines.
std::string BenchMetadataJson();

/// Peak resident-set size of this process in MiB (getrusage; 0 when the
/// platform does not report it).
size_t PeakRssMb();

// --- Counting kernels ----------------------------------------------------
//
// The code-equality and coded epsilon-ball kernels come in one variant
// per storage width (u8 / u16 / u32): narrow columns stream 2-4x fewer
// bytes and pack 32/16/8 lanes per AVX2 vector. Every width variant
// matches the u32 semantics exactly (codes are compared as widened
// values), so parity is checked per width against the scalar reference.

/// Number of positions r in [0, n) with a[r] == b[r] (dense code
/// equality; the Def 2.2 categorical match count).
size_t CountEqualU32(SimdLevel level, const uint32_t* a, const uint32_t* b,
                     size_t n);

/// Narrow-width variants: 32 (u8) / 16 (u16) lanes per AVX2 vector.
size_t CountEqualU8(SimdLevel level, const uint8_t* a, const uint8_t* b,
                    size_t n);
size_t CountEqualU16(SimdLevel level, const uint16_t* a, const uint16_t* b,
                     size_t n);

/// Number of positions r with a[r] == b[r] under IEEE semantics: NaN
/// entries (the NULL / non-numeric markers) never compare equal.
size_t CountEqualF64(SimdLevel level, const double* a, const double* b,
                     size_t n);

/// Fused Def 2.2/2.3 continuous scan: positions where real[r] is NaN
/// (NULL / non-numeric) are skipped entirely; everywhere else the row is
/// compared, |real-syn| <= eps matches are counted (a NaN difference
/// never matches), and (real-syn)^2 is accumulated in ascending row
/// order — bit-identical to the sequential reference sum, including NaN
/// propagation from a NaN synthetic value.
struct EpsilonBallStats {
  size_t matches = 0;
  size_t compared = 0;
  double sum_squares = 0.0;
};

/// Carried-accumulator form for cache-tiled scans: continues counting and
/// summing into *stats. Splitting a scan into tiles whose lengths are
/// multiples of 4 and chaining the calls is bit-identical to one full
/// scan (the vector body processes rows in groups of 4 with lane-order
/// adds, so tile boundaries on multiples of 4 preserve the grouping; only
/// the final tile may have a scalar tail).
void EpsilonBallMseInto(SimdLevel level, const double* real,
                        const double* syn, size_t n, double eps,
                        EpsilonBallStats* stats);

/// Same scan with the synthetic side given as generation-domain codes:
/// syn value of row r is code_numeric[syn_codes[r]] (NaN = NULL or
/// non-numeric). Here a NaN on *either* side skips the row (the coded
/// reference loop's predicate). code_numeric must have an entry for
/// every code. One overload per code width (the narrow variants widen 4
/// indices per vector in-register before the gather); same tiling
/// contract as EpsilonBallMseInto.
void EpsilonBallMseCodedInto(SimdLevel level, const double* real,
                             const uint32_t* syn_codes,
                             const double* code_numeric, size_t n,
                             double eps, EpsilonBallStats* stats);
void EpsilonBallMseCodedInto(SimdLevel level, const double* real,
                             const uint16_t* syn_codes,
                             const double* code_numeric, size_t n,
                             double eps, EpsilonBallStats* stats);
void EpsilonBallMseCodedInto(SimdLevel level, const double* real,
                             const uint8_t* syn_codes,
                             const double* code_numeric, size_t n,
                             double eps, EpsilonBallStats* stats);

// --- Gather kernels ------------------------------------------------------

/// out[k] = table[idx[k]] for k in [0, n): the probe-table gather of the
/// partition engine. Indices must be < 2^31 (AVX2 gathers use signed
/// 32-bit indices; every PLI row count is DCHECK-bounded far below).
void GatherI32(SimdLevel level, const int32_t* table, const uint32_t* idx,
               size_t n, int32_t* out);

/// True iff table[idx[k]] == expect for all k in [0, n): the inner loop
/// of PositionListIndex::Refines. Index bound as in GatherI32.
bool AllGatherEqualI32(SimdLevel level, const int32_t* table,
                       const uint32_t* idx, size_t n, int32_t expect);

// --- Bit-parallel row sets -----------------------------------------------
//
// A row set over n rows is an array of (n + 63) / 64 words; bit r of
// word r / 64 marks row r. Bits at positions >= n ("tail bits") must be
// kept zero by callers; BitsetTailMask gives the mask for the last word.

/// Words needed for n bits.
inline size_t BitsetWords(size_t n) { return (n + 63) / 64; }

/// Mask of the valid bits in the last word of an n-bit set (all-ones
/// when n is a multiple of 64 — also for n == 0, where there is no last
/// word to mask).
inline uint64_t BitsetTailMask(size_t n) {
  const size_t rem = n % 64;
  return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
}

/// dst |= src, word-wise.
void BitsetOrInto(uint64_t* dst, const uint64_t* src, size_t words);

/// dst |= ~src, word-wise. Sets tail bits; callers re-mask the last word
/// with BitsetTailMask afterwards.
void BitsetOrNotInto(uint64_t* dst, const uint64_t* src, size_t words);

/// Invokes fn(row) for every set bit, in ascending row order.
template <typename Fn>
void BitsetForEach(const uint64_t* words_ptr, size_t words, Fn&& fn) {
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = words_ptr[w];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
      fn(w * 64 + bit);
      word &= word - 1;
    }
  }
}

}  // namespace metaleak

#endif  // METALEAK_COMMON_SIMD_H_
