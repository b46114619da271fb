#ifndef TLP_COMMON_SIMD_H_
#define TLP_COMMON_SIMD_H_

#include <cstddef>
#include <limits>

#include "common/types.h"

// Compile-time SIMD backend selection for the query hot path. The
// instruction set the translation unit is compiled for picks the backend:
//
//   TLP_SIMD_BACKEND_AVX2   x86-64 with AVX2 (-march=native Release builds)
//   TLP_SIMD_BACKEND_NEON   AArch64 with Advanced SIMD
//   (neither)               scalar fallback, always built and always correct
//
// On a target without either instruction set the scalar fallback is the
// only path. Every backend computes the same results
// (tests/simd_test.cc proves it differentially against the scalar kernel),
// and the query paths that use these kernels (grid/scan.h, the 2-layer+
// residual check) account their query-statistics counters per call, so the
// counters read the same on every backend.
#if defined(__AVX2__)
#define TLP_SIMD_BACKEND_AVX2 1
#elif defined(__ARM_NEON) && defined(__aarch64__)
#define TLP_SIMD_BACKEND_NEON 1
#endif

#if defined(TLP_SIMD_BACKEND_AVX2)
#include <immintrin.h>
#elif defined(TLP_SIMD_BACKEND_NEON)
#include <arm_neon.h>
#endif

// Read-prefetch hint for gather-style loops on the query hot path (e.g. the
// 2-layer+ residual verification fetching MBRs by id); no-op where the
// builtin is unavailable.
#if defined(__GNUC__) || defined(__clang__)
#define TLP_PREFETCH_RO(addr) __builtin_prefetch((addr), 0)
#else
#define TLP_PREFETCH_RO(addr) ((void)0)
#endif

namespace tlp {
namespace simd {

inline constexpr const char* kBackendName =
#if defined(TLP_SIMD_BACKEND_AVX2)
    "avx2";
#elif defined(TLP_SIMD_BACKEND_NEON)
    "neon";
#else
    "scalar";
#endif

/// Per-lane interval bounds for a 4-coordinate comparison kernel. A value
/// vector v passes iff no lane violates v[i] <= le[i] && v[i] >= ge[i];
/// disabled lanes use +-infinity (v[i] > +inf and v[i] < -inf are both
/// always false, including for infinite v[i]).
///
/// The kernel tests the DROP condition (v[i] > le[i] || v[i] < ge[i]) with
/// ordered, non-signaling comparisons, so a NaN lane — in the values or in
/// the bounds — never drops. This reproduces the scalar §IV-B loops exactly:
/// they skip an entry when `coordinate < bound` is true, which is false for
/// NaN operands.
struct alignas(32) LaneBounds {
  Coord le[4];
  Coord ge[4];
};

/// Scalar reference kernel; the semantics every backend must match
/// bit-for-bit (tests/simd_test.cc proves it differentially).
inline bool MatchesScalar(const Coord* v, const LaneBounds& b) {
  bool drop = false;
  for (int i = 0; i < 4; ++i) {
    drop = drop || v[i] > b.le[i] || v[i] < b.ge[i];
  }
  return !drop;
}

/// True iff all four lanes of `v` lie inside their [ge, le] interval.
/// `v` needs no particular alignment (unaligned load on vector backends).
inline bool Matches(const Coord* v, const LaneBounds& b) {
#if defined(TLP_SIMD_BACKEND_AVX2)
  const __m256d values = _mm256_loadu_pd(v);
  // _CMP_*_OQ: ordered, quiet — false on NaN, matching the scalar kernel.
  const __m256d drop =
      _mm256_or_pd(_mm256_cmp_pd(values, _mm256_load_pd(b.le), _CMP_GT_OQ),
                   _mm256_cmp_pd(values, _mm256_load_pd(b.ge), _CMP_LT_OQ));
  return _mm256_movemask_pd(drop) == 0;
#elif defined(TLP_SIMD_BACKEND_NEON)
  const float64x2_t lo = vld1q_f64(v);
  const float64x2_t hi = vld1q_f64(v + 2);
  const uint64x2_t drop_lo =
      vorrq_u64(vcgtq_f64(lo, vld1q_f64(b.le)), vcltq_f64(lo, vld1q_f64(b.ge)));
  const uint64x2_t drop_hi = vorrq_u64(vcgtq_f64(hi, vld1q_f64(b.le + 2)),
                                       vcltq_f64(hi, vld1q_f64(b.ge + 2)));
  const uint64x2_t drop = vorrq_u64(drop_lo, drop_hi);
  return (vgetq_lane_u64(drop, 0) | vgetq_lane_u64(drop, 1)) == 0;
#else
  return MatchesScalar(v, b);
#endif
}

/// Hit mask for four value vectors at once: bit s is set iff the vector at
/// `v[s]` matches `b` exactly as `Matches` would decide it.
///
/// Requires bounds produced for box-comparison masks — lanes 0 and 1 only
/// upper-bounded (ge[0] == ge[1] == -inf) and lanes 2 and 3 only
/// lower-bounded (le[2] == le[3] == +inf) — which is what grid/scan.h's
/// LaneBoundsForMask emits: the §IV-B comparisons only ever lower-bound the
/// upper endpoints and upper-bound the lower endpoints. The AVX2 backend
/// exploits this to evaluate the four boxes transposed (coordinate-major)
/// with one compare per active-bound lane and a single movemask, instead of
/// four serialized per-box mask extractions.
inline unsigned MatchesMask4(const Coord* const v[4], const LaneBounds& b) {
#if defined(TLP_SIMD_BACKEND_AVX2)
  const __m256d r0 = _mm256_loadu_pd(v[0]);
  const __m256d r1 = _mm256_loadu_pd(v[1]);
  const __m256d r2 = _mm256_loadu_pd(v[2]);
  const __m256d r3 = _mm256_loadu_pd(v[3]);
  // 4x4 transpose: lane-major [xl yl xu yu] x 4 -> box-major xl[4] yl[4]...
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // xl0 xl1 xu0 xu1
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // yl0 yl1 yu0 yu1
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  const __m256d xl = _mm256_permute2f128_pd(t0, t2, 0x20);
  const __m256d yl = _mm256_permute2f128_pd(t1, t3, 0x20);
  const __m256d xu = _mm256_permute2f128_pd(t0, t2, 0x31);
  const __m256d yu = _mm256_permute2f128_pd(t1, t3, 0x31);
  const __m256d drop = _mm256_or_pd(
      _mm256_or_pd(
          _mm256_cmp_pd(xl, _mm256_broadcast_sd(&b.le[0]), _CMP_GT_OQ),
          _mm256_cmp_pd(yl, _mm256_broadcast_sd(&b.le[1]), _CMP_GT_OQ)),
      _mm256_or_pd(
          _mm256_cmp_pd(xu, _mm256_broadcast_sd(&b.ge[2]), _CMP_LT_OQ),
          _mm256_cmp_pd(yu, _mm256_broadcast_sd(&b.ge[3]), _CMP_LT_OQ)));
  return ~static_cast<unsigned>(_mm256_movemask_pd(drop)) & 0xFu;
#else
  unsigned hits = 0;
  for (unsigned s = 0; s < 4; ++s) {
    hits |= static_cast<unsigned>(Matches(v[s], b)) << s;
  }
  return hits;
#endif
}

}  // namespace simd
}  // namespace tlp

#endif  // TLP_COMMON_SIMD_H_
