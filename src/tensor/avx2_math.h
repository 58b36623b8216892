/**
 * @file
 * Shared 8-lane AVX2 transcendental helpers for the GEMM backends.
 *
 * Only include from translation units compiled with -mavx2 (the fp32
 * and int8 AVX2 backends); the functions use the AVX2 ISA
 * unconditionally and rely on the caller's runtime CPUID dispatch.
 *
 * Lane-for-lane the same program as the scalar exp2Core /
 * tanhApproxCore / geluScalar in tensor/ops.cpp: identical constants
 * (tensor/transcendental.h), identical operation order, and
 * deliberately plain mul/add — no _mm256_fmadd_ps — because the scalar
 * fallback (baseline ISA, -ffp-contract=off) rounds every product and
 * sum separately, and the GELU's bitwise contract is that full tiles
 * (these vectors) and everything else — ragged edges, the scalar
 * backends, geluInto, all through geluScalar — produce identical
 * bits. The max/min clamps rely on the documented vmaxps/vminps
 * NaN-takes-the-second-operand semantics, which the scalar selects
 * mirror.
 */

#ifndef VITALITY_TENSOR_AVX2_MATH_H
#define VITALITY_TENSOR_AVX2_MATH_H

#include <immintrin.h>

#include "tensor/transcendental.h"

namespace vitality {
namespace detail {

inline __m256
exp2Core8(__m256 z)
{
    __m256 zc = _mm256_max_ps(z, _mm256_set1_ps(-kExp2Clamp));
    zc = _mm256_min_ps(zc, _mm256_set1_ps(kExp2Clamp));
    const __m256 magic = _mm256_set1_ps(kRoundMagic);
    const __m256 nf = _mm256_sub_ps(_mm256_add_ps(zc, magic), magic);
    const __m256 f = _mm256_sub_ps(zc, nf);
    __m256 p = _mm256_set1_ps(kExp2C7);
    p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(kExp2C6));
    p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(kExp2C5));
    p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(kExp2C4));
    p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(kExp2C3));
    p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(kExp2C2));
    p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(kExp2C1));
    p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(1.0f));
    // 2^n by exponent bits; nf is integral, so the rounding cvt is
    // exact, matching the scalar truncating cast.
    const __m256i n = _mm256_cvtps_epi32(nf);
    const __m256i bits =
        _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
    return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

inline __m256
tanhApprox8(__m256 x)
{
    __m256 t = _mm256_max_ps(x, _mm256_set1_ps(-kTanhClamp));
    t = _mm256_min_ps(t, _mm256_set1_ps(kTanhClamp));
    const __m256 e2x =
        exp2Core8(_mm256_mul_ps(t, _mm256_set1_ps(kTwoLog2e)));
    const __m256 one = _mm256_set1_ps(1.0f);
    return _mm256_div_ps(_mm256_sub_ps(e2x, one),
                         _mm256_add_ps(e2x, one));
}

inline __m256
geluApprox8(__m256 x)
{
    const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
    const __m256 inner = _mm256_mul_ps(
        _mm256_set1_ps(kGeluSqrt2OverPi),
        _mm256_add_ps(x, _mm256_mul_ps(_mm256_set1_ps(kGeluCubic), x3)));
    const __m256 one = _mm256_set1_ps(1.0f);
    return _mm256_mul_ps(
        _mm256_mul_ps(_mm256_set1_ps(0.5f), x),
        _mm256_add_ps(one, tanhApprox8(inner)));
}

} // namespace detail
} // namespace vitality

#endif // VITALITY_TENSOR_AVX2_MATH_H
