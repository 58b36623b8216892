/**
 * @file
 * Internals shared by the two INT8 GEMM backends.
 *
 * The bitwise scalar == AVX2 contract of the quantized path (gemm.h,
 * "INT8 quantized path") rests on two facts: the int32 accumulation
 * of int8 products is exact, so any summation order yields the same
 * S; and the only floating-point program — the dequant + epilogue
 * write-back — is defined once here and executed element-wise
 * identically by both backends (the AVX2 TU's vectorized full-tile
 * store is the one intentional second copy, built from lane-wise
 * single-rounding operations that match these scalar ones exactly,
 * mirroring the epilogueStoreTile precedent in gemm_avx2.cpp).
 * geluScalar is an out-of-line baseline-ISA function and this header
 * contains only float add/mul/convert, so including it from the
 * -mavx2 TU cannot introduce rounding divergence (-ffp-contract=off
 * build-wide).
 *
 * Internal to the tensor layer; not part of the public Gemm surface.
 */

#ifndef VITALITY_TENSOR_GEMM_INT8_H
#define VITALITY_TENSOR_GEMM_INT8_H

#include <cstddef>
#include <cstdint>

#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace vitality {

class QuantizedMatrix;

namespace detail {

/**
 * Write n finished integer accumulators acc[0..n) through the dequant
 * epilogue into dst[0..n):
 *
 *   t = float(acc[j] - za * wsum[j]) * cs;   // exact int sub, one cvt
 *   t += bias[j] if bias; t = act(t); dst[j] = accumulate ? dst[j]+t : t
 *
 * cs is the combined scale sa_row * sw, za the activation row's zero
 * point, wsum the per-column weight sums (both computed by the
 * dispatcher). wsum and bias are pre-offset by the caller. The int32
 * subtraction cannot overflow (|acc| <= k * 127 * 127 and
 * |za * wsum| <= k * 127 * 127, with k bounded far below 2^31 / 2 /
 * 16129 ~ 66k — deeper K throws in the dispatcher) and the
 * int32 -> float conversion is correctly rounded, so this program is
 * deterministic and backend-independent.
 */
inline void
dequantEpilogueRow(float *dst, const int32_t *acc, const int32_t *wsum,
                   int32_t za, float cs, const float *bias, size_t n,
                   bool accumulate, Gemm::Epilogue::Act act)
{
    for (size_t j = 0; j < n; ++j) {
        float t = static_cast<float>(acc[j] - za * wsum[j]) * cs;
        if (bias)
            t += bias[j];
        if (act == Gemm::Epilogue::Act::Gelu)
            t = geluScalar(t);
        dst[j] = accumulate ? dst[j] + t : t;
    }
}

/**
 * One row band [rowBegin, rowEnd) of the INT8 product, scalar
 * reference backend: exact int32 accumulation then dequantEpilogueRow
 * per row. Operands are pre-validated by the dispatcher (kinds,
 * shapes, epilogue); wsum holds the n per-column sums of op(B).
 */
void gemmInt8Scalar(Matrix &dst, const QuantizedMatrix &a,
                    const QuantizedMatrix &b, Gemm::Trans trans,
                    size_t rowBegin, size_t rowEnd, const int32_t *wsum,
                    const Gemm::Epilogue &ep);

#if VITALITY_HAVE_AVX2
/**
 * Same contract on the AVX2 backend: 4x16 microkernel over packed
 * k-quad panels (maddubs/madd into int32 accumulators), vectorized
 * dequant write-back on full tiles, dequantEpilogueRow on ragged
 * edges. Bitwise-identical to gemmInt8Scalar by construction. A
 * non-null packedB supplies prepacked full-k op(B) panels (jp stride
 * quads * 64, the PackedMatrix layout) and skips the per-call B pack;
 * the panels are byte-identical to packBPanelInt8 output, so the
 * result is unchanged.
 */
void gemmInt8Avx2(Matrix &dst, const QuantizedMatrix &a,
                  const QuantizedMatrix &b, Gemm::Trans trans,
                  size_t rowBegin, size_t rowEnd, const int32_t *wsum,
                  const Gemm::Epilogue &ep,
                  const int8_t *packedB = nullptr);

/**
 * 8-lane twin of the scalar activation-quantization group loop in
 * QuantizedMatrix::assignActivations: the min/max range scan (exactly
 * associative, zero-seeded like the scalar fold), the scalar
 * zero-point derivation, and the per-element
 * (x * inv + zpf + magic) - magic round/clamp/cast program, run with
 * lane-wise single-rounding operations. Bitwise-identical codes,
 * scale, and zero point to the scalar loop, so quantized operands do
 * not depend on the backend. Only called when the AVX2 backend is
 * active.
 */
void quantizeActivationSpanAvx2(int8_t *dst, const float *src, size_t n,
                                float &scaleOut, int32_t &zeroOut);
#endif

} // namespace detail
} // namespace vitality

#endif // VITALITY_TENSOR_GEMM_INT8_H
