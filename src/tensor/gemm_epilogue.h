/**
 * @file
 * The canonical GEMM epilogue write-back, shared by every scalar path.
 *
 * The fused == unfused bitwise contract in gemm.h rests on one
 * element-wise order — raw product, + bias, GELU, accumulate-into-C —
 * so that order lives in exactly one place and both backend TUs
 * include it. The AVX2 backend's vectorized full-tile store is the one
 * intentional second copy (lane-wise float adds round identically to
 * these scalar adds, which is what keeps it bitwise-equal; see
 * epilogueStoreTile in gemm_avx2.cpp, whose GELU lanes run
 * geluScalar's 8-lane twin). geluScalar is an out-of-line baseline-ISA
 * function and this header contains only float adds, so including it
 * from the -mfma TU cannot introduce rounding divergence (the build
 * additionally pins -ffp-contract=off).
 *
 * Internal to the tensor layer; not part of the public Gemm surface.
 */

#ifndef VITALITY_TENSOR_GEMM_EPILOGUE_H
#define VITALITY_TENSOR_GEMM_EPILOGUE_H

#include <cstddef>

#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace vitality {
namespace detail {

/**
 * Write n finished raw products src[0..n) through the epilogue into
 * dst[0..n): t = src[j]; t += bias[j] if bias; t = geluScalar(t) if
 * act is Gelu; dst[j] = accumulate ? dst[j] + t : t. bias is
 * pre-offset by the caller (nullptr when the epilogue has none).
 */
inline void
epilogueApplyRow(float *dst, const float *src, const float *bias,
                 size_t n, bool accumulate, Gemm::Epilogue::Act act)
{
    for (size_t j = 0; j < n; ++j) {
        float t = src[j];
        if (bias)
            t += bias[j];
        if (act == Gemm::Epilogue::Act::Gelu)
            t = geluScalar(t);
        dst[j] = accumulate ? dst[j] + t : t;
    }
}

/** Same, taking the descriptor (bias offset at column 0). */
inline void
epilogueApplyRow(float *dst, const float *src, size_t n,
                 const Gemm::Epilogue &ep)
{
    epilogueApplyRow(dst, src, ep.bias ? ep.bias->rowPtr(0) : nullptr, n,
                     ep.accumulate, ep.act);
}

} // namespace detail
} // namespace vitality

#endif // VITALITY_TENSOR_GEMM_EPILOGUE_H
