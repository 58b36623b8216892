/**
 * @file
 * AVX2 INT8 GEMM backend: a 4x16 register-blocked microkernel over
 * packed k-quad panels, with the dequant epilogue fused into the
 * write-back.
 *
 * Compiled with -mavx2 (like gemm_avx2.cpp) and only entered after
 * the runtime CPUID check. The integer core:
 *
 *   - op(A) (the [0, 127] activation) is packed into 4-row panels of
 *     k-quads — layout pa[quad][row][4 bytes] — and op(B) (the
 *     [-127, 127] weight) into 16-column panels — pb[quad][col][4
 *     bytes] — both zero-padded, so a quad of four consecutive k
 *     steps is one 32-bit broadcast from A and two ymm loads from B.
 *   - _mm256_maddubs_epi16(a, b) multiplies unsigned A bytes by
 *     signed B bytes and sums adjacent pairs into int16; with
 *     operands bounded by 127 the pair sum is at most 2 * 127 * 127
 *     = 32258 < 32767, so the saturating add can never saturate.
 *     _mm256_madd_epi16 against ones then folds the two pairs into
 *     one int32 per column, added into 8 ymm accumulators (4 rows x
 *     16 columns).
 *   - Integer accumulation is exact, so no kc cache-blocking is
 *     needed for correctness and lane order is irrelevant: the
 *     result S equals the scalar backend's bit for bit. The packed
 *     band is one byte per MAC operand — a quarter of the fp32
 *     footprint — so even the DeiT-Base K=3072 projections keep
 *     their working set L2-resident without chunking.
 *   - The write-back runs the shared dequant + epilogue program
 *     (gemm_int8.h): full 16-column tiles vectorize the exact-int32
 *     zero-point correction, the correctly-rounded int -> float
 *     conversion, and the scale/bias/accumulate float chain —
 *     lane-for-lane the same single-rounding operations as
 *     dequantEpilogueRow. The GELU runs the shared geluApprox8
 *     vectors (tensor/avx2_math.h), whose bitwise contract with
 *     geluScalar the fp32 backend already depends on. Ragged edges
 *     call dequantEpilogueRow itself. Scalar == AVX2 bitwise
 *     parity is therefore by construction (asserted across the whole
 *     shape grid by test_quant).
 *
 * Only rows [rowBegin, rowEnd) of C are computed; the dispatcher
 * fans 4-row-aligned bands across the thread pool exactly as it does
 * for the fp32 backend, and banding cannot change any bit of the
 * result.
 */

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/avx2_math.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/gemm_pack.h"
#include "tensor/quantized_matrix.h"

namespace vitality {
namespace detail {

// Panel geometry (kMr8, kNr8) and the packAPanelInt8/packBPanelInt8
// k-quad packers live in tensor/gemm_pack.h, shared with the
// weight-prepack path so both produce byte-identical panels.

namespace {

/**
 * tile[0:4, 0:16] = A-panel * B-panel over all k-quads, exact int32.
 * Eight ymm accumulators; each quad is one 32-bit broadcast per row
 * and a saturation-free maddubs/madd pair per row half.
 */
void
microKernelInt8_4x16(size_t quads, const int8_t *pa, const int8_t *pb,
                     int32_t *tile)
{
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i acc00 = _mm256_setzero_si256(), acc01 = acc00;
    __m256i acc10 = acc00, acc11 = acc00;
    __m256i acc20 = acc00, acc21 = acc00;
    __m256i acc30 = acc00, acc31 = acc00;
    for (size_t q = 0; q < quads; ++q) {
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(pb + q * kNr8 * 4));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(pb + q * kNr8 * 4 + 32));
        const int8_t *aq = pa + q * kMr8 * 4;
        int32_t aw;
        __m256i av, p0, p1;

        std::memcpy(&aw, aq + 0, 4);
        av = _mm256_set1_epi32(aw);
        p0 = _mm256_maddubs_epi16(av, b0);
        p1 = _mm256_maddubs_epi16(av, b1);
        acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(p0, ones));
        acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(p1, ones));

        std::memcpy(&aw, aq + 4, 4);
        av = _mm256_set1_epi32(aw);
        p0 = _mm256_maddubs_epi16(av, b0);
        p1 = _mm256_maddubs_epi16(av, b1);
        acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(p0, ones));
        acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(p1, ones));

        std::memcpy(&aw, aq + 8, 4);
        av = _mm256_set1_epi32(aw);
        p0 = _mm256_maddubs_epi16(av, b0);
        p1 = _mm256_maddubs_epi16(av, b1);
        acc20 = _mm256_add_epi32(acc20, _mm256_madd_epi16(p0, ones));
        acc21 = _mm256_add_epi32(acc21, _mm256_madd_epi16(p1, ones));

        std::memcpy(&aw, aq + 12, 4);
        av = _mm256_set1_epi32(aw);
        p0 = _mm256_maddubs_epi16(av, b0);
        p1 = _mm256_maddubs_epi16(av, b1);
        acc30 = _mm256_add_epi32(acc30, _mm256_madd_epi16(p0, ones));
        acc31 = _mm256_add_epi32(acc31, _mm256_madd_epi16(p1, ones));
    }
    __m256i *out = reinterpret_cast<__m256i *>(tile);
    _mm256_storeu_si256(out + 0, acc00);
    _mm256_storeu_si256(out + 1, acc01);
    _mm256_storeu_si256(out + 2, acc10);
    _mm256_storeu_si256(out + 3, acc11);
    _mm256_storeu_si256(out + 4, acc20);
    _mm256_storeu_si256(out + 5, acc21);
    _mm256_storeu_si256(out + 6, acc30);
    _mm256_storeu_si256(out + 7, acc31);
}

/**
 * Push a finished int32 tile through the dequant epilogue into dst.
 * Full-width tiles vectorize the program of dequantEpilogueRow with
 * lane-wise single-rounding operations (exact epi32 zero-point
 * correction, correctly-rounded cvtepi32_ps, one mul for the scale,
 * one add for the bias / accumulate, and the shared geluApprox8
 * vectors, bitwise-identical to geluScalar). Ragged edges call the
 * shared scalar helper directly, so every element of every shape runs
 * the identical float program.
 */
void
dequantStoreTile(int32_t *tile, Matrix &dst, size_t i0, size_t j0,
                 size_t mEff, size_t nEff, const QuantizedMatrix &a,
                 float bscale, const int32_t *wsum,
                 const Gemm::Epilogue &ep)
{
    const float *bias = ep.bias ? ep.bias->rowPtr(0) + j0 : nullptr;
    const int32_t *ws = wsum + j0;
    if (nEff == kNr8) {
        const __m256i w0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ws));
        const __m256i w1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ws + 8));
        __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
        if (bias) {
            b0 = _mm256_loadu_ps(bias);
            b1 = _mm256_loadu_ps(bias + 8);
        }
        for (size_t r = 0; r < mEff; ++r) {
            const __m256i zav =
                _mm256_set1_epi32(a.zeroPoint(i0 + r));
            const __m256 csv =
                _mm256_set1_ps(a.scale(i0 + r) * bscale);
            const __m256i *src =
                reinterpret_cast<const __m256i *>(tile + r * kNr8);
            const __m256i s0 = _mm256_sub_epi32(
                _mm256_loadu_si256(src), _mm256_mullo_epi32(zav, w0));
            const __m256i s1 = _mm256_sub_epi32(
                _mm256_loadu_si256(src + 1),
                _mm256_mullo_epi32(zav, w1));
            __m256 v0 = _mm256_mul_ps(_mm256_cvtepi32_ps(s0), csv);
            __m256 v1 = _mm256_mul_ps(_mm256_cvtepi32_ps(s1), csv);
            if (bias) {
                v0 = _mm256_add_ps(v0, b0);
                v1 = _mm256_add_ps(v1, b1);
            }
            if (ep.act == Gemm::Epilogue::Act::Gelu) {
                v0 = geluApprox8(v0);
                v1 = geluApprox8(v1);
            }
            float *out = dst.rowPtr(i0 + r) + j0;
            if (ep.accumulate) {
                v0 = _mm256_add_ps(_mm256_loadu_ps(out), v0);
                v1 = _mm256_add_ps(_mm256_loadu_ps(out + 8), v1);
            }
            _mm256_storeu_ps(out, v0);
            _mm256_storeu_ps(out + 8, v1);
        }
        return;
    }
    for (size_t r = 0; r < mEff; ++r)
        dequantEpilogueRow(dst.rowPtr(i0 + r) + j0, tile + r * kNr8, ws,
                           a.zeroPoint(i0 + r), a.scale(i0 + r) * bscale,
                           bias, nEff, ep.accumulate, ep.act);
}

} // namespace

void
quantizeActivationSpanAvx2(int8_t *dst, const float *src, size_t n,
                           float &scaleOut, int32_t &zeroOut)
{
    // Range scan: lane-wise min/max folds seeded with zero, exactly
    // the scalar loop's lo = hi = 0 nudge (min/max are exactly
    // associative and commutative, so lane order cannot change the
    // result; a -0.0f/+0.0f pick difference is value-identical
    // through every downstream use).
    float lo = 0.0f, hi = 0.0f;
    size_t i = 0;
    if (n >= 8) {
        __m256 vlo = _mm256_setzero_ps(), vhi = vlo;
        for (; i + 8 <= n; i += 8) {
            const __m256 v = _mm256_loadu_ps(src + i);
            vlo = _mm256_min_ps(vlo, v);
            vhi = _mm256_max_ps(vhi, v);
        }
        __m128 l = _mm_min_ps(_mm256_castps256_ps128(vlo),
                              _mm256_extractf128_ps(vlo, 1));
        l = _mm_min_ps(l, _mm_movehl_ps(l, l));
        l = _mm_min_ss(l, _mm_shuffle_ps(l, l, 1));
        lo = _mm_cvtss_f32(l);
        __m128 h = _mm_max_ps(_mm256_castps256_ps128(vhi),
                              _mm256_extractf128_ps(vhi, 1));
        h = _mm_max_ps(h, _mm_movehl_ps(h, h));
        h = _mm_max_ss(h, _mm_shuffle_ps(h, h, 1));
        hi = _mm_cvtss_f32(h);
    }
    for (; i < n; ++i) {
        lo = std::min(lo, src[i]);
        hi = std::max(hi, src[i]);
    }
    if (hi == lo) {
        std::memset(dst, 0, n);
        scaleOut = 1.0f;
        zeroOut = 0;
        return;
    }

    // Scalar zero-point derivation, identical to assignActivations.
    const float step = (hi - lo) / 127.0f;
    const float inv = 1.0f / step;
    float zpf = (-lo * inv + kRoundMagic) - kRoundMagic;
    zpf = std::min(127.0f, std::max(0.0f, zpf));
    scaleOut = step;
    zeroOut = static_cast<int32_t>(zpf);

    // Quantize: mul, add, add, sub, clamp, truncating cast — one
    // rounding per operation, the scalar program lane for lane (the
    // min/max clamp order mirrors the scalar std::min(127,
    // std::max(0, q)) selects, and q is integral after the magic
    // round so the epi32 cvt and the saturating packs are exact).
    const __m256 vinv = _mm256_set1_ps(inv);
    const __m256 vzpf = _mm256_set1_ps(zpf);
    const __m256 vmagic = _mm256_set1_ps(kRoundMagic);
    const __m256 vmaxq = _mm256_set1_ps(127.0f);
    const __m256 vzero = _mm256_setzero_ps();
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256 q = _mm256_mul_ps(_mm256_loadu_ps(src + j), vinv);
        q = _mm256_add_ps(q, vzpf);
        q = _mm256_sub_ps(_mm256_add_ps(q, vmagic), vmagic);
        q = _mm256_min_ps(vmaxq, _mm256_max_ps(q, vzero));
        const __m256i qi = _mm256_cvtps_epi32(q);
        const __m128i p16 = _mm_packs_epi32(
            _mm256_castsi256_si128(qi), _mm256_extracti128_si256(qi, 1));
        const __m128i p8 = _mm_packs_epi16(p16, p16);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + j), p8);
    }
    for (; j < n; ++j) {
        float q = (src[j] * inv + zpf + kRoundMagic) - kRoundMagic;
        q = std::min(127.0f, std::max(0.0f, q));
        dst[j] = static_cast<int8_t>(q);
    }
}

void
gemmInt8Avx2(Matrix &dst, const QuantizedMatrix &a,
             const QuantizedMatrix &b, Gemm::Trans trans, size_t rowBegin,
             size_t rowEnd, const int32_t *wsum, const Gemm::Epilogue &ep,
             const int8_t *packedB)
{
    const size_t n = dst.cols();
    const size_t k = trans == Gemm::Trans::A ? a.rows() : a.cols();
    const size_t quads = (k + 3) / 4;
    const size_t mBand = rowEnd - rowBegin;
    const size_t mPanels = (mBand + kMr8 - 1) / kMr8;
    const size_t nPanels = (n + kNr8 - 1) / kNr8;
    const float bscale = b.scale(0);

    // Packed panels and the write-back tile live in per-thread
    // recycled buffers, so steady-state multiplies allocate nothing
    // (the Workspace arena is float-typed; these are bytes). With
    // prepacked op(B) panels (packedB, jp stride quads * kNr8 * 4) the
    // per-call B pack is skipped entirely.
    static thread_local std::vector<int8_t> t_pa, t_pb;
    static thread_local std::vector<int32_t> t_tile;
    t_pa.resize(mPanels * quads * kMr8 * 4);
    if (!packedB)
        t_pb.resize(quads * kNr8 * 4);
    t_tile.resize(kMr8 * kNr8);

    for (size_t ip = 0; ip < mPanels; ++ip) {
        const size_t i0 = rowBegin + ip * kMr8;
        packAPanelInt8(t_pa.data() + ip * quads * kMr8 * 4, a, trans, i0,
                       std::min(kMr8, rowEnd - i0), k, quads);
    }

    for (size_t jp = 0; jp < nPanels; ++jp) {
        const size_t j0 = jp * kNr8;
        const size_t nEff = std::min(kNr8, n - j0);
        const int8_t *pbp;
        if (packedB) {
            pbp = packedB + jp * quads * kNr8 * 4;
        } else {
            packBPanelInt8(t_pb.data(), b, trans, j0, nEff, k, quads);
            pbp = t_pb.data();
        }
        for (size_t ip = 0; ip < mPanels; ++ip) {
            const size_t i0 = rowBegin + ip * kMr8;
            const size_t mEff = std::min(kMr8, rowEnd - i0);
            microKernelInt8_4x16(quads,
                                 t_pa.data() + ip * quads * kMr8 * 4,
                                 pbp, t_tile.data());
            dequantStoreTile(t_tile.data(), dst, i0, j0, mEff, nEff, a,
                             bscale, wsum, ep);
        }
    }
}

} // namespace detail
} // namespace vitality
