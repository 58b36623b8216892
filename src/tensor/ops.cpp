#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "base/check.h"
#include "base/logging.h"
#include "tensor/gemm.h"
#include "tensor/transcendental.h"

namespace vitality {

namespace {

void
requireSameShape(const Matrix &a, const Matrix &b, const char *op)
{
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        throw std::invalid_argument(
            strfmt("%s: shape mismatch %s vs %s", op, a.shapeStr().c_str(),
                   b.shapeStr().c_str()));
    }
}

void
requireRowVector(const Matrix &a, const Matrix &v, const char *op)
{
    if (v.rows() != 1 || v.cols() != a.cols()) {
        throw std::invalid_argument(
            strfmt("%s: %s vs row vector %s", op, a.shapeStr().c_str(),
                   v.shapeStr().c_str()));
    }
}

void
requireColVector(const Matrix &a, const Matrix &v, const char *op)
{
    if (v.cols() != 1 || v.rows() != a.rows()) {
        throw std::invalid_argument(
            strfmt("%s: %s vs col vector %s", op, a.shapeStr().c_str(),
                   v.shapeStr().c_str()));
    }
}

} // namespace

// --- matmul family ----------------------------------------------------------
//
// All three variants (and therefore every matmul in the library: the
// value-returning forms below are thin wrappers) funnel through the
// Gemm dispatcher, which picks the AVX2+FMA microkernel or the portable
// scalar loops at runtime. Shape and aliasing checks live in
// Gemm::multiply.

void
matmulInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    Gemm::multiply(dst, a, b, Gemm::Trans::None);
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    Matrix c;
    matmulInto(c, a, b);
    return c;
}

void
matmulBTInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    Gemm::multiply(dst, a, b, Gemm::Trans::B);
}

Matrix
matmulBT(const Matrix &a, const Matrix &b)
{
    Matrix c;
    matmulBTInto(c, a, b);
    return c;
}

void
matmulATInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    Gemm::multiply(dst, a, b, Gemm::Trans::A);
}

Matrix
matmulAT(const Matrix &a, const Matrix &b)
{
    Matrix c;
    matmulATInto(c, a, b);
    return c;
}

void
transposeInto(Matrix &dst, const Matrix &a)
{
    if (&dst == &a)
        throw std::invalid_argument("transposeInto: dst must not alias a");
    dst.resize(a.cols(), a.rows());
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            dst(c, r) = a(r, c);
}

Matrix
transpose(const Matrix &a)
{
    Matrix t;
    transposeInto(t, a);
    return t;
}

// --- element-wise -----------------------------------------------------------

void
addInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    requireSameShape(a, b, "add");
    dst.resize(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        dst.data()[i] = a.data()[i] + b.data()[i];
}

Matrix
add(const Matrix &a, const Matrix &b)
{
    Matrix c;
    addInto(c, a, b);
    return c;
}

void
subInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    requireSameShape(a, b, "sub");
    dst.resize(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        dst.data()[i] = a.data()[i] - b.data()[i];
}

Matrix
sub(const Matrix &a, const Matrix &b)
{
    Matrix c;
    subInto(c, a, b);
    return c;
}

void
hadamardInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    requireSameShape(a, b, "hadamard");
    dst.resize(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        dst.data()[i] = a.data()[i] * b.data()[i];
}

Matrix
hadamard(const Matrix &a, const Matrix &b)
{
    Matrix c;
    hadamardInto(c, a, b);
    return c;
}

void
divideInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    requireSameShape(a, b, "divide");
    dst.resize(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        dst.data()[i] = a.data()[i] / b.data()[i];
}

Matrix
divide(const Matrix &a, const Matrix &b)
{
    Matrix c;
    divideInto(c, a, b);
    return c;
}

void
scaleInto(Matrix &dst, const Matrix &a, float s)
{
    dst.resize(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        dst.data()[i] = a.data()[i] * s;
}

Matrix
scale(const Matrix &a, float s)
{
    Matrix c;
    scaleInto(c, a, s);
    return c;
}

void
addScalarInto(Matrix &dst, const Matrix &a, float s)
{
    dst.resize(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        dst.data()[i] = a.data()[i] + s;
}

Matrix
addScalar(const Matrix &a, float s)
{
    Matrix c;
    addScalarInto(c, a, s);
    return c;
}

// --- reductions -------------------------------------------------------------

void
rowSumInto(Matrix &dst, const Matrix &a)
{
    if (&dst == &a)
        throw std::invalid_argument("rowSumInto: dst must not alias a");
    dst.resize(a.rows(), 1);
    for (size_t r = 0; r < a.rows(); ++r) {
        float acc = 0.0f;
        const float *row = a.rowPtr(r);
        for (size_t c = 0; c < a.cols(); ++c)
            acc += row[c];
        dst(r, 0) = acc;
    }
}

Matrix
rowSum(const Matrix &a)
{
    Matrix s;
    rowSumInto(s, a);
    return s;
}

void
colSumInto(Matrix &dst, const Matrix &a)
{
    if (&dst == &a)
        throw std::invalid_argument("colSumInto: dst must not alias a");
    dst.resize(1, a.cols());
    dst.fill(0.0f);
    float *srow = dst.rowPtr(0);
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *row = a.rowPtr(r);
        for (size_t c = 0; c < a.cols(); ++c)
            srow[c] += row[c];
    }
}

Matrix
colSum(const Matrix &a)
{
    Matrix s;
    colSumInto(s, a);
    return s;
}

void
rowMeanInto(Matrix &dst, const Matrix &a)
{
    if (a.cols() == 0)
        throw std::invalid_argument("rowMean: zero columns");
    rowSumInto(dst, a);
    scaleInto(dst, dst, 1.0f / static_cast<float>(a.cols()));
}

Matrix
rowMean(const Matrix &a)
{
    Matrix m;
    rowMeanInto(m, a);
    return m;
}

void
colMeanInto(Matrix &dst, const Matrix &a)
{
    if (a.rows() == 0)
        throw std::invalid_argument("colMean: zero rows");
    colSumInto(dst, a);
    scaleInto(dst, dst, 1.0f / static_cast<float>(a.rows()));
}

Matrix
colMean(const Matrix &a)
{
    Matrix m;
    colMeanInto(m, a);
    return m;
}

// --- broadcasts -------------------------------------------------------------

void
broadcastAddRowInto(Matrix &dst, const Matrix &a, const Matrix &v)
{
    requireRowVector(a, v, "broadcastAddRow");
    if (&dst == &v)
        throw std::invalid_argument("broadcastAddRowInto: dst aliases v");
    dst.resize(a.rows(), a.cols());
    const float *vrow = v.rowPtr(0);
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *arow = a.rowPtr(r);
        float *drow = dst.rowPtr(r);
        for (size_t c = 0; c < a.cols(); ++c)
            drow[c] = arow[c] + vrow[c];
    }
}

Matrix
broadcastAddRow(const Matrix &a, const Matrix &v)
{
    Matrix c;
    broadcastAddRowInto(c, a, v);
    return c;
}

void
broadcastSubRowInto(Matrix &dst, const Matrix &a, const Matrix &v)
{
    requireRowVector(a, v, "broadcastSubRow");
    if (&dst == &v)
        throw std::invalid_argument("broadcastSubRowInto: dst aliases v");
    dst.resize(a.rows(), a.cols());
    const float *vrow = v.rowPtr(0);
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *arow = a.rowPtr(r);
        float *drow = dst.rowPtr(r);
        for (size_t c = 0; c < a.cols(); ++c)
            drow[c] = arow[c] - vrow[c];
    }
}

Matrix
broadcastSubRow(const Matrix &a, const Matrix &v)
{
    Matrix c;
    broadcastSubRowInto(c, a, v);
    return c;
}

void
broadcastAddColInto(Matrix &dst, const Matrix &a, const Matrix &v)
{
    requireColVector(a, v, "broadcastAddCol");
    if (&dst == &v)
        throw std::invalid_argument("broadcastAddColInto: dst aliases v");
    dst.resize(a.rows(), a.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
        const float add_r = v(r, 0);
        const float *arow = a.rowPtr(r);
        float *drow = dst.rowPtr(r);
        for (size_t c = 0; c < a.cols(); ++c)
            drow[c] = arow[c] + add_r;
    }
}

Matrix
broadcastAddCol(const Matrix &a, const Matrix &v)
{
    Matrix c;
    broadcastAddColInto(c, a, v);
    return c;
}

void
scaleRowsInto(Matrix &dst, const Matrix &a, const Matrix &v)
{
    requireColVector(a, v, "scaleRows");
    if (&dst == &v)
        throw std::invalid_argument("scaleRowsInto: dst aliases v");
    dst.resize(a.rows(), a.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
        const float s = v(r, 0);
        const float *arow = a.rowPtr(r);
        float *drow = dst.rowPtr(r);
        for (size_t c = 0; c < a.cols(); ++c)
            drow[c] = arow[c] * s;
    }
}

Matrix
scaleRows(const Matrix &a, const Matrix &v)
{
    Matrix c;
    scaleRowsInto(c, a, v);
    return c;
}

void
divRowsInto(Matrix &dst, const Matrix &a, const Matrix &v)
{
    requireColVector(a, v, "divRows");
    if (&dst == &v)
        throw std::invalid_argument("divRowsInto: dst aliases v");
    dst.resize(a.rows(), a.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
        const float inv = 1.0f / v(r, 0);
        const float *arow = a.rowPtr(r);
        float *drow = dst.rowPtr(r);
        for (size_t c = 0; c < a.cols(); ++c)
            drow[c] = arow[c] * inv;
    }
}

Matrix
divRows(const Matrix &a, const Matrix &v)
{
    Matrix c;
    divRowsInto(c, a, v);
    return c;
}

// --- row-wise nonlinearities ------------------------------------------------

void
softmaxRowsInto(Matrix &dst, const Matrix &a)
{
    dst.resize(a.rows(), a.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *in = a.rowPtr(r);
        float *out = dst.rowPtr(r);
        float maxv = in[0];
        for (size_t c = 1; c < a.cols(); ++c)
            maxv = std::max(maxv, in[c]);
        float denom = 0.0f;
        for (size_t c = 0; c < a.cols(); ++c) {
            out[c] = std::exp(in[c] - maxv);
            denom += out[c];
        }
        const float inv = 1.0f / denom;
        for (size_t c = 0; c < a.cols(); ++c)
            out[c] *= inv;
    }
}

Matrix
softmaxRows(const Matrix &a)
{
    Matrix s;
    softmaxRowsInto(s, a);
    return s;
}

void
layerNormRowsInto(Matrix &dst, const Matrix &a, const Matrix &gamma,
                  const Matrix &beta, float eps)
{
    requireRowVector(a, gamma, "layerNormRows(gamma)");
    requireRowVector(a, beta, "layerNormRows(beta)");
    if (&dst == &gamma || &dst == &beta)
        throw std::invalid_argument("layerNormRowsInto: dst aliases params");
    if (a.cols() == 0)
        throw std::invalid_argument("layerNormRows: zero columns");
    // A single NaN spreads through the whole row via mean/variance;
    // catch it on entry in checked builds rather than in the output.
    VITALITY_DCHECK(check::allFinite(a.data(), a.size()),
                    "layerNormRows: non-finite input %s",
                    a.shapeStr().c_str());
    VITALITY_DCHECK(check::allFinite(gamma.data(), gamma.size()) &&
                        check::allFinite(beta.data(), beta.size()),
                    "layerNormRows: non-finite gamma/beta");
    dst.resize(a.rows(), a.cols());
    const float inv_n = 1.0f / static_cast<float>(a.cols());
    const float *grow = gamma.rowPtr(0);
    const float *brow = beta.rowPtr(0);
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *in = a.rowPtr(r);
        float *out = dst.rowPtr(r);
        float mean_r = 0.0f;
        for (size_t c = 0; c < a.cols(); ++c)
            mean_r += in[c];
        mean_r *= inv_n;
        float var_r = 0.0f;
        for (size_t c = 0; c < a.cols(); ++c) {
            const float d = in[c] - mean_r;
            var_r += d * d;
        }
        var_r *= inv_n;
        const float inv_std = 1.0f / std::sqrt(var_r + eps);
        for (size_t c = 0; c < a.cols(); ++c)
            out[c] = (in[c] - mean_r) * inv_std * grow[c] + brow[c];
    }
}

Matrix
layerNormRows(const Matrix &a, const Matrix &gamma, const Matrix &beta,
              float eps)
{
    Matrix c;
    layerNormRowsInto(c, a, gamma, beta, eps);
    return c;
}

void
expElemInto(Matrix &dst, const Matrix &a)
{
    dst.resize(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        dst.data()[i] = std::exp(a.data()[i]);
}

Matrix
expElem(const Matrix &a)
{
    Matrix c;
    expElemInto(c, a);
    return c;
}

// --- polynomial transcendentals ---------------------------------------------
//
// The exp2 core shared by expApprox / tanhApprox / geluScalar /
// softmaxRowsApprox. Every step is a plain IEEE mul/add/compare (no
// FMA, no library call), so the sequence rounds identically wherever
// it is instantiated — which is what lets the AVX2 kernels (the GELU
// in both GEMM write-backs, the approx softmax, the quantizer)
// replicate it lane by lane and stay bitwise-equal to these scalar
// fallbacks. Rounding to nearest-even uses the 1.5 * 2^23
// magic-number trick instead of nearbyint, keeping the program free
// of rounding-mode library calls on every path.

namespace detail {

/**
 * 2^z with z clamped to [-126, 126] (normal-exponent range; the clamp
 * also absorbs NaN, which compares false and lands on -126). The two
 * selects mirror AVX2 max/min semantics — (a > b) ? a : b with NaN
 * taking the second operand — so the vector twin (exp2Core8 in
 * gemm_avx2.cpp) is the same program lane by lane.
 */
float
exp2CoreScalar(float z)
{
    float zc = (z > -kExp2Clamp) ? z : -kExp2Clamp;
    zc = (zc < kExp2Clamp) ? zc : kExp2Clamp;
    const float nf = (zc + kRoundMagic) - kRoundMagic;
    const float f = zc - nf;
    float p = kExp2C7;
    p = p * f + kExp2C6;
    p = p * f + kExp2C5;
    p = p * f + kExp2C4;
    p = p * f + kExp2C3;
    p = p * f + kExp2C2;
    p = p * f + kExp2C1;
    p = p * f + 1.0f;
    const int32_t n = static_cast<int32_t>(nf);
    const uint32_t bits = static_cast<uint32_t>(n + 127) << 23;
    float scale;
    std::memcpy(&scale, &bits, sizeof(scale));
    return p * scale;
}

#if VITALITY_HAVE_AVX2
// Defined in gemm_avx2.cpp (compiled with -mavx2 -mfma); only called
// after the Gemm dispatcher's runtime CPUID check selected the AVX2
// backend. Bitwise-identical to the scalar loops by the shared
// lane-program contract (and, for maxAbs, exact associativity of max).
void softmaxRowsApproxAvx2(Matrix &dst, const Matrix &a);
float maxAbsAvx2(const float *data, size_t count);
#endif

} // namespace detail

namespace {

using detail::kLog2e;
using detail::kTanhClamp;
using detail::kTwoLog2e;

inline float
tanhApproxCore(float x)
{
    float t = (x > -kTanhClamp) ? x : -kTanhClamp;
    t = (t < kTanhClamp) ? t : kTanhClamp;
    const float e2x = detail::exp2CoreScalar(t * kTwoLog2e);
    return (e2x - 1.0f) / (e2x + 1.0f);
}

} // namespace

float
expApprox(float x)
{
    return detail::exp2CoreScalar(x * kLog2e);
}

float
tanhApprox(float x)
{
    return tanhApproxCore(x);
}

float
geluScalar(float x)
{
    // Same inner-polynomial order as the AVX2 lane program in
    // tensor/avx2_math.h: x^3 as (x * x) * x, inner as
    // kGeluSqrt2OverPi * (x + kGeluCubic * x^3), result as
    // (0.5 * x) * (1 + tanh).
    const float x3 = (x * x) * x;
    const float inner =
        detail::kGeluSqrt2OverPi * (x + detail::kGeluCubic * x3);
    return (0.5f * x) * (1.0f + tanhApproxCore(inner));
}

void
softmaxRowsApproxInto(Matrix &dst, const Matrix &a)
{
    if (a.size() == 0) {
        dst.resize(a.rows(), a.cols());
        return;
    }
#if VITALITY_HAVE_AVX2
    // Ride the Gemm dispatcher's CPUID-checked backend choice: when
    // the AVX2 backend is active, the 8-lane row kernel runs the same
    // program 8 elements at a time (bitwise-identical results, so the
    // predicted masks cannot depend on the backend).
    if (Gemm::active() == Gemm::Backend::Avx2) {
        detail::softmaxRowsApproxAvx2(dst, a);
        return;
    }
#endif
    dst.resize(a.rows(), a.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *in = a.rowPtr(r);
        float *out = dst.rowPtr(r);
        float maxv = in[0];
        for (size_t c = 1; c < a.cols(); ++c)
            maxv = std::max(maxv, in[c]);
        for (size_t c = 0; c < a.cols(); ++c)
            out[c] =
                detail::exp2CoreScalar((in[c] - maxv) * kLog2e);
        float denom = 0.0f;
        for (size_t c = 0; c < a.cols(); ++c)
            denom += out[c];
        const float inv = 1.0f / denom;
        for (size_t c = 0; c < a.cols(); ++c)
            out[c] *= inv;
    }
}

void
geluInto(Matrix &dst, const Matrix &a)
{
    dst.resize(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        dst.data()[i] = geluScalar(a.data()[i]);
}

Matrix
gelu(const Matrix &a)
{
    Matrix c;
    geluInto(c, a);
    return c;
}

void
mapElemInto(Matrix &dst, const Matrix &a,
            const std::function<float(float)> &fn)
{
    dst.resize(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        dst.data()[i] = fn(a.data()[i]);
}

Matrix
mapElem(const Matrix &a, const std::function<float(float)> &fn)
{
    Matrix c;
    mapElemInto(c, a, fn);
    return c;
}

// --- structural helpers -----------------------------------------------------

Matrix
outer(const Matrix &u, const Matrix &v)
{
    if (u.cols() != 1 || v.cols() != 1)
        throw std::invalid_argument("outer: expects column vectors");
    Matrix c(u.rows(), v.rows());
    for (size_t r = 0; r < u.rows(); ++r)
        for (size_t col = 0; col < v.rows(); ++col)
            c(r, col) = u(r, 0) * v(col, 0);
    return c;
}

Matrix
concatRows(const Matrix &a, const Matrix &b)
{
    if (a.cols() != b.cols())
        throw std::invalid_argument("concatRows: column mismatch");
    Matrix c(a.rows() + b.rows(), a.cols());
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t col = 0; col < a.cols(); ++col)
            c(r, col) = a(r, col);
    for (size_t r = 0; r < b.rows(); ++r)
        for (size_t col = 0; col < b.cols(); ++col)
            c(a.rows() + r, col) = b(r, col);
    return c;
}

Matrix
concatCols(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows())
        throw std::invalid_argument("concatCols: row mismatch");
    Matrix c(a.rows(), a.cols() + b.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
        for (size_t col = 0; col < a.cols(); ++col)
            c(r, col) = a(r, col);
        for (size_t col = 0; col < b.cols(); ++col)
            c(r, a.cols() + col) = b(r, col);
    }
    return c;
}

// --- scalar summaries -------------------------------------------------------

float
maxAbs(const Matrix &a)
{
#if VITALITY_HAVE_AVX2
    // Max is exactly associative, so the 8-lane reduction returns the
    // same value as the scalar loop; the quantizer calls this per
    // sparse-branch forward, which is what makes it worth dispatching.
    if (Gemm::active() == Gemm::Backend::Avx2)
        return detail::maxAbsAvx2(a.data(), a.size());
#endif
    float best = 0.0f;
    for (size_t i = 0; i < a.size(); ++i)
        best = std::max(best, std::fabs(a.data()[i]));
    return best;
}

float
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    requireSameShape(a, b, "maxAbsDiff");
    float best = 0.0f;
    for (size_t i = 0; i < a.size(); ++i)
        best = std::max(best, std::fabs(a.data()[i] - b.data()[i]));
    return best;
}

float
frobeniusNorm(const Matrix &a)
{
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        acc += static_cast<double>(a.data()[i]) * a.data()[i];
    return static_cast<float>(std::sqrt(acc));
}

float
mean(const Matrix &a)
{
    if (a.empty())
        throw std::invalid_argument("mean: empty matrix");
    return sum(a) / static_cast<float>(a.size());
}

float
sum(const Matrix &a)
{
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        acc += a.data()[i];
    return static_cast<float>(acc);
}

size_t
argmaxRow(const Matrix &a, size_t r)
{
    VITALITY_ASSERT(r < a.rows() && a.cols() > 0, "argmaxRow out of range");
    size_t best = 0;
    for (size_t c = 1; c < a.cols(); ++c) {
        if (a(r, c) > a(r, best))
            best = c;
    }
    return best;
}

float
fractionInRange(const Matrix &a, float lo, float hi)
{
    if (a.empty())
        return 0.0f;
    size_t count = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        const float x = a.data()[i];
        if (x >= lo && x < hi)
            ++count;
    }
    return static_cast<float>(count) / static_cast<float>(a.size());
}

float
sparsity(const Matrix &a)
{
    if (a.empty())
        return 0.0f;
    size_t zeros = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a.data()[i] == 0.0f)
            ++zeros;
    }
    return static_cast<float>(zeros) / static_cast<float>(a.size());
}

} // namespace vitality
