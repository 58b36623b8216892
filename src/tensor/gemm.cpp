#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include <vector>

#include "base/check.h"
#include "base/logging.h"
#include "tensor/gemm_epilogue.h"
#include "tensor/gemm_int8.h"
#include "tensor/ops.h"
#include "tensor/packed_weights.h"
#include "tensor/quantized_matrix.h"
#include "tensor/workspace.h"

namespace vitality {

namespace detail {

#if VITALITY_HAVE_AVX2
// Defined in gemm_avx2.cpp, compiled with -mavx2 -mfma. Must only be
// called after a runtime CPUID check: the whole translation unit is
// built for the AVX2 ISA. Computes rows [rowBegin, rowEnd) of dst. A
// non-null packedB supplies prepacked full-k op(B) panels (jp stride
// k * 16, the PackedMatrix layout) and skips the per-call B pack.
void gemmAvx2(Matrix &dst, const Matrix &a, const Matrix &b,
              Gemm::Trans trans, size_t rowBegin, size_t rowEnd,
              const Gemm::Epilogue &ep, const float *packedB = nullptr);
#endif

} // namespace detail

namespace {

// Block size for the scalar cache-tiled loops. 64 floats = 256 bytes
// per row strip, keeping three blocks comfortably within L1.
constexpr size_t kBlock = 64;

// Row-band granularity for intra-GEMM parallelism. Matches the AVX2
// microkernel's panel height so a band boundary never splits a packed
// A panel; the scalar backend is indifferent to the granularity.
constexpr size_t kBandRows = 6;

// The INT8 microkernel uses 4-row panels, so its bands align to 4.
constexpr size_t kQuantBandRows = 4;

// Depth cap for the quantized path: |S - za*wsum| <= 2 * k * 127 * 127
// must stay below 2^31 for the int32 zero-point correction to be
// exact; 2 * 65536 * 16129 = 2.11e9 < 2^31 is the deepest safe power
// of two (DeiT tops out at k = 3072).
constexpr size_t kMaxQuantDepth = 65536;

// The size heuristic: don't fan out unless every band gets at least
// this many flops (2*m*n*k total), so layer-norm-sized GEMMs and the
// per-head attention products stay on the calling thread where the
// fan-out overhead would dominate.
constexpr uint64_t kMinFlopsPerBand = uint64_t(1) << 21;

/** op(X) dimensions: rows(op(A)) x cols(op(A)) = m x k, op(B) = k x n. */
struct GemmDims
{
    size_t m, n, k;
};

template <class MatA, class MatB>
GemmDims
checkedDims(const MatA &a, const MatB &b, Gemm::Trans trans)
{
    switch (trans) {
    case Gemm::Trans::None:
        if (a.cols() != b.rows()) {
            throw std::invalid_argument(
                strfmt("matmul: inner dims differ, %s vs %s",
                       a.shapeStr().c_str(), b.shapeStr().c_str()));
        }
        return {a.rows(), b.cols(), a.cols()};
    case Gemm::Trans::A:
        if (a.rows() != b.rows()) {
            throw std::invalid_argument(
                strfmt("matmulAT: inner dims differ, %s^T vs %s",
                       a.shapeStr().c_str(), b.shapeStr().c_str()));
        }
        return {a.cols(), b.cols(), a.rows()};
    case Gemm::Trans::B:
        if (a.cols() != b.cols()) {
            throw std::invalid_argument(
                strfmt("matmulBT: inner dims differ, %s vs %s^T",
                       a.shapeStr().c_str(), b.shapeStr().c_str()));
        }
        return {a.rows(), b.rows(), a.cols()};
    }
    throw std::invalid_argument("gemm: unknown transpose mode");
}

using detail::epilogueApplyRow;

// Scratch arena for the scalar backend's staged epilogue rows and the
// k = 0 zero row. Thread-local, so banded scalar GEMMs and
// concurrent callers stay allocation-free per worker.
thread_local Workspace t_scalarArena;

// The scalar reference backend: the original cache-blocked loops,
// restricted to output rows [i0, i1) so row bands can fan across a
// pool. Every variant accumulates each output element over k in
// ascending order, the order the AVX2 microkernel reproduces (see the
// tolerance note in gemm.h). With a non-trivial epilogue the raw
// products are staged in scratch rows and pushed through the shared
// epilogueApplyRow helper (gemm_epilogue.h) at the end — same
// accumulation order, fused single write-back.

void
scalarNone(Matrix &dst, const Matrix &a, const Matrix &b, size_t i0,
           size_t i1, const Gemm::Epilogue &ep)
{
    const size_t k = a.cols(), n = b.cols();
    Workspace::Frame frame(t_scalarArena);
    Matrix *stage =
        ep.trivial() ? nullptr
                     : &t_scalarArena.acquire(std::min(kBlock, i1 - i0), n);
    // Blocked i-k-j order: the innermost loop streams contiguous rows of
    // B and the accumulator rows, which vectorizes well.
    for (size_t ib = i0; ib < i1; ib += kBlock) {
        const size_t ie = std::min(ib + kBlock, i1);
        if (stage) {
            stage->resize(ie - ib, n);
            stage->fill(0.0f);
        } else {
            for (size_t i = ib; i < ie; ++i)
                std::fill(dst.rowPtr(i), dst.rowPtr(i) + n, 0.0f);
        }
        for (size_t k0 = 0; k0 < k; k0 += kBlock) {
            const size_t k1 = std::min(k0 + kBlock, k);
            for (size_t i = ib; i < ie; ++i) {
                const float *arow = a.rowPtr(i);
                float *crow =
                    stage ? stage->rowPtr(i - ib) : dst.rowPtr(i);
                for (size_t kk = k0; kk < k1; ++kk) {
                    const float aik = arow[kk];
                    const float *brow = b.rowPtr(kk);
                    for (size_t j = 0; j < n; ++j)
                        crow[j] += aik * brow[j];
                }
            }
        }
        if (stage)
            for (size_t i = ib; i < ie; ++i)
                epilogueApplyRow(dst.rowPtr(i), stage->rowPtr(i - ib), n, ep);
    }
}

void
scalarTransB(Matrix &dst, const Matrix &a, const Matrix &b, size_t i0,
             size_t i1, const Gemm::Epilogue &ep)
{
    const size_t k = a.cols(), n = b.rows();
    Workspace::Frame frame(t_scalarArena);
    Matrix *stage =
        ep.trivial() ? nullptr : &t_scalarArena.acquire(1, n);
    // Row-by-row dot products: both operands stream contiguously; a
    // finished row goes through the shared epilogue write-back.
    for (size_t i = i0; i < i1; ++i) {
        const float *arow = a.rowPtr(i);
        float *crow = stage ? stage->rowPtr(0) : dst.rowPtr(i);
        for (size_t j = 0; j < n; ++j) {
            const float *brow = b.rowPtr(j);
            float acc = 0.0f;
            for (size_t kk = 0; kk < k; ++kk)
                acc += arow[kk] * brow[kk];
            crow[j] = acc;
        }
        if (stage)
            epilogueApplyRow(dst.rowPtr(i), crow, n, ep);
    }
}

void
scalarTransA(Matrix &dst, const Matrix &a, const Matrix &b, size_t i0,
             size_t i1, const Gemm::Epilogue &ep)
{
    const size_t k = a.rows(), n = b.cols();
    Workspace::Frame frame(t_scalarArena);
    Matrix *stage = nullptr;
    if (!ep.trivial())
        stage = &t_scalarArena.acquireZeroed(i1 - i0, n);
    else
        for (size_t i = i0; i < i1; ++i)
            std::fill(dst.rowPtr(i), dst.rowPtr(i) + n, 0.0f);
    // Accumulate rank-1 updates: for each shared row kk, C += a_kk^T b_kk.
    for (size_t kk = 0; kk < k; ++kk) {
        const float *arow = a.rowPtr(kk);
        const float *brow = b.rowPtr(kk);
        for (size_t i = i0; i < i1; ++i) {
            const float aki = arow[i];
            float *crow = stage ? stage->rowPtr(i - i0) : dst.rowPtr(i);
            for (size_t j = 0; j < n; ++j)
                crow[j] += aki * brow[j];
        }
    }
    if (stage)
        for (size_t i = i0; i < i1; ++i)
            epilogueApplyRow(dst.rowPtr(i), stage->rowPtr(i - i0), n, ep);
}

void
gemmScalar(Matrix &dst, const Matrix &a, const Matrix &b,
           Gemm::Trans trans, size_t i0, size_t i1,
           const Gemm::Epilogue &ep)
{
    switch (trans) {
    case Gemm::Trans::None:
        scalarNone(dst, a, b, i0, i1, ep);
        return;
    case Gemm::Trans::A:
        scalarTransA(dst, a, b, i0, i1, ep);
        return;
    case Gemm::Trans::B:
        scalarTransB(dst, a, b, i0, i1, ep);
        return;
    }
}

void
runBackend(Gemm::Backend backend, Matrix &dst, const Matrix &a,
           const Matrix &b, Gemm::Trans trans, size_t i0, size_t i1,
           const Gemm::Epilogue &ep, const float *packedB)
{
    switch (backend) {
    case Gemm::Backend::Scalar:
        // The scalar backend is the unpack-free reference path: it
        // reads the borrowed source operand directly, so prepacked
        // panels are simply unused here.
        gemmScalar(dst, a, b, trans, i0, i1, ep);
        return;
    case Gemm::Backend::Avx2:
#if VITALITY_HAVE_AVX2
        detail::gemmAvx2(dst, a, b, trans, i0, i1, ep, packedB);
        return;
#else
        (void)packedB;
        throw std::invalid_argument(
            "gemm: AVX2 backend not compiled in "
            "(build with -DVITALITY_ENABLE_AVX2=ON)");
#endif
    }
    throw std::invalid_argument("gemm: unknown backend");
}

bool
cpuHasAvx2Fma()
{
#if VITALITY_HAVE_AVX2 && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

Gemm::Backend
resolveDefault()
{
    const Gemm::Backend best = Gemm::available(Gemm::Backend::Avx2)
                                   ? Gemm::Backend::Avx2
                                   : Gemm::Backend::Scalar;
    const char *env = std::getenv("VITALITY_GEMM");
    if (!env || !*env)
        return best;
    const std::optional<Gemm::Backend> wanted = Gemm::parseBackend(env);
    if (!wanted) {
        warn("VITALITY_GEMM=%s not recognized (want scalar|avx2); "
             "using %s",
             env, Gemm::backendName(best));
        return best;
    }
    if (!Gemm::available(*wanted)) {
        warn("VITALITY_GEMM=%s requested but unavailable here; using %s",
             env, Gemm::backendName(best));
        return best;
    }
    return *wanted;
}

// -1 = unresolved; otherwise holds a Backend value. Resolved lazily so
// the env override applies no matter when the first multiply happens.
std::atomic<int> g_active{-1};

// -2 = unresolved; otherwise the VITALITY_THREADS cap (0 = uncapped).
std::atomic<long> g_maxThreads{-2};

// -1 = unresolved; otherwise a Gemm::QuantMode value
// (VITALITY_QUANT=off|int8, default off).
std::atomic<int> g_quantMode{-1};

// The injected intra-GEMM runner; guarded because install/uninstall
// (ThreadPool construction/destruction) may race a reader taking a
// snapshot. The snapshot keeps the ParallelRunner struct itself alive,
// but not whatever the callbacks capture — the pool behind them must
// outlive in-flight multiplies (documented in thread_pool.h).
std::mutex g_runnerMutex;
std::shared_ptr<const Gemm::ParallelRunner> g_runner;

long
resolveMaxThreads()
{
    const char *env = std::getenv("VITALITY_THREADS");
    if (!env || !*env)
        return 0;
    char *end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0) {
        warn("VITALITY_THREADS=%s not recognized (want a non-negative "
             "integer); ignoring",
             env);
        return 0;
    }
    return parsed;
}

/**
 * Bands the caller may fan this product across: the runner width under
 * the thread cap and the size heuristic, floored at 1. Band boundaries
 * are aligned to bandRows (the backend pair's microkernel panel
 * height) so they never split a packed panel.
 */
size_t
chooseBands(const GemmDims &dims,
            const std::shared_ptr<const Gemm::ParallelRunner> &runner,
            size_t bandRows)
{
    if (!runner || dims.m <= bandRows)
        return 1;
    size_t width = runner->width();
    const size_t cap = Gemm::maxThreads();
    if (cap)
        width = std::min(width, cap);
    if (width <= 1)
        return 1;
    const uint64_t flops = 2ull * dims.m * dims.n * dims.k;
    const size_t byWork =
        static_cast<size_t>(std::max<uint64_t>(1, flops / kMinFlopsPerBand));
    const size_t panels = (dims.m + bandRows - 1) / bandRows;
    return std::max<size_t>(1, std::min({width, byWork, panels}));
}

void
validateEpilogue(const Matrix &dst, const GemmDims &dims,
                 const Gemm::Epilogue &ep)
{
    if (ep.bias) {
        if (ep.bias->rows() != 1 || ep.bias->cols() != dims.n) {
            throw std::invalid_argument(
                strfmt("gemm: epilogue bias %s, expected [1 x %zu]",
                       ep.bias->shapeStr().c_str(), dims.n));
        }
        if (ep.bias == &dst) {
            throw std::invalid_argument(
                "gemm: epilogue bias must not alias dst");
        }
    }
    if (ep.accumulate &&
        (dst.rows() != dims.m || dst.cols() != dims.n)) {
        throw std::invalid_argument(
            strfmt("gemm: accumulate epilogue needs dst preshaped to "
                   "[%zu x %zu], got %s",
                   dims.m, dims.n, dst.shapeStr().c_str()));
    }
}

void
runBackendInt8(Gemm::Backend backend, Matrix &dst,
               const QuantizedMatrix &a, const QuantizedMatrix &b,
               Gemm::Trans trans, size_t i0, size_t i1,
               const int32_t *wsum, const Gemm::Epilogue &ep,
               const int8_t *packedB)
{
    switch (backend) {
    case Gemm::Backend::Scalar:
        // Unpack-free reference path: reads the borrowed source.
        detail::gemmInt8Scalar(dst, a, b, trans, i0, i1, wsum, ep);
        return;
    case Gemm::Backend::Avx2:
#if VITALITY_HAVE_AVX2
        detail::gemmInt8Avx2(dst, a, b, trans, i0, i1, wsum, ep, packedB);
        return;
#else
        (void)packedB;
        throw std::invalid_argument(
            "gemm: AVX2 backend not compiled in "
            "(build with -DVITALITY_ENABLE_AVX2=ON)");
#endif
    }
    throw std::invalid_argument("gemm: unknown backend");
}

/**
 * Fold a prepacked RHS's baked op(B) mode into the caller's transA.
 * The result is the single Trans value the backends understand;
 * combinations the backends cannot express (any with transA Trans::B,
 * or A^T against a Trans::B-packed RHS) throw.
 */
Gemm::Trans
combinePackedTrans(Gemm::Trans packed, Gemm::Trans transA)
{
    if (transA == Gemm::Trans::B) {
        throw std::invalid_argument(
            "gemm: prepacked multiply takes transA of None or A; op(B) "
            "was baked at pack time");
    }
    if (packed == Gemm::Trans::B) {
        if (transA == Gemm::Trans::A) {
            throw std::invalid_argument(
                "gemm: Trans::A cannot combine with a Trans::B-packed "
                "RHS (no backend computes A^T * B^T)");
        }
        return Gemm::Trans::B;
    }
    return transA;
}

} // namespace

void
Gemm::multiply(Matrix &dst, const Matrix &a, const Matrix &b, Trans trans)
{
    multiply(dst, a, b, trans, Epilogue{}, active());
}

void
Gemm::multiply(Matrix &dst, const Matrix &a, const Matrix &b, Trans trans,
               Backend backend)
{
    multiply(dst, a, b, trans, Epilogue{}, backend);
}

void
Gemm::multiply(Matrix &dst, const Matrix &a, const Matrix &b, Trans trans,
               const Epilogue &epilogue)
{
    multiply(dst, a, b, trans, epilogue, active());
}

void
Gemm::multiply(Matrix &dst, const Matrix &a, const Matrix &b, Trans trans,
               const Epilogue &epilogue, Backend backend)
{
    multiplyImpl(dst, a, b, trans, epilogue, backend, nullptr);
}

void
Gemm::multiply(Matrix &dst, const Matrix &a, const PackedMatrix &b,
               Trans transA, const Epilogue &epilogue)
{
    multiply(dst, a, b, transA, epilogue, active());
}

void
Gemm::multiply(Matrix &dst, const Matrix &a, const PackedMatrix &b,
               Trans transA, const Epilogue &epilogue, Backend backend)
{
    if (!b.hasFp32()) {
        throw std::invalid_argument(
            "gemm: PackedMatrix holds no fp32 panels (packFp32 was "
            "never called)");
    }
    // The borrowed source carries shape and data for validation and
    // the scalar reference path; the stored panels feed the AVX2
    // backend. Both views were produced by the same pack program, so
    // the two backends see the same operand bit for bit.
    multiplyImpl(dst, a, *b.sourceFp32(),
                 combinePackedTrans(b.trans(), transA), epilogue, backend,
                 b.fp32Panels());
}

void
Gemm::multiplyImpl(Matrix &dst, const Matrix &a, const Matrix &b,
                   Trans trans, const Epilogue &ep, Backend backend,
                   const float *packedB)
{
    // Guard the explicit-backend path too: without this, requesting
    // Avx2 on a host without the ISA would reach the microkernel and
    // die on an illegal instruction instead of throwing as documented.
    if (!available(backend)) {
        throw std::invalid_argument(
            strfmt("gemm: backend %s is not available on this host",
                   backendName(backend)));
    }
    const GemmDims dims = checkedDims(a, b, trans);
    // Matrix always owns its storage, so object identity is the only
    // possible aliasing.
    if (&dst == &a || &dst == &b)
        throw std::invalid_argument("gemm: dst must not alias an input");
    validateEpilogue(dst, dims, ep);
    // Checked-build contracts: identity covers aliasing only while every
    // Matrix owns its storage — assert the data ranges agree — and the
    // backends assume finite inputs (a NaN would quietly poison every
    // row it touches; catch it at the one dispatch point instead).
    VITALITY_DCHECK(check::noAlias(dst.data(), dst.size(), a.data(),
                                   a.size()) &&
                        check::noAlias(dst.data(), dst.size(), b.data(),
                                       b.size()),
                    "gemm: dst storage overlaps an input");
    VITALITY_DCHECK(check::allFinite(a.data(), a.size()),
                    "gemm: non-finite A operand %s", a.shapeStr().c_str());
    VITALITY_DCHECK(check::allFinite(b.data(), b.size()),
                    "gemm: non-finite B operand %s", b.shapeStr().c_str());
    VITALITY_DCHECK(!ep.bias ||
                        check::allFinite(ep.bias->data(), ep.bias->size()),
                    "gemm: non-finite epilogue bias");
    VITALITY_DCHECK(!ep.accumulate ||
                        check::allFinite(dst.data(), dst.size()),
                    "gemm: accumulate into non-finite dst");
    if (!ep.accumulate)
        dst.resize(dims.m, dims.n);
    if (dims.m == 0 || dims.n == 0)
        return;
    if (dims.k == 0) {
        // The product is all zeros; the epilogue still applies to it.
        if (ep.trivial()) {
            dst.fill(0.0f);
            return;
        }
        Workspace::Frame frame(t_scalarArena);
        const Matrix &zeros = t_scalarArena.acquireZeroed(1, dims.n);
        for (size_t i = 0; i < dims.m; ++i)
            epilogueApplyRow(dst.rowPtr(i), zeros.rowPtr(0), dims.n, ep);
        return;
    }

    // Cheap early-outs before touching the runner: a GEMM too small to
    // ever split into two worthwhile bands skips the global runner
    // mutex and shared_ptr traffic entirely (this is every per-head
    // attention product issued from a pool worker).
    std::shared_ptr<const ParallelRunner> runner;
    if (dims.m > kBandRows &&
        2ull * dims.m * dims.n * dims.k >= 2 * kMinFlopsPerBand)
        runner = parallelRunner();
    const size_t bands = runner ? chooseBands(dims, runner, kBandRows) : 1;
    if (bands <= 1) {
        runBackend(backend, dst, a, b, trans, 0, dims.m, ep, packedB);
        return;
    }
    // Fan microkernel-aligned row bands across the pool. Bands
    // partition the output rows, so every element is still one
    // uninterrupted ascending-k sum: results are bitwise-identical to
    // the sequential call at any band count. Prepacked panels are
    // read-only and shared by every band.
    const size_t panels = (dims.m + kBandRows - 1) / kBandRows;
    runner->run(bands, [&](size_t band) {
        const size_t p0 = panels * band / bands;
        const size_t p1 = panels * (band + 1) / bands;
        const size_t i0 = p0 * kBandRows;
        const size_t i1 = std::min(p1 * kBandRows, dims.m);
        if (i0 < i1)
            runBackend(backend, dst, a, b, trans, i0, i1, ep, packedB);
    });
}

void
Gemm::multiply(Matrix &dst, const QuantizedMatrix &a,
               const QuantizedMatrix &b, Trans trans)
{
    multiply(dst, a, b, trans, Epilogue{}, active());
}

void
Gemm::multiply(Matrix &dst, const QuantizedMatrix &a,
               const QuantizedMatrix &b, Trans trans,
               const Epilogue &epilogue)
{
    multiply(dst, a, b, trans, epilogue, active());
}

void
Gemm::multiply(Matrix &dst, const QuantizedMatrix &a,
               const QuantizedMatrix &b, Trans trans,
               const Epilogue &epilogue, Backend backend)
{
    multiplyImplInt8(dst, a, b, trans, epilogue, backend, nullptr,
                     nullptr);
}

void
Gemm::multiply(Matrix &dst, const QuantizedMatrix &a,
               const PackedMatrix &b, Trans transA,
               const Epilogue &epilogue)
{
    multiply(dst, a, b, transA, epilogue, active());
}

void
Gemm::multiply(Matrix &dst, const QuantizedMatrix &a,
               const PackedMatrix &b, Trans transA,
               const Epilogue &epilogue, Backend backend)
{
    if (!b.hasInt8()) {
        throw std::invalid_argument(
            "gemm: PackedMatrix holds no int8 panels (packInt8 was "
            "never called)");
    }
    multiplyImplInt8(dst, a, *b.sourceInt8(),
                     combinePackedTrans(b.trans(), transA), epilogue,
                     backend, b.int8Panels(), b.wsum());
}

void
Gemm::multiplyImplInt8(Matrix &dst, const QuantizedMatrix &a,
                       const QuantizedMatrix &b, Trans trans,
                       const Epilogue &ep, Backend backend,
                       const int8_t *packedB, const int32_t *packedWsum)
{
    if (!available(backend)) {
        throw std::invalid_argument(
            strfmt("gemm: backend %s is not available on this host",
                   backendName(backend)));
    }
    // The integer core's saturation-freedom and zero-point algebra
    // assume A in the [0, 127] activation domain and B symmetric with
    // zero point 0; a per-row quantized A under Trans::A would hand
    // column identities per-row parameters.
    if (a.kind() != QuantizedMatrix::Kind::ActivationU7) {
        throw std::invalid_argument(
            "gemm: quantized multiply needs an ActivationU7 first "
            "operand (see gemm.h, INT8 quantized path)");
    }
    if (b.kind() != QuantizedMatrix::Kind::WeightS8) {
        throw std::invalid_argument(
            "gemm: quantized multiply needs a WeightS8 second operand "
            "(see gemm.h, INT8 quantized path)");
    }
    if (trans == Trans::A &&
        a.granularity() == QuantizedMatrix::Granularity::PerRow) {
        throw std::invalid_argument(
            "gemm: per-row quantized A cannot be used with Trans::A "
            "(the transpose reassigns row identities)");
    }
    const GemmDims dims = checkedDims(a, b, trans);
    if (dims.k > kMaxQuantDepth) {
        throw std::invalid_argument(
            strfmt("gemm: quantized depth k=%zu exceeds the int32-exact "
                   "limit %zu",
                   dims.k, kMaxQuantDepth));
    }
    validateEpilogue(dst, dims, ep);
    // Integer operands cannot hold NaN/Inf; the float-side contracts
    // still apply to the epilogue inputs.
    VITALITY_DCHECK(!ep.bias ||
                        check::allFinite(ep.bias->data(), ep.bias->size()),
                    "gemm(int8): non-finite epilogue bias");
    VITALITY_DCHECK(!ep.accumulate ||
                        check::allFinite(dst.data(), dst.size()),
                    "gemm(int8): accumulate into non-finite dst");
    if (!ep.accumulate)
        dst.resize(dims.m, dims.n);
    if (dims.m == 0 || dims.n == 0)
        return;
    if (dims.k == 0) {
        // The product is all zeros; the epilogue still applies to it.
        if (ep.trivial()) {
            dst.fill(0.0f);
            return;
        }
        Workspace::Frame frame(t_scalarArena);
        const Matrix &zeros = t_scalarArena.acquireZeroed(1, dims.n);
        for (size_t i = 0; i < dims.m; ++i)
            epilogueApplyRow(dst.rowPtr(i), zeros.rowPtr(0), dims.n, ep);
        return;
    }

    // Per-column sums of op(B), shared by every band: the zero-point
    // correction term za_i * wsum_j (gemm.h). A prepacked RHS carries
    // them from pack time (identical integers — exact sums); otherwise
    // they are computed per call into a thread-local, read-only once
    // filled, so the band closures may alias it freely.
    const int32_t *wsum = packedWsum;
    static thread_local std::vector<int32_t> t_wsum;
    if (!wsum) {
        t_wsum.resize(dims.n);
        int32_t *ws = t_wsum.data();
        if (trans == Trans::B) {
            // op(B)(kk, j) = b(j, kk): column sums are b's row sums.
            for (size_t j = 0; j < dims.n; ++j) {
                const int8_t *brow = b.rowPtr(j);
                int32_t s = 0;
                for (size_t kk = 0; kk < dims.k; ++kk)
                    s += brow[kk];
                ws[j] = s;
            }
        } else {
            std::fill(ws, ws + dims.n, 0);
            for (size_t kk = 0; kk < dims.k; ++kk) {
                const int8_t *brow = b.rowPtr(kk);
                for (size_t j = 0; j < dims.n; ++j)
                    ws[j] += brow[j];
            }
        }
        wsum = ws;
    }

    std::shared_ptr<const ParallelRunner> runner;
    if (dims.m > kQuantBandRows &&
        2ull * dims.m * dims.n * dims.k >= 2 * kMinFlopsPerBand)
        runner = parallelRunner();
    const size_t bands =
        runner ? chooseBands(dims, runner, kQuantBandRows) : 1;
    if (bands <= 1) {
        runBackendInt8(backend, dst, a, b, trans, 0, dims.m, wsum, ep,
                       packedB);
        return;
    }
    // Bands partition the output rows and integer accumulation is
    // exact, so results are bitwise-identical at any band count.
    const size_t panels =
        (dims.m + kQuantBandRows - 1) / kQuantBandRows;
    runner->run(bands, [&](size_t band) {
        const size_t p0 = panels * band / bands;
        const size_t p1 = panels * (band + 1) / bands;
        const size_t i0 = p0 * kQuantBandRows;
        const size_t i1 = std::min(p1 * kQuantBandRows, dims.m);
        if (i0 < i1)
            runBackendInt8(backend, dst, a, b, trans, i0, i1, wsum, ep,
                           packedB);
    });
}

Gemm::Backend
Gemm::active()
{
    int cur = g_active.load(std::memory_order_acquire);
    if (cur < 0) {
        const Backend resolved = resolveDefault();
        // Several threads may race the first resolution; they all
        // compute the same value, so the first store wins harmlessly.
        int expected = -1;
        g_active.compare_exchange_strong(expected,
                                         static_cast<int>(resolved),
                                         std::memory_order_acq_rel);
        cur = g_active.load(std::memory_order_acquire);
    }
    return static_cast<Backend>(cur);
}

void
Gemm::setActive(Backend backend)
{
    if (!available(backend)) {
        throw std::invalid_argument(
            strfmt("gemm: backend %s is not available on this host",
                   backendName(backend)));
    }
    g_active.store(static_cast<int>(backend), std::memory_order_release);
}

bool
Gemm::available(Backend backend)
{
    switch (backend) {
    case Backend::Scalar:
        return true;
    case Backend::Avx2:
        return cpuHasAvx2Fma();
    }
    return false;
}

const char *
Gemm::backendName(Backend backend)
{
    switch (backend) {
    case Backend::Scalar:
        return "scalar";
    case Backend::Avx2:
        return "avx2";
    }
    return "unknown";
}

std::optional<Gemm::Backend>
Gemm::parseBackend(const std::string &name)
{
    if (name == "scalar")
        return Backend::Scalar;
    if (name == "avx2")
        return Backend::Avx2;
    return std::nullopt;
}

void
Gemm::setParallelRunner(std::shared_ptr<const ParallelRunner> runner)
{
    if (runner && (!runner->width || !runner->run)) {
        throw std::invalid_argument(
            "gemm: parallel runner needs both width and run callbacks");
    }
    std::lock_guard<std::mutex> lock(g_runnerMutex);
    g_runner = std::move(runner);
}

std::shared_ptr<const Gemm::ParallelRunner>
Gemm::parallelRunner()
{
    std::lock_guard<std::mutex> lock(g_runnerMutex);
    return g_runner;
}

void
Gemm::setMaxThreads(size_t cap)
{
    g_maxThreads.store(static_cast<long>(cap),
                       std::memory_order_release);
}

size_t
Gemm::maxThreads()
{
    long cur = g_maxThreads.load(std::memory_order_acquire);
    if (cur < 0) {
        const long resolved = resolveMaxThreads();
        long expected = -2;
        g_maxThreads.compare_exchange_strong(expected, resolved,
                                             std::memory_order_acq_rel);
        cur = g_maxThreads.load(std::memory_order_acquire);
    }
    return static_cast<size_t>(cur);
}

size_t
Gemm::parallelWidth()
{
    const std::shared_ptr<const ParallelRunner> runner = parallelRunner();
    if (!runner)
        return 1;
    size_t width = runner->width();
    const size_t cap = maxThreads();
    if (cap)
        width = std::min(width, cap);
    return std::max<size_t>(1, width);
}

Gemm::QuantMode
Gemm::quantMode()
{
    int cur = g_quantMode.load(std::memory_order_acquire);
    if (cur < 0) {
        int resolved = static_cast<int>(QuantMode::Off);
        const char *env = std::getenv("VITALITY_QUANT");
        if (env && *env) {
            const std::optional<QuantMode> wanted = parseQuantMode(env);
            if (wanted) {
                resolved = static_cast<int>(*wanted);
            } else {
                warn("VITALITY_QUANT=%s not recognized (want off|int8); "
                     "using off",
                     env);
            }
        }
        int expected = -1;
        g_quantMode.compare_exchange_strong(expected, resolved,
                                            std::memory_order_acq_rel);
        cur = g_quantMode.load(std::memory_order_acquire);
    }
    return static_cast<QuantMode>(cur);
}

void
Gemm::setQuantMode(QuantMode mode)
{
    g_quantMode.store(static_cast<int>(mode), std::memory_order_release);
}

const char *
Gemm::quantModeName(QuantMode mode)
{
    switch (mode) {
    case QuantMode::Off:
        return "off";
    case QuantMode::Int8:
        return "int8";
    }
    return "unknown";
}

std::optional<Gemm::QuantMode>
Gemm::parseQuantMode(const std::string &name)
{
    if (name == "off")
        return QuantMode::Off;
    if (name == "int8")
        return QuantMode::Int8;
    return std::nullopt;
}

} // namespace vitality
