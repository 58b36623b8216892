/**
 * @file
 * GEMM backend tests: exhaustive scalar-vs-AVX2 parity over ragged
 * shapes and every transpose mode against a float64 reference under the
 * documented tolerance (gemm.h), deep-K shapes through the AVX2 kc
 * cache-blocking, fused-epilogue bitwise parity against the unfused op
 * sequence for every {accumulate, bias, gelu} combination on both
 * backends (including K=3072), epilogue validation rules, dispatcher
 * plumbing (env parsing, availability, explicit-backend calls),
 * aliasing and zero-dimension rules, destination recycling, and
 * cross-backend parity of the whole batched multi-head forward.
 *
 * The AVX2 legs are skipped (with a notice) when the backend is not
 * available — scalar-only builds and non-AVX2 hosts still run the
 * scalar and plumbing checks, so the fallback is tested everywhere.
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "attention/zoo.h"
#include "base/rng.h"
#include "runtime/multi_head_attention.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/ragged_batch.h"
#include "testing.h"

using namespace vitality;

namespace {

bool
avx2Here()
{
    return Gemm::available(Gemm::Backend::Avx2);
}

/** op(A) element under the given transpose mode. */
float
opA(const Matrix &a, Gemm::Trans trans, size_t i, size_t kk)
{
    return trans == Gemm::Trans::A ? a(kk, i) : a(i, kk);
}

float
opB(const Matrix &b, Gemm::Trans trans, size_t kk, size_t j)
{
    return trans == Gemm::Trans::B ? b(j, kk) : b(kk, j);
}

/** Build the (A, B) operand pair whose op()-shapes are m x k and k x n. */
void
makeOperands(Matrix &a, Matrix &b, Gemm::Trans trans, size_t m, size_t n,
             size_t k, Rng &rng)
{
    a = trans == Gemm::Trans::A ? Matrix::randn(k, m, rng)
                                : Matrix::randn(m, k, rng);
    b = trans == Gemm::Trans::B ? Matrix::randn(n, k, rng)
                                : Matrix::randn(k, n, rng);
}

const char *
transName(Gemm::Trans trans)
{
    switch (trans) {
    case Gemm::Trans::None:
        return "AB";
    case Gemm::Trans::A:
        return "AtB";
    case Gemm::Trans::B:
        return "ABt";
    }
    return "?";
}

/**
 * Check one backend's result against the float64 reference under the
 * documented per-element bound |err| <= k * eps * sum_k |a| * |b| (see
 * gemm.h; the factor 2 leaves room for the reference's own rounding).
 * Returns the number of out-of-tolerance elements.
 */
size_t
checkAgainstRef(const Matrix &c, const Matrix &a, const Matrix &b,
                Gemm::Trans trans, size_t m, size_t n, size_t k)
{
    const float eps = std::numeric_limits<float>::epsilon();
    size_t bad = 0;
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double ref = 0.0, absdot = 0.0;
            for (size_t kk = 0; kk < k; ++kk) {
                const double av = opA(a, trans, i, kk);
                const double bv = opB(b, trans, kk, j);
                ref += av * bv;
                absdot += std::fabs(av * bv);
            }
            const double tol =
                2.0 * static_cast<double>(k + 1) * eps * absdot + 1e-7;
            if (std::fabs(c(i, j) - ref) > tol)
                ++bad;
        }
    }
    return bad;
}

void
testExhaustiveShapeParity()
{
    // Odd / ragged sizes straddle every microkernel boundary: below one
    // 6-row panel, below one 16-col panel, exact multiples, and the
    // DeiT token count 197 (= 12*16+5 cols, 32*6+5 rows).
    const std::vector<size_t> sizes = {1, 2, 3, 5, 8, 17, 64, 197};
    const std::vector<Gemm::Trans> modes = {
        Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B};

    Rng rng(0x6e44);
    Matrix a, b, cScalar, cAvx2;
    size_t combos = 0;
    for (Gemm::Trans trans : modes) {
        for (size_t m : sizes) {
            for (size_t n : sizes) {
                for (size_t k : sizes) {
                    makeOperands(a, b, trans, m, n, k, rng);
                    Gemm::multiply(cScalar, a, b, trans,
                                   Gemm::Backend::Scalar);
                    T_CHECK(cScalar.rows() == m && cScalar.cols() == n);
                    size_t bad =
                        checkAgainstRef(cScalar, a, b, trans, m, n, k);
                    if (bad != 0) {
                        std::printf(
                            "  scalar %s m=%zu n=%zu k=%zu: %zu elems "
                            "out of tolerance\n",
                            transName(trans), m, n, k, bad);
                        T_CHECK(bad == 0);
                    }
                    if (avx2Here()) {
                        Gemm::multiply(cAvx2, a, b, trans,
                                       Gemm::Backend::Avx2);
                        T_CHECK(cAvx2.rows() == m && cAvx2.cols() == n);
                        bad = checkAgainstRef(cAvx2, a, b, trans, m, n, k);
                        if (bad != 0) {
                            std::printf(
                                "  avx2 %s m=%zu n=%zu k=%zu: %zu elems "
                                "out of tolerance\n",
                                transName(trans), m, n, k, bad);
                            T_CHECK(bad == 0);
                        }
                    }
                    ++combos;
                }
            }
        }
    }
    std::printf("  %zu shape/transpose combos checked (avx2 %s)\n",
                combos, avx2Here() ? "on" : "absent, scalar only");
}

void
testDispatcherPlumbing()
{
    // Scalar is always available; the active backend is always valid.
    T_CHECK(Gemm::available(Gemm::Backend::Scalar));
    const Gemm::Backend act = Gemm::active();
    T_CHECK(act == Gemm::Backend::Scalar || act == Gemm::Backend::Avx2);
    T_CHECK(Gemm::available(act));

    T_CHECK(Gemm::parseBackend("scalar") == Gemm::Backend::Scalar);
    T_CHECK(Gemm::parseBackend("avx2") == Gemm::Backend::Avx2);
    T_CHECK(!Gemm::parseBackend("sse9").has_value());
    T_CHECK(!Gemm::parseBackend("").has_value());

    T_CHECK(std::string(Gemm::backendName(Gemm::Backend::Scalar)) ==
            "scalar");
    T_CHECK(std::string(Gemm::backendName(Gemm::Backend::Avx2)) == "avx2");

    // setActive round-trips, and restores cleanly.
    Gemm::setActive(Gemm::Backend::Scalar);
    T_CHECK(Gemm::active() == Gemm::Backend::Scalar);
    if (avx2Here()) {
        Gemm::setActive(Gemm::Backend::Avx2);
        T_CHECK(Gemm::active() == Gemm::Backend::Avx2);
    } else {
        // Explicitly requesting an unavailable backend throws rather
        // than silently running the wrong code.
        T_CHECK_THROWS(Gemm::setActive(Gemm::Backend::Avx2),
                       std::invalid_argument);
        Matrix d;
        const Matrix a = Matrix::ones(2, 2);
        T_CHECK_THROWS(Gemm::multiply(d, a, a, Gemm::Trans::None,
                                      Gemm::Backend::Avx2),
                       std::invalid_argument);
    }
    Gemm::setActive(act);
}

void
testAliasingAndShapeRules()
{
    Rng rng(0x11);
    Matrix a = Matrix::randn(5, 3, rng);
    Matrix b = Matrix::randn(3, 7, rng);

    // dst must not alias an input, in any transpose mode or wrapper.
    T_CHECK_THROWS(Gemm::multiply(a, a, b), std::invalid_argument);
    T_CHECK_THROWS(Gemm::multiply(b, a, b), std::invalid_argument);
    T_CHECK_THROWS(matmulInto(a, a, b), std::invalid_argument);
    Matrix bt = transpose(b);
    T_CHECK_THROWS(matmulBTInto(bt, a, bt), std::invalid_argument);
    Matrix at = transpose(a);
    T_CHECK_THROWS(matmulATInto(at, at, b), std::invalid_argument);

    // Shape mismatches throw for every mode.
    Matrix d;
    T_CHECK_THROWS(Gemm::multiply(d, a, a, Gemm::Trans::None),
                   std::invalid_argument);
    T_CHECK_THROWS(Gemm::multiply(d, a, b, Gemm::Trans::A),
                   std::invalid_argument);
    T_CHECK_THROWS(Gemm::multiply(d, a, b, Gemm::Trans::B),
                   std::invalid_argument);
}

void
testZeroDimsAndRecycling()
{
    Rng rng(0x22);
    Matrix d;

    // k = 0: a well-defined all-zero product.
    const Matrix a0(4, 0);
    const Matrix b0(0, 6);
    Gemm::multiply(d, a0, b0);
    T_CHECK(d.rows() == 4 && d.cols() == 6);
    T_CHECK(maxAbs(d) == 0.0f);

    // m = 0 / n = 0: empty results with the right shape.
    Gemm::multiply(d, Matrix(0, 3), Matrix(3, 5));
    T_CHECK(d.rows() == 0 && d.cols() == 5);
    Gemm::multiply(d, Matrix(3, 4), Matrix(4, 0));
    T_CHECK(d.rows() == 3 && d.cols() == 0);

    // The destination recycles across shape changes (larger, smaller,
    // ragged) and every fill is complete — no stale entries survive.
    Matrix big = Matrix::randn(33, 17, rng);
    Matrix small = Matrix::randn(17, 2, rng);
    Gemm::multiply(d, big, small);
    T_CHECK(d.rows() == 33 && d.cols() == 2);
    Matrix oneone = Matrix::full(1, 1, 3.0f);
    Gemm::multiply(d, oneone, oneone);
    T_CHECK(d.rows() == 1 && d.cols() == 1);
    T_CHECK_CLOSE(d(0, 0), 9.0f, 1e-6);
}

/**
 * Deep-K shapes drive the AVX2 backend through its kc cache-blocking
 * (chunks of 256): partial sums round-trip through float32 memory
 * between chunks, which is exact, so the documented tolerance against
 * the float64 reference must hold unchanged. K values straddle the
 * chunk boundary (256, 257, 517 = 2 chunks + remainder, 3072 = the
 * DeiT-Base MLP depth).
 */
void
testDeepKCacheBlocking()
{
    struct Shape
    {
        size_t m, n, k;
    };
    const std::vector<Shape> shapes = {
        {7, 17, 3072}, {19, 33, 517}, {64, 16, 256}, {6, 16, 257}};
    const std::vector<Gemm::Trans> modes = {
        Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B};

    Rng rng(0x6e55);
    Matrix a, b, c;
    for (const Shape &s : shapes) {
        for (Gemm::Trans trans : modes) {
            makeOperands(a, b, trans, s.m, s.n, s.k, rng);
            for (Gemm::Backend backend :
                 {Gemm::Backend::Scalar, Gemm::Backend::Avx2}) {
                if (backend == Gemm::Backend::Avx2 && !avx2Here())
                    continue;
                Gemm::multiply(c, a, b, trans, backend);
                const size_t bad =
                    checkAgainstRef(c, a, b, trans, s.m, s.n, s.k);
                if (bad != 0) {
                    std::printf("  %s %s m=%zu n=%zu k=%zu: %zu elems "
                                "out of tolerance\n",
                                Gemm::backendName(backend),
                                transName(trans), s.m, s.n, s.k, bad);
                    T_CHECK(bad == 0);
                }
            }
        }
    }
}

/**
 * Shapes with n far past the 256-column block width (and ragged block
 * edges) exercise the AVX2 backend's nc-blocking the way deep-k shapes
 * exercise its kc chunking; the blocking must be invisible in the
 * results. The n > 256 x k > 256 shape runs both blockings at once.
 */
void
testDeepNCacheBlocking()
{
    struct Shape
    {
        size_t m, n, k;
    };
    const std::vector<Shape> shapes = {
        {7, 3072, 64}, {19, 517, 33}, {6, 256, 16}, {17, 300, 8},
        {13, 516, 517}};
    const std::vector<Gemm::Trans> modes = {
        Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B};

    Rng rng(0x6e56);
    Matrix a, b, c;
    for (const Shape &s : shapes) {
        for (Gemm::Trans trans : modes) {
            makeOperands(a, b, trans, s.m, s.n, s.k, rng);
            for (Gemm::Backend backend :
                 {Gemm::Backend::Scalar, Gemm::Backend::Avx2}) {
                if (backend == Gemm::Backend::Avx2 && !avx2Here())
                    continue;
                Gemm::multiply(c, a, b, trans, backend);
                const size_t bad =
                    checkAgainstRef(c, a, b, trans, s.m, s.n, s.k);
                if (bad != 0) {
                    std::printf("  %s %s m=%zu n=%zu k=%zu: %zu elems "
                                "out of tolerance\n",
                                Gemm::backendName(backend),
                                transName(trans), s.m, s.n, s.k, bad);
                    T_CHECK(bad == 0);
                }
            }
        }
    }
}

/**
 * Apply ep to a finished plain product the way the separate op passes
 * would: bias pass, activation pass, residual add. The fused write-back
 * documents exactly this element order, so fused results must match
 * this reference bitwise on the same backend.
 */
void
unfusedReference(Matrix &dst, const Matrix &a, const Matrix &b,
                 Gemm::Trans trans, const Gemm::Epilogue &ep,
                 Gemm::Backend backend)
{
    Matrix product;
    Gemm::multiply(product, a, b, trans, backend);
    if (ep.bias)
        broadcastAddRowInto(product, product, *ep.bias);
    if (ep.act == Gemm::Epilogue::Act::Gelu)
        geluInto(product, product);
    if (ep.accumulate)
        addInto(dst, dst, product);
    else
        dst.copyFrom(product);
}

void
testFusedEpilogueParity()
{
    struct Shape
    {
        size_t m, n, k;
    };
    // Ragged shapes straddling every microkernel boundary, one exact
    // 6x16 tile, full 16-column tiles beside a ragged column edge (so
    // the AVX2 GELU's vector lanes and its scalar edge are both pinned
    // to geluInto), the attention shape, and a kc-blocked K=3072 (the
    // DeiT-Base MLP down-projection depth).
    const std::vector<Shape> shapes = {
        {1, 1, 1},     {5, 7, 3},      {6, 16, 64},   {7, 19, 5},
        {29, 61, 197}, {197, 64, 197}, {13, 35, 3072}};
    const std::vector<Gemm::Trans> modes = {
        Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B};

    Rng rng(0x6e66);
    Matrix a, b, fused, ref;
    size_t combos = 0;
    for (const Shape &s : shapes) {
        for (Gemm::Trans trans : modes) {
            makeOperands(a, b, trans, s.m, s.n, s.k, rng);
            const Matrix bias = Matrix::randn(1, s.n, rng);
            const Matrix init = Matrix::randn(s.m, s.n, rng);
            for (int acc = 0; acc < 2; ++acc) {
                for (int withBias = 0; withBias < 2; ++withBias) {
                    for (int withGelu = 0; withGelu < 2; ++withGelu) {
                        Gemm::Epilogue ep;
                        ep.accumulate = acc != 0;
                        ep.bias = withBias ? &bias : nullptr;
                        ep.act = withGelu ? Gemm::Epilogue::Act::Gelu
                                          : Gemm::Epilogue::Act::None;
                        for (Gemm::Backend backend :
                             {Gemm::Backend::Scalar,
                              Gemm::Backend::Avx2}) {
                            if (backend == Gemm::Backend::Avx2 &&
                                !avx2Here())
                                continue;
                            fused.copyFrom(init);
                            Gemm::multiply(fused, a, b, trans, ep,
                                           backend);
                            ref.copyFrom(init);
                            unfusedReference(ref, a, b, trans, ep,
                                             backend);
                            if (fused != ref) {
                                std::printf(
                                    "  %s %s m=%zu n=%zu k=%zu "
                                    "acc=%d bias=%d gelu=%d: fused != "
                                    "unfused (max diff %g)\n",
                                    Gemm::backendName(backend),
                                    transName(trans), s.m, s.n, s.k,
                                    acc, withBias, withGelu,
                                    static_cast<double>(
                                        maxAbsDiff(fused, ref)));
                                T_CHECK(fused == ref);
                            }
                            ++combos;
                        }
                    }
                }
            }
        }
    }
    std::printf("  %zu fused-epilogue combos checked (avx2 %s)\n", combos,
                avx2Here() ? "on" : "absent, scalar only");
}

void
testEpilogueValidation()
{
    Rng rng(0x6e77);
    const Matrix a = Matrix::randn(5, 3, rng);
    const Matrix b = Matrix::randn(3, 7, rng);
    Matrix d;

    // Bias must be a 1 x n row vector.
    const Matrix badBias = Matrix::randn(1, 6, rng);
    T_CHECK_THROWS(Gemm::multiply(d, a, b, Gemm::Trans::None,
                                  Gemm::Epilogue::withBias(badBias)),
                   std::invalid_argument);
    const Matrix colBias = Matrix::randn(7, 1, rng);
    T_CHECK_THROWS(Gemm::multiply(d, a, b, Gemm::Trans::None,
                                  Gemm::Epilogue::withBias(colBias)),
                   std::invalid_argument);

    // Accumulate requires a preshaped destination: its contents are
    // inputs, so a silently resized dst would accumulate garbage.
    Matrix wrongShape = Matrix::randn(5, 6, rng);
    const Matrix goodBias = Matrix::randn(1, 7, rng);
    T_CHECK_THROWS(
        Gemm::multiply(wrongShape, a, b, Gemm::Trans::None,
                       Gemm::Epilogue::accumulateWithBias(goodBias)),
        std::invalid_argument);

    // Bias aliasing dst would be read while being overwritten.
    Matrix aliased = Matrix::randn(1, 7, rng);
    const Matrix arow = Matrix::randn(1, 3, rng);
    T_CHECK_THROWS(Gemm::multiply(aliased, arow, b, Gemm::Trans::None,
                                  Gemm::Epilogue::withBias(aliased)),
                   std::invalid_argument);

    // k = 0 with an epilogue: the product is all zeros, the epilogue
    // still applies (bias lands, accumulate preserves dst).
    const Matrix a0(4, 0);
    const Matrix b0(0, 7);
    Matrix acc0 = Matrix::randn(4, 7, rng);
    const Matrix before = acc0;
    Gemm::multiply(acc0, a0, b0, Gemm::Trans::None,
                   Gemm::Epilogue::accumulateWithBias(goodBias));
    T_CHECK(acc0 == add(before, broadcastAddRow(Matrix::zeros(4, 7),
                                                goodBias)));
}

/**
 * The acceptance-level check: the whole batched multi-head forward
 * agrees across backends. Each backend is deterministic; across
 * backends the attention outputs (convex combinations of V after
 * normalization) agree to 1e-3 max-abs-diff — far looser than observed,
 * far tighter than any real kernel bug.
 */
void
testMultiHeadCrossBackendParity()
{
    if (!avx2Here()) {
        std::printf("  avx2 unavailable; cross-backend batch parity "
                    "skipped\n");
        return;
    }
    const Gemm::Backend before = Gemm::active();
    ThreadPool pool;
    Rng rng(0x77);
    const size_t tokens = 197, heads = 6, dModel = 6 * 64, batchN = 3;
    const std::vector<size_t> rows(batchN, tokens);
    auto randomBatch = [&](float stddev) {
        RaggedBatch b;
        b.resize(rows.data(), batchN, dModel);
        b.buffer().copyFrom(
            Matrix::randn(b.totalRows(), dModel, rng, 0.0f, stddev));
        return b;
    };
    const RaggedBatch q = randomBatch(0.5f);
    const RaggedBatch k = randomBatch(0.5f);
    const RaggedBatch v = randomBatch(1.0f);

    for (AttentionType type : {AttentionType::Taylor,
                               AttentionType::Softmax,
                               AttentionType::Unified}) {
        MultiHeadAttention mha(makeAttention(type), heads);
        Gemm::setActive(Gemm::Backend::Scalar);
        const RaggedBatch outScalar = mha.forwardRagged(pool, q, k, v);
        Gemm::setActive(Gemm::Backend::Avx2);
        const RaggedBatch outAvx2 = mha.forwardRagged(pool, q, k, v);
        Matrix a, b;
        for (size_t i = 0; i < batchN; ++i) {
            outScalar.unpackImage(i, a);
            outAvx2.unpackImage(i, b);
            const float diff = maxAbsDiff(a, b);
            if (!(diff <= 1e-3f)) {
                std::printf("  %s image %zu: cross-backend diff %g\n",
                            attentionTypeName(type).c_str(), i,
                            static_cast<double>(diff));
                T_CHECK(diff <= 1e-3f);
            }
        }
        // Same backend twice is bitwise-identical (determinism).
        T_CHECK(mha.forwardRagged(pool, q, k, v) == outAvx2);
    }
    Gemm::setActive(before);
}

} // namespace

int
main()
{
    testExhaustiveShapeParity();
    testDispatcherPlumbing();
    testAliasingAndShapeRules();
    testZeroDimsAndRecycling();
    testDeepKCacheBlocking();
    testDeepNCacheBlocking();
    testFusedEpilogueParity();
    testEpilogueValidation();
    testMultiHeadCrossBackendParity();
    return vitality::testing::finish("test_gemm");
}
