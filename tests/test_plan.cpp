/**
 * @file
 * Compiled-plan suite: PackedMatrix / prepacked-GEMM parity, the
 * EncoderPlan compile step, and planned VitEncoder execution.
 *
 * Every forward runs through a plan, so the assertions here pin down
 * how a plan comes to exist and that none of those routes changes a
 * float: the one-image forwardInto is BITWISE-identical to image 0 of
 * a one-image forwardRaggedInto (for every kernel in the zoo, fp32 and
 * int8, on one worker and on three); an encoder nobody compiled
 * compiles the default plan on its first forward and matches an
 * explicit compilePlan(); and the precision is frozen at compile — an
 * int8 plan holds only int8 panels and ignores later changes of the
 * quant knob until it is recompiled. The prepacked weight panels are the same bytes the per-call pack loop
 * would have produced and the scalar backend runs an unpack-free
 * reference path, so "prepacked" never means "different floats".
 *
 * Heterogeneous schedules are cross-checked against ground truth:
 * kernel construction is deterministic, so a Taylor encoder planned
 * with an all-Softmax schedule must match a Softmax encoder built
 * from the same seed exactly.
 */

#include <stdexcept>
#include <vector>

#include "alloc_tracker.h"
#include "attention/zoo.h"
#include "base/rng.h"
#include "model/encoder_plan.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/packed_weights.h"
#include "tensor/quantized_matrix.h"
#include "tensor/ragged_batch.h"
#include "testing.h"

using namespace vitality;

namespace {

/** Restores the quant mode on scope exit. */
struct QuantGuard
{
    Gemm::QuantMode prev = Gemm::quantMode();
    ~QuantGuard() { Gemm::setQuantMode(prev); }
};

VitConfig
planConfig()
{
    VitConfig cfg;
    cfg.name = "plan-tiny";
    cfg.layers = 4;
    cfg.heads = 2;
    cfg.dModel = 32;
    cfg.tokens = 24;
    cfg.mlpHidden = 64;
    return cfg;
}

std::vector<Gemm::Backend>
availableBackends()
{
    std::vector<Gemm::Backend> out{Gemm::Backend::Scalar};
    if (Gemm::available(Gemm::Backend::Avx2))
        out.push_back(Gemm::Backend::Avx2);
    return out;
}

/** Prepacked fp32 GEMM is bitwise-identical to eager on every
 * backend, across epilogues and both bakeable trans forms. */
void
testPackedGemmFp32Parity()
{
    Rng rng(7);
    const size_t m = 13, k = 37, n = 25;
    const Matrix a = Matrix::randn(m, k, rng);
    const Matrix b = Matrix::randn(k, n, rng);
    const Matrix bt = Matrix::randn(n, k, rng); // op(B) via Trans::B
    const Matrix at = Matrix::randn(k, m, rng); // op(A) via Trans::A
    const Matrix bias = Matrix::randn(1, n, rng);
    const Matrix seed = Matrix::randn(m, n, rng);

    PackedMatrix pb;
    pb.packFp32(b);
    PackedMatrix pbt;
    pbt.packFp32(bt, Gemm::Trans::B);
    T_CHECK(pb.hasFp32() && !pb.hasInt8());
    T_CHECK(pb.kDim() == k && pb.nDim() == n);
    T_CHECK(pb.packedBytes() > 0);

    const std::vector<Gemm::Epilogue> epilogues{
        Gemm::Epilogue{}, Gemm::Epilogue::withBias(bias),
        Gemm::Epilogue::withBiasGelu(bias),
        Gemm::Epilogue::accumulateWithBias(bias)};

    for (Gemm::Backend backend : availableBackends()) {
        for (const Gemm::Epilogue &epi : epilogues) {
            Matrix eager = seed, packed = seed;
            Gemm::multiply(eager, a, b, Gemm::Trans::None, epi, backend);
            Gemm::multiply(packed, a, pb, Gemm::Trans::None, epi,
                           backend);
            T_CHECK(eager == packed);
        }
        // op(B) baked at pack time.
        Matrix eager, packed;
        Gemm::multiply(eager, a, bt, Gemm::Trans::B, Gemm::Epilogue{},
                       backend);
        Gemm::multiply(packed, a, pbt, Gemm::Trans::None,
                       Gemm::Epilogue{}, backend);
        T_CHECK(eager == packed);
        // transA against an unbaked pack.
        Gemm::multiply(eager, at, b, Gemm::Trans::A, Gemm::Epilogue{},
                       backend);
        Gemm::multiply(packed, at, pb, Gemm::Trans::A, Gemm::Epilogue{},
                       backend);
        T_CHECK(eager == packed);
    }

    // Inexpressible trans combinations and kind mismatches throw.
    Matrix dst;
    T_CHECK_THROWS(Gemm::multiply(dst, a, pb, Gemm::Trans::B,
                                  Gemm::Epilogue{}),
                   std::invalid_argument);
    T_CHECK_THROWS(Gemm::multiply(dst, at, pbt, Gemm::Trans::A,
                                  Gemm::Epilogue{}),
                   std::invalid_argument);
    PackedMatrix empty;
    T_CHECK_THROWS(Gemm::multiply(dst, a, empty, Gemm::Trans::None,
                                  Gemm::Epilogue{}),
                   std::invalid_argument);
}

/** Prepacked int8 GEMM (panels + pack-time weight sums) is
 * bitwise-identical to the eager quantized multiply. */
void
testPackedGemmInt8Parity()
{
    Rng rng(11);
    const size_t m = 9, k = 40, n = 21;
    const Matrix a = Matrix::randn(m, k, rng);
    const Matrix b = Matrix::randn(k, n, rng);
    const Matrix bias = Matrix::randn(1, n, rng);

    QuantizedMatrix qa;
    qa.assignActivations(a);
    QuantizedMatrix qb;
    qb.assignWeights(b);

    PackedMatrix pb;
    pb.packInt8(qb);
    T_CHECK(pb.hasInt8() && !pb.hasFp32());

    for (Gemm::Backend backend : availableBackends()) {
        Matrix eager, packed;
        Gemm::multiply(eager, qa, qb, Gemm::Trans::None,
                       Gemm::Epilogue::withBias(bias), backend);
        Gemm::multiply(packed, qa, pb, Gemm::Trans::None,
                       Gemm::Epilogue::withBias(bias), backend);
        T_CHECK(eager == packed);
    }

    // A dual-precision pack must agree on op(B)'s shape, and int8
    // packing is weights-only.
    PackedMatrix dual;
    dual.packFp32(b);
    dual.packInt8(qb);
    T_CHECK(dual.hasFp32() && dual.hasInt8());
    Rng rng2(3);
    const Matrix other = Matrix::randn(k + 1, n, rng2);
    PackedMatrix mismatch;
    mismatch.packFp32(other);
    T_CHECK_THROWS(mismatch.packInt8(qb), std::invalid_argument);
    T_CHECK_THROWS(PackedMatrix().packInt8(qa), std::invalid_argument);
}

/** Run both forward entry points of an encoder pair and assert
 * bitwise parity between them. */
void
checkEncoderParity(VitEncoder &ref, VitEncoder &planned,
                   ThreadPool &pool)
{
    const VitConfig &cfg = ref.config();
    Rng rng(0xabc);
    const Matrix x =
        Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f);
    T_CHECK(ref.forward(x, pool) == planned.forward(x, pool));

    RaggedBatch rx;
    const size_t rows[2] = {cfg.tokens, cfg.tokens - 5};
    rx.resize(rows, 2, cfg.dModel);
    rx.buffer().copyFrom(
        Matrix::randn(rx.totalRows(), cfg.dModel, rng, 0.0f, 1.0f));
    T_CHECK(ref.forwardRagged(rx, pool) ==
            planned.forwardRagged(rx, pool));
}

/** forwardInto(x) is image 0 of forwardRaggedInto on a one-image
 * batch, bitwise: every zoo kernel x {fp32, int8} x keep {1.0, 0.5},
 * on one worker and on three. */
void
testWrapperMatchesRaggedForward()
{
    for (const size_t workers : {1, 3}) {
        ThreadPool pool(workers);
        for (AttentionType type : allAttentionTypes()) {
            for (const bool int8 : {false, true}) {
                QuantGuard guard;
                Gemm::setQuantMode(int8 ? Gemm::QuantMode::Int8
                                        : Gemm::QuantMode::Off);
                for (const float keep : {1.0f, 0.5f}) {
                    const VitConfig cfg = planConfig().withTokenKeep(keep);
                    VitEncoder enc(cfg, makeAttention(type), 42);
                    Rng rng(0xabd);
                    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel,
                                                   rng, 0.0f, 1.0f);
                    const Matrix *ptr = &x;
                    const RaggedBatch rx = RaggedBatch::fromMatrices(&ptr, 1);
                    RaggedBatch ry;
                    enc.forwardRaggedInto(rx, pool, ry);
                    Matrix want, got;
                    ry.unpackImage(0, want);
                    enc.forwardInto(x, pool, got);
                    T_CHECK(got == want);
                }
            }
        }
    }
}

/** An encoder nobody compiled compiles the default plan on its first
 * forward — through either entry point — and computes exactly what an
 * explicitly compiled twin computes. */
void
testFirstForwardCompilesDefaultPlan()
{
    const VitConfig cfg = planConfig();
    Rng rng(0xabe);
    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f);
    const Matrix *ptr = &x;
    const RaggedBatch rx = RaggedBatch::fromMatrices(&ptr, 1);
    for (const size_t workers : {1, 3}) {
        ThreadPool pool(workers);
        for (AttentionType type :
             {AttentionType::Taylor, AttentionType::Softmax}) {
            VitEncoder compiled(cfg, makeAttention(type), 42);
            compiled.compilePlan();
            const Matrix want = compiled.forward(x, pool);

            VitEncoder lazy(cfg, makeAttention(type), 42);
            T_CHECK(lazy.plan() == nullptr);
            T_CHECK(lazy.forward(x, pool) == want);
            T_CHECK(lazy.plan() != nullptr && lazy.plan()->uniform());
            T_CHECK(lazy.plan()->maxBatch() == 1);

            VitEncoder lazyRagged(cfg, makeAttention(type), 42);
            Matrix got;
            lazyRagged.forwardRagged(rx, pool).unpackImage(0, got);
            T_CHECK(lazyRagged.plan() != nullptr);
            T_CHECK(got == want);
        }
    }
}

/** A plan freezes the precision the quant knob names when it compiles:
 * flipping the knob afterwards changes neither hasInt8() nor a float,
 * and compilePlan() re-reads it. */
void
testPrecisionFrozenAtCompile()
{
    const VitConfig cfg = planConfig();
    Rng rng(0xabf);
    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f);
    for (const size_t workers : {1, 3}) {
        ThreadPool pool(workers);
        QuantGuard guard;
        VitEncoder fp32Twin(cfg, makeAttention(AttentionType::Taylor), 42);
        PlanOptions fp32Opts;
        fp32Opts.packInt8 = false;
        fp32Twin.compilePlan(fp32Opts);
        const Matrix fp32 = fp32Twin.forward(x, pool);

        Gemm::setQuantMode(Gemm::QuantMode::Int8);
        VitEncoder enc(cfg, makeAttention(AttentionType::Taylor), 42);
        enc.compilePlan();
        T_CHECK(enc.plan()->hasInt8());
        const Matrix int8 = enc.forward(x, pool);
        T_CHECK(int8 != fp32);

        Gemm::setQuantMode(Gemm::QuantMode::Off);
        T_CHECK(enc.plan()->hasInt8());
        T_CHECK(enc.forward(x, pool) == int8);

        enc.compilePlan(); // re-reads the knob: now fp32
        T_CHECK(!enc.plan()->hasInt8());
        T_CHECK(enc.forward(x, pool) == fp32);

        Gemm::setQuantMode(Gemm::QuantMode::Int8);
        enc.compilePlan();
        T_CHECK(enc.plan()->hasInt8());
        T_CHECK(enc.forward(x, pool) == int8);
    }
}

/** An explicit packInt8 beats the ambient knob both ways. */
void
testExplicitPrecisionBeatsKnob()
{
    const VitConfig cfg = planConfig();
    Rng rng(0xac0);
    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f);
    ThreadPool pool(2);
    QuantGuard guard;

    Gemm::setQuantMode(Gemm::QuantMode::Off);
    VitEncoder fp32Ref(cfg, makeAttention(AttentionType::Softmax), 7);
    fp32Ref.compilePlan();
    Gemm::setQuantMode(Gemm::QuantMode::Int8);
    VitEncoder int8Ref(cfg, makeAttention(AttentionType::Softmax), 7);
    int8Ref.compilePlan();

    // Ambient int8, explicit fp32.
    VitEncoder pinnedFp32(cfg, makeAttention(AttentionType::Softmax), 7);
    PlanOptions opts;
    opts.packInt8 = false;
    pinnedFp32.compilePlan(opts);
    T_CHECK(!pinnedFp32.plan()->hasInt8());
    T_CHECK(pinnedFp32.forward(x, pool) == fp32Ref.forward(x, pool));

    // Ambient off, explicit int8.
    Gemm::setQuantMode(Gemm::QuantMode::Off);
    VitEncoder pinnedInt8(cfg, makeAttention(AttentionType::Softmax), 7);
    opts.packInt8 = true;
    pinnedInt8.compilePlan(opts);
    T_CHECK(pinnedInt8.plan()->hasInt8());
    T_CHECK(pinnedInt8.forward(x, pool) == int8Ref.forward(x, pool));
}

/** A plan packs one precision: its packedBytes() is exactly the sum of
 * that precision's panels for the six dense weights of every layer. */
void
testPlanPacksOnePrecision()
{
    const VitConfig cfg = planConfig();
    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    size_t fp32Bytes = 0, int8Bytes = 0;
    for (size_t l = 0; l < cfg.layers; ++l) {
        const VitEncoder::LayerWeights &w = enc.layer(l);
        for (const Matrix *m : {&w.wq, &w.wk, &w.wv, &w.wo, &w.w1, &w.w2}) {
            PackedMatrix fp32;
            fp32.packFp32(*m);
            fp32Bytes += fp32.packedBytes();
            QuantizedMatrix q;
            q.assignWeights(*m);
            PackedMatrix int8;
            int8.packInt8(q);
            int8Bytes += int8.packedBytes();
        }
    }
    PlanOptions opts;
    opts.packInt8 = true;
    enc.compilePlan(opts);
    T_CHECK(enc.plan()->packedBytes() == int8Bytes);
    for (size_t l = 0; l < cfg.layers; ++l)
        T_CHECK(!enc.plan()->pack(l).w1.hasFp32() &&
                enc.plan()->pack(l).w1.hasInt8());
    opts.packInt8 = false;
    enc.compilePlan(opts);
    T_CHECK(enc.plan()->packedBytes() == fp32Bytes);
    T_CHECK(int8Bytes < fp32Bytes);
}

/** An all-Softmax schedule over a Taylor encoder computes exactly
 * what a Softmax encoder from the same seed computes. */
void
testHeteroScheduleExecution()
{
    ThreadPool pool(2);
    const VitConfig cfg = planConfig();
    VitEncoder softmax(cfg, makeAttention(AttentionType::Softmax), 42);
    PlanOptions uniform;
    uniform.layerKernels = std::string(); // shut out VITALITY_LAYERS
    softmax.compilePlan(uniform);
    VitEncoder planned(cfg, makeAttention(AttentionType::Taylor), 42);
    PlanOptions opts;
    opts.layerKernels = "softmax:0-3";
    opts.maxBatch = 2;
    planned.compilePlan(opts);
    T_CHECK(!planned.plan()->uniform());
    checkEncoderParity(softmax, planned, pool);

    // A genuinely mixed schedule runs end to end and respects the
    // per-layer specs.
    VitEncoder mixed(cfg, makeAttention(AttentionType::Taylor), 42);
    VitConfig mixedCfg = cfg;
    mixedCfg.layerKernels = "softmax:2-3";
    VitEncoder mixed2(mixedCfg, makeAttention(AttentionType::Taylor),
                      42);
    PlanOptions mixedOpts;
    mixedOpts.layerKernels = "softmax:2-3";
    mixed.compilePlan(mixedOpts);
    mixed2.compilePlan(); // schedule from its config
    T_CHECK(mixed.plan()->spec(0).kernel == AttentionType::Taylor);
    T_CHECK(mixed.plan()->spec(2).kernel == AttentionType::Softmax);
    Rng rng(5);
    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel, rng);
    T_CHECK(mixed.forward(x, pool) == mixed2.forward(x, pool));

    // Recompiling with a pinned-uniform schedule returns every layer
    // to the encoder's own kernel.
    VitEncoder taylor(cfg, makeAttention(AttentionType::Taylor), 42);
    taylor.compilePlan(uniform);
    mixed.compilePlan(uniform);
    T_CHECK(mixed.plan()->uniform());
    T_CHECK(mixed.forward(x, pool) == taylor.forward(x, pool));
}

/** Malformed schedules are rejected everywhere they can enter, and a
 * throwing compile leaves the previous plan attached. */
void
testScheduleValidation()
{
    T_CHECK_THROWS(parseLayerSchedule("taylor"), std::invalid_argument);
    T_CHECK_THROWS(parseLayerSchedule("nope:0-3"),
                   std::invalid_argument);
    T_CHECK_THROWS(parseLayerSchedule("taylor:3-1"),
                   std::invalid_argument);
    T_CHECK_THROWS(parseLayerSchedule("taylor:x"),
                   std::invalid_argument);
    T_CHECK_THROWS(
        expandLayerSchedule("taylor:0-12", 12, AttentionType::Taylor),
        std::invalid_argument);
    T_CHECK_THROWS(expandLayerSchedule("taylor:0-3,softmax:3-5", 12,
                                       AttentionType::Taylor),
                   std::invalid_argument);
    const std::vector<AttentionType> sched = expandLayerSchedule(
        "SOFTMAX:1,linformer:3-4", 6, AttentionType::Taylor);
    T_CHECK(sched[0] == AttentionType::Taylor);
    T_CHECK(sched[1] == AttentionType::Softmax);
    T_CHECK(sched[3] == AttentionType::Linformer);
    T_CHECK(sched[5] == AttentionType::Taylor);

    VitConfig bad = planConfig();
    bad.layerKernels = "softmax:0-99";
    T_CHECK_THROWS(bad.validate(), std::invalid_argument);
    T_CHECK_THROWS(setLayerKernelSchedule("bogus"),
                   std::invalid_argument);
    T_CHECK(!parseLayerKernels("also bogus"));
    T_CHECK(parseLayerKernels("taylor:0-3").has_value());

    const VitConfig cfg = planConfig();
    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    enc.compilePlan();
    const EncoderPlan *before = enc.plan();
    PlanOptions badOpts;
    badOpts.layerKernels = "softmax:0-99";
    T_CHECK_THROWS(enc.compilePlan(badOpts), std::invalid_argument);
    T_CHECK(enc.plan() == before);
    PlanOptions smallTokens;
    smallTokens.maxTokens = cfg.tokens - 1;
    T_CHECK_THROWS(enc.compilePlan(smallTokens), std::invalid_argument);

    // The ambient knob must not veto models shallower than it was
    // written for: a process-global schedule naming layers this config
    // does not have compiles a uniform plan (with a warning) instead
    // of throwing. An engaged-but-empty PlanOptions schedule pins
    // uniform explicitly, shutting the knob out entirely.
    setLayerKernelSchedule("softmax:0-11"); // planConfig has 4 layers
    enc.compilePlan();
    T_CHECK(enc.plan() != nullptr && enc.plan()->uniform());
    setLayerKernelSchedule("softmax:0-3"); // fits: knob applies...
    enc.compilePlan();
    T_CHECK(!enc.plan()->uniform());
    PlanOptions pinned; // ...unless the options pin uniform
    pinned.layerKernels = std::string();
    enc.compilePlan(pinned);
    T_CHECK(enc.plan()->uniform());
    setLayerKernelSchedule("");
}

/** Planned forwardRagged allocates nothing once warm: the workspace
 * was pre-grown at compile time and no per-call packing remains. */
void
testPlannedRaggedZeroAlloc()
{
    const VitConfig cfg = planConfig();
    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    PlanOptions opts;
    opts.maxBatch = 2;
    enc.compilePlan(opts);

    ThreadPool pool(1);
    Rng rng(9);
    RaggedBatch x, out;
    const size_t rows[2] = {cfg.tokens, cfg.tokens - 7};
    x.resize(rows, 2, cfg.dModel);
    x.buffer().copyFrom(
        Matrix::randn(x.totalRows(), cfg.dModel, rng, 0.0f, 1.0f));

    enc.forwardRaggedInto(x, pool, out);
    enc.forwardRaggedInto(x, pool, out);
    testing::AllocationProbe probe;
    enc.forwardRaggedInto(x, pool, out);
    T_CHECK(probe.allocations() == 0);
}

/** Plan introspection: packed byte counts and the summary line. */
void
testPlanIntrospection()
{
    const VitConfig cfg = planConfig();
    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    PlanOptions opts;
    opts.maxBatch = 4;
    opts.packInt8 = false;
    enc.compilePlan(opts);
    const EncoderPlan &plan = *enc.plan();
    T_CHECK(plan.layers() == cfg.layers);
    T_CHECK(plan.maxTokens() == cfg.tokens);
    T_CHECK(plan.maxBatch() == 4);
    // fp32 panels alone hold >= one float per weight element
    // (column-padded to the panel width), per layer: 4 d^2 + 2 d h.
    const size_t weightFloats =
        cfg.layers *
        (4 * cfg.dModel * cfg.dModel + 2 * cfg.dModel * cfg.mlpHidden);
    T_CHECK(plan.packedBytes() >= weightFloats * sizeof(float));
    T_CHECK(plan.workspaceFloats() ==
            4 * cfg.tokens * (6 * cfg.dModel + cfg.mlpHidden));
    T_CHECK(!plan.summary().empty());
}

} // namespace

int
main()
{
    testPackedGemmFp32Parity();
    testPackedGemmInt8Parity();
    testWrapperMatchesRaggedForward();
    testFirstForwardCompilesDefaultPlan();
    testPrecisionFrozenAtCompile();
    testExplicitPrecisionBeatsKnob();
    testPlanPacksOnePrecision();
    testHeteroScheduleExecution();
    testScheduleValidation();
    testPlannedRaggedZeroAlloc();
    testPlanIntrospection();
    return vitality::testing::finish("test_plan");
}
