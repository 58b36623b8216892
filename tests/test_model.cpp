/**
 * @file
 * Model-layer tests: DeiT presets, the DeiT-Tiny encoder end-to-end with
 * both the Taylor and softmax kernels, determinism, per-image parity of
 * the ragged batch path, the concurrent-call guard, a hand-rolled
 * unfused reference, and the model-level OpCounts rollup against the
 * per-head counts scaled by heads x layers.
 */

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attention/zoo.h"
#include "base/rng.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/ragged_batch.h"
#include "testing.h"

using namespace vitality;

namespace {

void
testPresets()
{
    const VitConfig tiny = VitConfig::deitTiny();
    T_CHECK(tiny.layers == 12 && tiny.heads == 3 && tiny.dModel == 192);
    T_CHECK(tiny.tokens == 197 && tiny.headDim() == 64);
    T_CHECK(VitConfig::deitSmall().headDim() == 64);
    T_CHECK(VitConfig::deitBase().headDim() == 64);
    T_CHECK(VitConfig::deitBase().mlpHidden == 4 * 768);
    tiny.validate();
}

/** B random images of tokens x cols, packed into one ragged batch. */
RaggedBatch
randomImages(size_t images, size_t tokens, size_t cols, Rng &rng)
{
    std::vector<Matrix> imgs;
    std::vector<const Matrix *> ptrs;
    for (size_t b = 0; b < images; ++b)
        imgs.push_back(Matrix::randn(tokens, cols, rng));
    for (const Matrix &m : imgs)
        ptrs.push_back(&m);
    return RaggedBatch::fromMatrices(ptrs.data(), ptrs.size());
}

/** Pin an all-1.0 keep schedule: VITALITY_TOKENS cannot prune it. */
VitConfig
unpruned(VitConfig cfg)
{
    cfg.tokenKeep.assign(cfg.layers, 1.0f);
    return cfg;
}

bool
allFinite(const Matrix &m)
{
    for (size_t i = 0; i < m.size(); ++i) {
        if (!std::isfinite(m.data()[i]))
            return false;
    }
    return true;
}

void
testDeitTinyEndToEnd()
{
    const VitConfig cfg = unpruned(VitConfig::deitTiny());
    Rng rng(0x3311);
    const Matrix x =
        Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f);
    ThreadPool pool(3);

    for (AttentionType type :
         {AttentionType::Taylor, AttentionType::Softmax}) {
        VitEncoder encoder(cfg, makeAttention(type), 0x1234);
        const Matrix y = encoder.forward(x, pool);
        T_CHECK(y.rows() == cfg.tokens && y.cols() == cfg.dModel);
        T_CHECK(allFinite(y));
        // Residual stream: output moves away from the input but is not
        // blown up by 12 layers of randomly initialized blocks.
        T_CHECK(maxAbsDiff(y, x) > 0.0f);
        T_CHECK(maxAbs(y) < 1e3f);

        // Determinism: same seed, same result, including recycled reruns.
        const Matrix y2 = encoder.forward(x, pool);
        T_CHECK(y == y2);
        VitEncoder twin(cfg, makeAttention(type), 0x1234);
        T_CHECK(twin.forward(x, pool) == y);
    }
}

void
testOpCountRollup()
{
    const VitConfig cfg = VitConfig::deitTiny();
    for (AttentionType type :
         {AttentionType::Taylor, AttentionType::Softmax,
          AttentionType::Unified}) {
        AttentionKernelPtr kernel = makeAttention(type);
        VitEncoder encoder(cfg, kernel, 0x5678);

        // The attention rollup is exactly per-head counts x H x L.
        const OpCounts per_head =
            kernel->opCounts(cfg.tokens, cfg.headDim());
        const uint64_t hl = cfg.heads * cfg.layers;
        const OpCounts rolled = encoder.attentionOpCounts();
        T_CHECK(rolled.mul == per_head.mul * hl);
        T_CHECK(rolled.add == per_head.add * hl);
        T_CHECK(rolled.div == per_head.div * hl);
        T_CHECK(rolled.exp == per_head.exp * hl);

        // Total = attention + dense, and dense is kernel-independent.
        const OpCounts total = encoder.opCounts();
        T_CHECK(total.mul ==
                rolled.mul + encoder.denseOpCounts().mul);
        T_CHECK(total.flops() > rolled.flops());
    }

    // Paper-scale sanity: Taylor attention at DeiT-Tiny is ~0.09 GFLOPs
    // model-wide vs ~0.36 GFLOPs for softmax (the 4x gap behind the
    // Table I linear-vs-quadratic accounting at n=197, d=64).
    VitEncoder taylor(cfg, makeAttention(AttentionType::Taylor), 1);
    VitEncoder softmax(cfg, makeAttention(AttentionType::Softmax), 1);
    const double t = static_cast<double>(
        taylor.attentionOpCounts().flops());
    const double s = static_cast<double>(
        softmax.attentionOpCounts().flops());
    T_CHECK(s / t > 2.5 && s / t < 6.0);
}

void
testEncoderRaggedMatchesPerImage()
{
    // A small config keeps the three-kernel sweep fast while exercising
    // the same code paths as the DeiT presets.
    const VitConfig cfg = unpruned({"Test-Small", 2, 3, 48, 19, 96, {}, {}});
    cfg.validate();
    Rng rng(0x3422);
    const RaggedBatch x = randomImages(3, cfg.tokens, cfg.dModel, rng);
    ThreadPool pool(4);

    for (AttentionType type :
         {AttentionType::Taylor, AttentionType::Softmax,
          AttentionType::Unified}) {
        VitEncoder encoder(cfg, makeAttention(type), 0x7777);
        const RaggedBatch y = encoder.forwardRagged(x, pool);
        T_CHECK(y.offsets() == x.offsets() && y.cols() == cfg.dModel);
        // Bitwise parity with per-image execution.
        Matrix img, want;
        for (size_t b = 0; b < x.size(); ++b) {
            x.unpackImage(b, img);
            y.unpackImage(b, want);
            T_CHECK(encoder.forward(img, pool) == want);
        }
        // Recycled rerun stays identical.
        T_CHECK(encoder.forwardRagged(x, pool) == y);
    }

    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor), 0x7777);
    const RaggedBatch empty;
    T_CHECK_THROWS(encoder.forwardRagged(empty, pool),
                   std::invalid_argument);
    const RaggedBatch wrong =
        randomImages(2, cfg.tokens, cfg.dModel + 1, rng);
    T_CHECK_THROWS(encoder.forwardRagged(wrong, pool),
                   std::invalid_argument);
    const Matrix wrongTokens = Matrix::randn(cfg.tokens + 1, cfg.dModel, rng);
    T_CHECK_THROWS(encoder.forward(wrongTokens, pool),
                   std::invalid_argument);
}

/**
 * A kernel whose forwardInto blocks until released, so the test can hold
 * one encoder forward in flight while probing the concurrent-call guard.
 */
class BlockingKernel : public AttentionKernel
{
  public:
    AttentionType type() const override { return AttentionType::Softmax; }
    std::string name() const override { return "Blocking"; }

    Matrix forward(const Matrix &, const Matrix &,
                   const Matrix &v) const override
    {
        return v;
    }

    void forwardInto(AttentionContext &, const Matrix &, const Matrix &,
                     const Matrix &v, Matrix &out) const override
    {
        std::unique_lock<std::mutex> lock(m);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
        out.copyFrom(v);
    }

    OpCounts opCounts(size_t, size_t) const override { return {}; }
    std::vector<ProcessorKind> processors() const override { return {}; }

    void waitEntered() const
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this] { return entered; });
    }

    void release() const
    {
        {
            std::lock_guard<std::mutex> lock(m);
            released = true;
        }
        cv.notify_all();
    }

  private:
    mutable std::mutex m;
    mutable std::condition_variable cv;
    mutable bool entered = false;
    mutable bool released = false;
};

void
testEncoderRejectsConcurrentCalls()
{
    // The encoder's activation buffers are per instance: a second
    // forward while one is in flight must be refused, not silently
    // corrupt them. The blocking kernel parks the first call inside the
    // attention phase of layer 0.
    const VitConfig cfg{"Test-Tiny", 1, 1, 8, 5, 16, {}, {}};
    auto kernel = std::make_shared<BlockingKernel>();
    VitEncoder encoder(cfg, kernel, 0x2222);
    ThreadPool pool(2);
    Rng rng(0x3455);
    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel, rng);
    const RaggedBatch xr = randomImages(2, cfg.tokens, cfg.dModel, rng);

    // The parked call is the one-image wrapper, which also compiles the
    // encoder's plan on this first forward.
    std::thread first([&] { (void)encoder.forward(x, pool); });
    kernel->waitEntered();

    Matrix out;
    T_CHECK_THROWS(encoder.forwardInto(x, pool, out), std::logic_error);
    RaggedBatch rout;
    T_CHECK_THROWS(encoder.forwardRaggedInto(xr, pool, rout),
                   std::logic_error);
    T_CHECK_THROWS(encoder.compilePlan(), std::logic_error);

    kernel->release();
    first.join();

    // Once the first call drains, the instance is usable again.
    encoder.forwardInto(x, pool, out);
    T_CHECK(out.rows() == cfg.tokens && out.cols() == cfg.dModel);
}

void
testEncoderMatchesUnfusedReference()
{
    // The encoder's dense stages are single fused GEMM calls (bias,
    // GELU, and residual in the write-back). The fused epilogue is
    // documented to be bitwise-identical to the separate op passes, so
    // a hand-rolled one-layer reference built from the value ops must
    // match the encoder output exactly.
    const VitConfig cfg = unpruned({"Test-1L", 1, 2, 16, 9, 32, {}, {}});
    cfg.validate();
    Rng rng(0x34aa);
    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel, rng);
    ThreadPool pool(2);

    // The bitwise contract below is between the fused write-back and
    // the fp32 op sequence; the int8 mode swaps the whole dense
    // arithmetic by design. The precision is frozen at plan compile,
    // so the quant knob only needs to be off while the plan compiles.
    const Gemm::QuantMode quantBefore = Gemm::quantMode();
    Gemm::setQuantMode(Gemm::QuantMode::Off);
    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor), 0xabc);
    encoder.compilePlan();
    Gemm::setQuantMode(quantBefore);

    const Matrix y = encoder.forward(x, pool);

    const VitEncoder::LayerWeights &w = encoder.layer(0);
    MultiHeadAttention mha(makeAttention(AttentionType::Taylor),
                           cfg.heads);
    const Matrix normed1 = layerNormRows(x, w.ln1Gamma, w.ln1Beta);
    const Matrix q = broadcastAddRow(matmul(normed1, w.wq), w.bq);
    const Matrix k = broadcastAddRow(matmul(normed1, w.wk), w.bk);
    const Matrix v = broadcastAddRow(matmul(normed1, w.wv), w.bv);
    // The attention reference: every head inline on the caller.
    ThreadPool inline1(1);
    const Matrix *qp = &q, *kp = &k, *vp = &v;
    Matrix attn;
    mha.forwardRagged(inline1, RaggedBatch::fromMatrices(&qp, 1),
                      RaggedBatch::fromMatrices(&kp, 1),
                      RaggedBatch::fromMatrices(&vp, 1))
        .unpackImage(0, attn);
    const Matrix xr =
        add(x, broadcastAddRow(matmul(attn, w.wo), w.bo));
    const Matrix normed2 = layerNormRows(xr, w.ln2Gamma, w.ln2Beta);
    const Matrix hidden =
        gelu(broadcastAddRow(matmul(normed2, w.w1), w.b1));
    const Matrix ref =
        add(xr, broadcastAddRow(matmul(hidden, w.w2), w.b2));
    T_CHECK(y == ref);
}

void
testDeitTinyRaggedParity()
{
    // One real-preset spot check: DeiT-Tiny, Taylor, B=2.
    const VitConfig cfg = unpruned(VitConfig::deitTiny());
    Rng rng(0x3433);
    const RaggedBatch x = randomImages(2, cfg.tokens, cfg.dModel, rng);
    ThreadPool pool(4);
    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor), 0x1234);
    const RaggedBatch y = encoder.forwardRagged(x, pool);
    Matrix img, want;
    for (size_t b = 0; b < x.size(); ++b) {
        x.unpackImage(b, img);
        y.unpackImage(b, want);
        T_CHECK(encoder.forward(img, pool) == want);
    }
}

} // namespace

int
main()
{
    testPresets();
    testDeitTinyEndToEnd();
    testOpCountRollup();
    testEncoderRaggedMatchesPerImage();
    testEncoderRejectsConcurrentCalls();
    testEncoderMatchesUnfusedReference();
    testDeitTinyRaggedParity();
    return vitality::testing::finish("test_model");
}
