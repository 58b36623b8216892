#include "model/vit_encoder.h"

#include <stdexcept>

#include "attention/zoo.h"
#include "base/check.h"
#include "base/logging.h"
#include "base/rng.h"
#include "model/encoder_plan.h"
#include "runtime/call_guard.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace vitality {

namespace {

const char *const kConcurrentCall =
    "VitEncoder: concurrent forward on one instance (activation "
    "buffers are not shareable; use one instance per caller)";

// Every dense stage rides the fused GEMM epilogue (tensor/gemm.h):
// bias adds, the GELU, and the residual adds happen in the GEMM
// write-back instead of as extra full passes over the activations — and
// fused epilogues are bitwise-identical to the unfused op sequence. The
// weights are the plan's prepacked panels; under an int8 plan the fp32
// activation is quantized per row into a thread-local scratch and
// multiplied against the int8 panels with the very same epilogue
// descriptor, so bias/GELU/residual semantics are unchanged.

// Per-worker activation-quantization scratch. Each dense stage
// re-quantizes into it, so at most one lives per pool worker.
QuantizedMatrix &
quantScratch(const Matrix &src)
{
    static thread_local QuantizedMatrix t_qact;
    t_qact.assignActivations(src);
    return t_qact;
}

// One dense stage: dst = epi(a * w).
void
project(Matrix &dst, const Matrix &a, const PackedMatrix &w, bool int8,
        const Gemm::Epilogue &epi)
{
    if (int8)
        Gemm::multiply(dst, quantScratch(a), w, Gemm::Trans::None, epi);
    else
        Gemm::multiply(dst, a, w, Gemm::Trans::None, epi);
}

// The packed QKV projections of one (fp32 or quantized) activation.
template <typename Activation>
void
projectQkv(const Activation &a, const VitEncoder::LayerWeights &w,
           const EncoderPlan::LayerPack &pk, Matrix &q, Matrix &k,
           Matrix &v)
{
    Gemm::multiply(q, a, pk.wq, Gemm::Trans::None,
                   Gemm::Epilogue::withBias(w.bq));
    Gemm::multiply(k, a, pk.wk, Gemm::Trans::None,
                   Gemm::Epilogue::withBias(w.bk));
    Gemm::multiply(v, a, pk.wv, Gemm::Trans::None,
                   Gemm::Epilogue::withBias(w.bv));
}

} // namespace

VitEncoder::VitEncoder(VitConfig config, AttentionKernelPtr kernel,
                       uint64_t seed)
    : cfg_(std::move(config)), mha_(std::move(kernel), cfg_.heads)
{
    cfg_.validate();

    const size_t d = cfg_.dModel;
    const size_t h = cfg_.mlpHidden;
    // DeiT's trunc-normal(0.02) init, without the truncation (the tails
    // are irrelevant to compute structure).
    const float w_std = 0.02f;

    Rng rng(seed);
    layers_.reserve(cfg_.layers);
    for (size_t l = 0; l < cfg_.layers; ++l) {
        LayerWeights w;
        w.ln1Gamma = Matrix::ones(1, d);
        w.ln1Beta = Matrix::zeros(1, d);
        w.wq = Matrix::randn(d, d, rng, 0.0f, w_std);
        w.wk = Matrix::randn(d, d, rng, 0.0f, w_std);
        w.wv = Matrix::randn(d, d, rng, 0.0f, w_std);
        w.bq = Matrix::zeros(1, d);
        w.bk = Matrix::zeros(1, d);
        w.bv = Matrix::zeros(1, d);
        w.wo = Matrix::randn(d, d, rng, 0.0f, w_std);
        w.bo = Matrix::zeros(1, d);
        w.ln2Gamma = Matrix::ones(1, d);
        w.ln2Beta = Matrix::zeros(1, d);
        w.w1 = Matrix::randn(d, h, rng, 0.0f, w_std);
        w.b1 = Matrix::zeros(1, h);
        w.w2 = Matrix::randn(h, d, rng, 0.0f, w_std);
        w.b2 = Matrix::zeros(1, d);
        layers_.push_back(std::move(w));
    }
}

VitEncoder::~VitEncoder() = default;

void
VitEncoder::compilePlan()
{
    compilePlan(PlanOptions{});
}

void
VitEncoder::compilePlan(const PlanOptions &opts)
{
    CallGuard guard(inFlight_, kConcurrentCall);
    installPlan(opts);
}

void
VitEncoder::installPlan(const PlanOptions &opts)
{
    // Compile before detaching the old plan, so a throwing compile
    // leaves the encoder in its previous state.
    std::unique_ptr<EncoderPlan> plan = EncoderPlan::compile(*this, opts);

    std::vector<std::unique_ptr<MultiHeadAttention>> mhas;
    if (!plan->uniform()) {
        // Heterogeneous schedule: one dispatch instance per layer.
        // Kernel construction is deterministic (attention/zoo.h), so a
        // layer whose spec names the encoder's own kernel type computes
        // bitwise-identically to the shared instance.
        mhas.reserve(cfg_.layers);
        for (size_t l = 0; l < cfg_.layers; ++l)
            mhas.push_back(std::make_unique<MultiHeadAttention>(
                makeAttention(plan->spec(l).kernel), cfg_.heads));
    }

    // Pre-grow every activation buffer to the plan's high-water
    // footprint, so steady-state forwards reuse storage instead of
    // growing it mid-request.
    const size_t n = plan->maxTokens();
    const size_t batch = plan->maxBatch();
    const size_t d = cfg_.dModel;
    const std::vector<size_t> rows(batch, n);
    for (RaggedBatch *r : {&rx_, &rq_, &rk_, &rv_, &rattn_})
        r->resize(rows.data(), batch, d);
    rnormed_.resize(batch * n, d);
    rhidden_.resize(batch * n, cfg_.mlpHidden);

    plan_ = std::move(plan);
    planMha_ = std::move(mhas);
}

void
VitEncoder::preparePlan()
{
    if (!plan_)
        installPlan(PlanOptions{});
}

MultiHeadAttention &
VitEncoder::mhaAt(size_t l)
{
    return planMha_.empty() ? mha_ : *planMha_[l];
}

void
VitEncoder::forwardInto(const Matrix &x, ThreadPool &pool, Matrix &out)
{
    CallGuard guard(inFlight_, kConcurrentCall);
    if (x.rows() != cfg_.tokens || x.cols() != cfg_.dModel) {
        throw std::invalid_argument(
            strfmt("VitEncoder: input %s, expected [%zu x %zu]",
                   x.shapeStr().c_str(), cfg_.tokens, cfg_.dModel));
    }
    preparePlan();
    const Matrix *image = &x;
    rx_.packFrom(&image, 1);
    runLayers(pool);
    rx_.unpackImage(0, out);
}

Matrix
VitEncoder::forward(const Matrix &x, ThreadPool &pool)
{
    Matrix out;
    forwardInto(x, pool, out);
    return out;
}

void
VitEncoder::forwardRaggedInto(const RaggedBatch &x, ThreadPool &pool,
                              RaggedBatch &out)
{
    CallGuard guard(inFlight_, kConcurrentCall);
    if (x.empty())
        throw std::invalid_argument("VitEncoder: empty ragged batch");
    if (x.cols() != cfg_.dModel) {
        throw std::invalid_argument(
            strfmt("VitEncoder: ragged batch %s, expected %zu columns",
                   x.shapeStr().c_str(), cfg_.dModel));
    }
    VITALITY_CHECK(&out != &x, "VitEncoder: ragged out aliases the input");
    preparePlan();
    rx_.copyFrom(x);
    runLayers(pool);
    out.copyFrom(rx_);
}

RaggedBatch
VitEncoder::forwardRagged(const RaggedBatch &x, ThreadPool &pool)
{
    RaggedBatch out;
    forwardRaggedInto(x, pool, out);
    return out;
}

void
VitEncoder::runLayers(ThreadPool &pool)
{
    VITALITY_DCHECK(
        check::allFinite(rx_.buffer().data(), rx_.totalRows() * rx_.cols()),
        "VitEncoder: non-finite input");

    const size_t d = cfg_.dModel;
    const size_t h = cfg_.mlpHidden;
    const bool int8 = plan_->hasInt8();

    for (size_t l = 0; l < layers_.size(); ++l) {
        const LayerWeights &w = layers_[l];
        const EncoderPlan::LayerPack &pk = plan_->pack(l);
        const size_t total = rx_.totalRows();
        rnormed_.resize(total, d);
        rhidden_.resize(total, h);
        rq_.resizeLike(rx_);
        rk_.resizeLike(rx_);
        rv_.resizeLike(rx_);
        // Dense stages run over the whole concatenated buffer as one
        // fused GEMM per stage: layer norm, the projections, the GELU
        // and the int8 per-row activation quantization are all
        // row-independent, and GEMM row results are bitwise-independent
        // of which other rows share the multiply — so each image's
        // floats match its standalone forward exactly. Issued from the
        // calling thread, the GEMM fans row bands across the pool.
        Matrix &x = rx_.buffer();
        // LN1 and the QKV projections, which share one quantization of
        // the normed activation.
        layerNormRowsInto(rnormed_, x, w.ln1Gamma, w.ln1Beta);
        if (int8)
            projectQkv(quantScratch(rnormed_), w, pk, rq_.buffer(),
                       rk_.buffer(), rv_.buffer());
        else
            projectQkv(rnormed_, w, pk, rq_.buffer(), rk_.buffer(),
                       rv_.buffer());
        // Attention is the one stage that needs image boundaries:
        // B x heads ragged work items, each at its own token count.
        mhaAt(l).forwardRaggedInto(pool, rq_, rk_, rv_, rattn_);
        // Output projection and residual: x += W_O attn + b_O.
        project(x, rattn_.buffer(), pk.wo, int8,
                Gemm::Epilogue::accumulateWithBias(w.bo));
        // MLP block: x += W_2 GELU(W_1 LN2(x)). The GELU rides the
        // first GEMM's write-back, the bias + residual the second's.
        layerNormRowsInto(rnormed_, x, w.ln2Gamma, w.ln2Beta);
        project(rhidden_, rnormed_, pk.w1, int8,
                Gemm::Epilogue::withBiasGelu(w.b1));
        project(x, rhidden_, pk.w2, int8,
                Gemm::Epilogue::accumulateWithBias(w.b2));
        // Progressive pruning: rank by this layer's CLS-attention mass
        // (from the packed Q/K the layer just used) and compact the
        // survivors in place. keep=1.0 layers skip the pruner.
        const float keep = plan_->spec(l).tokenKeep;
        if (keep < 1.0f)
            pruner_.prune(rx_, rq_, rk_, cfg_.heads, keep);
    }
}

OpCounts
VitEncoder::attentionOpCounts() const
{
    return mha_.opCounts(cfg_.tokens, cfg_.dModel) * cfg_.layers;
}

OpCounts
VitEncoder::denseOpCounts() const
{
    const uint64_t n = cfg_.tokens;
    const uint64_t d = cfg_.dModel;
    const uint64_t h = cfg_.mlpHidden;

    OpCounts c;
    // QKV + output projections: 4 GEMMs of n x d by d x d, plus biases.
    c.mul = 4ULL * n * d * d;
    c.add = 4ULL * n * d * d + 4ULL * n * d;
    // MLP: n x d by d x h and n x h by h x d, plus biases.
    c.mul += 2ULL * n * d * h;
    c.add += 2ULL * n * d * h + n * h + n * d;
    // Two layer norms: mean + variance accumulations (2 n d adds each),
    // a scale and a shift per element, one divide per element.
    c.add += 2ULL * (2ULL * n * d + n * d);
    c.mul += 2ULL * (2ULL * n * d);
    c.div += 2ULL * n * d;
    // GELU on the hidden activations: one transcendental per element.
    c.exp += n * h;
    // Residual adds.
    c.add += 2ULL * n * d;
    return c * cfg_.layers;
}

OpCounts
VitEncoder::opCounts() const
{
    return attentionOpCounts() + denseOpCounts();
}

} // namespace vitality
