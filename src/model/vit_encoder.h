/**
 * @file
 * End-to-end ViT encoder stack over the attention zoo.
 *
 * Runs the standard pre-norm transformer encoder the DeiT family uses:
 *
 *   for each layer:  x = x + W_O MHA(LN1(x))        (attention block)
 *                    x = x + W_2 GELU(W_1 LN2(x))   (MLP block)
 *
 * with the multi-head attention dispatched through the runtime layer, so
 * any kernel in the zoo (softmax baseline, ViTALiTy Taylor, Sanger
 * sparse, unified, ...) can be swapped in end-to-end.
 *
 * There is one encoder program: forwardRaggedInto, over a ragged batch
 * of mixed token-count images (tensor/ragged_batch.h) with progressive
 * token pruning between layers. Every dense stage (QKV/output
 * projections, MLP) is a single fused GEMM over the whole concatenated
 * token buffer against the plan's prepacked weights: bias adds, the
 * tanh-GELU, and the residual adds ride the GEMM epilogue
 * (tensor/gemm.h), and the GEMM fans row bands across the pool.
 * forwardInto is the one-image wrapper around that program. Every
 * forward runs through a compiled EncoderPlan (model/encoder_plan.h);
 * an encoder nobody compiled compiles the default PlanOptions on its
 * first forward. Weights are randomly initialized (the repo reproduces
 * the paper's compute and accuracy *structure*, not trained
 * checkpoints); everything is seeded, so runs are bit-reproducible.
 *
 * The op-count rollup reproduces the paper's model-level GFLOPs
 * accounting: the attention contribution is exactly the kernel's
 * per-head opCounts(n, d_h) scaled by heads x layers, and the dense
 * contribution adds the QKV/output projections and the MLP.
 */

#ifndef VITALITY_MODEL_VIT_ENCODER_H
#define VITALITY_MODEL_VIT_ENCODER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "attention/attention.h"
#include "model/token_pruner.h"
#include "model/vit_config.h"
#include "runtime/multi_head_attention.h"
#include "runtime/thread_pool.h"
#include "tensor/ragged_batch.h"

namespace vitality {

class EncoderPlan;
class Rng;
struct PlanOptions;

/** A stack of pre-norm transformer encoder layers. */
class VitEncoder
{
  public:
    /** Weights of one encoder layer. */
    struct LayerWeights
    {
        Matrix ln1Gamma, ln1Beta; ///< Pre-attention layer norm, 1 x d.
        Matrix wq, wk, wv;        ///< QKV projections, d x d.
        Matrix bq, bk, bv;        ///< QKV biases, 1 x d.
        Matrix wo, bo;            ///< Output projection d x d, bias 1 x d.
        Matrix ln2Gamma, ln2Beta; ///< Pre-MLP layer norm, 1 x d.
        Matrix w1, b1;            ///< MLP up-projection d x h, 1 x h.
        Matrix w2, b2;            ///< MLP down-projection h x d, 1 x d.
    };

    /**
     * @param config Architecture preset; validated.
     * @param kernel Attention kernel shared by every head and layer.
     * @param seed Weight-initialization seed.
     */
    VitEncoder(VitConfig config, AttentionKernelPtr kernel,
               uint64_t seed = 0x5eedULL);

    /** Out-of-line: plan_ holds an incomplete EncoderPlan here. */
    ~VitEncoder();

    const VitConfig &config() const { return cfg_; }
    const AttentionKernel &kernel() const { return mha_.kernel(); }
    const LayerWeights &layer(size_t i) const { return layers_[i]; }

    /**
     * Compile and attach an execution plan (model/encoder_plan.h):
     * prepacks every dense-stage weight into the microkernel panel
     * layout, freezes the precision and the per-layer kernel/keep
     * schedule (the VITALITY_QUANT, VITALITY_TOKENS and VITALITY_LAYERS
     * knobs are read here, not per call), pre-grows the activation
     * buffers to the plan's (maxBatch, maxTokens) high-water mark,
     * and — for heterogeneous schedules — builds one
     * MultiHeadAttention per layer. Replaces any previous plan. Throws
     * std::invalid_argument on malformed options and keeps the
     * previous plan.
     */
    void compilePlan(const PlanOptions &opts);

    /** compilePlan with default options (uniform schedule, batch 1). */
    void compilePlan();

    /** The attached plan: nullptr until compilePlan or the first forward. */
    const EncoderPlan *plan() const { return plan_.get(); }

    /**
     * Run the full encoder stack over one image: forwardRaggedInto on
     * a one-image batch, pruning included.
     *
     * @param x Token embeddings, tokens x dModel.
     * @param pool Pool the GEMM row bands and attention heads fan
     * across.
     * @param out Resized to the surviving tokens x dModel (all tokens
     * under an all-1.0 keep schedule); may alias x. Storage is
     * recycled after the first call.
     */
    void forwardInto(const Matrix &x, ThreadPool &pool, Matrix &out);

    Matrix forward(const Matrix &x, ThreadPool &pool);

    /**
     * Run the full encoder stack over a ragged batch of mixed
     * token-count images, with progressive token pruning.
     *
     * Dense stages (layer norms, QKV/output projections, MLP, and the
     * int8 per-row activation quantization) run over the WHOLE
     * concatenated token buffer as single fused GEMM calls — every one
     * of those stages is row-independent, and the GEMM row-band
     * guarantee makes each row's result bitwise-independent of the
     * other rows present — while attention fans B x heads ragged work
     * items so every kernel runs at its image's own token count.
     *
     * Between layers a TokenPruner applies the plan's keep-ratio
     * schedule. out's per-image row counts are the SURVIVING token
     * counts, which may be smaller than the input's.
     *
     * Independence of batch mates (test-asserted): any image's result
     * is bitwise-identical to forwardInto on that image alone, whatever
     * it shares the batch with.
     *
     * @param x Ragged batch; cols must equal dModel, any rows >= 1.
     * @param pool Pool dense row bands and attention items fan across.
     * @param out Resized; must not alias x.
     */
    void forwardRaggedInto(const RaggedBatch &x, ThreadPool &pool,
                           RaggedBatch &out);

    RaggedBatch forwardRagged(const RaggedBatch &x, ThreadPool &pool);

    /**
     * Attention-only rollup: kernel per-head opCounts(tokens, headDim)
     * x heads x layers — the quantity the paper's Eq. (1)-(3) and
     * Table IV state per model.
     */
    OpCounts attentionOpCounts() const;

    /**
     * Dense (non-attention) rollup per the usual ViT accounting: QKV and
     * output projections (4 n d^2 MACs) plus the MLP (2 n d h MACs) per
     * layer, with bias adds; layer norms and GELU are counted as adds/
     * divs/exps respectively.
     */
    OpCounts denseOpCounts() const;

    /** attentionOpCounts() + denseOpCounts(). */
    OpCounts opCounts() const;

  private:
    /** Attach a freshly compiled plan; the caller holds the guard. */
    void installPlan(const PlanOptions &opts);

    /**
     * Compile the default plan if none is attached. Runs before the
     * input is staged into rx_, which a compile pre-grows (contents
     * unspecified).
     */
    void preparePlan();

    /** The layer loop over the staged input in rx_, in the plan's
     * precision. */
    void runLayers(ThreadPool &pool);

    /** Layer l's attention dispatch: the per-layer instance when the
     * plan's schedule is heterogeneous, the shared mha_ otherwise. */
    MultiHeadAttention &mhaAt(size_t l);

    VitConfig cfg_;
    MultiHeadAttention mha_;
    std::vector<LayerWeights> layers_;
    /**
     * Activations, recycled across forwards. rx_/rq_/rk_/rv_/rattn_
     * carry the per-image structure (attention needs the boundaries);
     * rnormed_/rhidden_ are plain buffers the row-independent dense
     * stages run over.
     */
    RaggedBatch rx_, rq_, rk_, rv_, rattn_;
    Matrix rnormed_, rhidden_;
    TokenPruner pruner_;
    /**
     * Attached execution plan. The plan borrows the weight storage
     * above, so the encoder owning it is what makes the borrow safe.
     */
    std::unique_ptr<EncoderPlan> plan_;
    /**
     * Per-layer attention dispatch for heterogeneous plan schedules
     * (one instance per layer, each wrapping that layer's kernel).
     * Empty for uniform schedules — mhaAt() then returns mha_.
     */
    std::vector<std::unique_ptr<MultiHeadAttention>> planMha_;
    /**
     * Set while a forward or compile is executing; the activation
     * buffers and the plan are shared per instance, so a concurrent
     * same-instance call throws std::logic_error instead of silently
     * corrupting them (same contract as MultiHeadAttention).
     */
    std::atomic<bool> inFlight_{false};
};

} // namespace vitality

#endif // VITALITY_MODEL_VIT_ENCODER_H
