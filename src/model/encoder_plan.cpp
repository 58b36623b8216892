#include "model/encoder_plan.h"

#include <stdexcept>

#include "attention/zoo.h"
#include "base/logging.h"
#include "model/token_pruner.h"
#include "model/vit_encoder.h"
#include "runtime/runtime_options.h"

namespace vitality {

std::unique_ptr<EncoderPlan>
EncoderPlan::compile(const VitEncoder &encoder, const PlanOptions &opts)
{
    const VitConfig &cfg = encoder.config();
    cfg.validate();

    std::unique_ptr<EncoderPlan> plan(new EncoderPlan);

    // Schedule precedence: explicit options > the model's config > the
    // global VITALITY_LAYERS knob. An engaged-but-empty option pins
    // uniform (every layer runs the encoder's own kernel); a schedule
    // sourced from the ambient knob that names layers this model does
    // not have is ignored with a warning rather than failing the
    // compile — the knob is process-global and must not veto models
    // shallower than the deepest one it was written for. Explicit
    // schedules still throw on a bad range.
    std::string text;
    bool ambient = false;
    if (opts.layerKernels) {
        text = *opts.layerKernels;
    } else if (!cfg.layerKernels.empty()) {
        text = cfg.layerKernels;
    } else {
        text = layerKernelSchedule();
        ambient = true;
    }
    const AttentionType base = encoder.kernel().type();
    std::vector<AttentionType> kernels;
    try {
        kernels = expandLayerSchedule(text, cfg.layers, base);
    } catch (const std::invalid_argument &e) {
        if (!ambient)
            throw;
        warn("EncoderPlan %s: VITALITY_LAYERS schedule \"%s\" does not "
             "fit (%s); running uniform",
             cfg.name.c_str(), text.c_str(), e.what());
        text.clear();
        kernels.assign(cfg.layers, base);
    }
    plan->scheduleText_ = text;

    // Keep schedule, frozen at compile time: the config's explicit
    // vector wins; otherwise the pinned (or global) keep-ratio expanded
    // over the default staged schedule.
    std::vector<float> keeps;
    if (!cfg.tokenKeep.empty()) {
        keeps = cfg.tokenKeep;
    } else {
        const float keep =
            opts.tokenKeep ? *opts.tokenKeep : tokenKeepRatio();
        if (!(keep > 0.0f) || keep > 1.0f) {
            throw std::invalid_argument(
                strfmt("EncoderPlan: keep ratio %g outside (0, 1]",
                       static_cast<double>(keep)));
        }
        TokenPruner::buildSchedule(keeps, cfg.layers, keep);
    }

    plan->specs_.reserve(cfg.layers);
    plan->uniform_ = true;
    for (size_t l = 0; l < cfg.layers; ++l) {
        plan->specs_.push_back({kernels[l], keeps[l]});
        if (kernels[l] != base)
            plan->uniform_ = false;
    }

    plan->maxTokens_ = opts.maxTokens ? opts.maxTokens : cfg.tokens;
    if (plan->maxTokens_ < cfg.tokens) {
        throw std::invalid_argument(
            strfmt("EncoderPlan: maxTokens %zu below the model's %zu "
                   "tokens",
                   plan->maxTokens_, cfg.tokens));
    }
    plan->maxBatch_ = opts.maxBatch ? opts.maxBatch : 1;
    plan->workspaceFloats_ = plan->maxBatch_ * plan->maxTokens_ *
                             (6 * cfg.dModel + cfg.mlpHidden);

    // Prepack every dense-stage weight in the plan's one precision. The
    // fp32 packs borrow the encoder's weight matrices (the encoder owns
    // the plan, so the borrow cannot dangle); the int8 packs borrow the
    // quantized copies the plan owns, sized here once.
    plan->int8_ = opts.packInt8
                      ? *opts.packInt8
                      : Gemm::quantMode() == Gemm::QuantMode::Int8;
    plan->packs_.resize(cfg.layers);
    if (plan->int8_)
        plan->quantized_.resize(cfg.layers);
    for (size_t l = 0; l < cfg.layers; ++l) {
        const VitEncoder::LayerWeights &w = encoder.layer(l);
        LayerPack &p = plan->packs_[l];
        if (!plan->int8_) {
            p.wq.packFp32(w.wq);
            p.wk.packFp32(w.wk);
            p.wv.packFp32(w.wv);
            p.wo.packFp32(w.wo);
            p.w1.packFp32(w.w1);
            p.w2.packFp32(w.w2);
            continue;
        }
        QuantizedLayer &q = plan->quantized_[l];
        q.wq.assignWeights(w.wq);
        q.wk.assignWeights(w.wk);
        q.wv.assignWeights(w.wv);
        q.wo.assignWeights(w.wo);
        q.w1.assignWeights(w.w1);
        q.w2.assignWeights(w.w2);
        p.wq.packInt8(q.wq);
        p.wk.packInt8(q.wk);
        p.wv.packInt8(q.wv);
        p.wo.packInt8(q.wo);
        p.w1.packInt8(q.w1);
        p.w2.packInt8(q.w2);
    }

    return plan;
}

size_t
EncoderPlan::packedBytes() const
{
    size_t bytes = 0;
    for (const LayerPack &p : packs_) {
        bytes += p.wq.packedBytes() + p.wk.packedBytes() +
                 p.wv.packedBytes() + p.wo.packedBytes() +
                 p.w1.packedBytes() + p.w2.packedBytes();
    }
    return bytes;
}

std::string
EncoderPlan::summary() const
{
    return strfmt("plan: layers=%zu schedule=%s int8=%s maxTokens=%zu "
                  "maxBatch=%zu packed=%.1f MiB workspace=%.1f MiB",
                  specs_.size(),
                  scheduleText_.empty() ? "uniform"
                                        : scheduleText_.c_str(),
                  int8_ ? "packed" : "off", maxTokens_, maxBatch_,
                  static_cast<double>(packedBytes()) / (1024.0 * 1024.0),
                  static_cast<double>(workspaceFloats_) * 4.0 /
                      (1024.0 * 1024.0));
}

} // namespace vitality
