/**
 * @file
 * The traced per-layer replay: one forward of a planned fp32 encoder,
 * re-issued stage by stage from the benchmark through each module's
 * public functions, with a span around every call.
 *
 * Per layer the replay runs exactly what VitEncoder::forwardRaggedInto
 * runs: LN1 (layerNormRowsInto), the three QKV Gemm::multiply calls
 * against the plan's packed weights, the pooled multi-head attention,
 * the output projection, LN2, MLP up with GELU, MLP down, and
 * TokenPruner::prune. Its output is compared bitwise with the
 * encoder's own forwardRaggedInto on the same input, which proves the
 * spans timed the encoder's float program and not an approximation.
 *
 * The probe pass additionally runs every (image, head) attention kernel
 * call on per-head slices, one at a time on the calling thread, which
 * is what attention.kernel_ms and runtime.mha_parallel_eff are built
 * from. Its forward time is not used.
 */

#ifndef VITALITY_PERFBENCH_REPLAY_H
#define VITALITY_PERFBENCH_REPLAY_H

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "attention/zoo.h"
#include "harness.h"
#include "model/encoder_plan.h"
#include "model/request_batch.h"
#include "model/token_pruner.h"
#include "model/vit_encoder.h"
#include "runtime/multi_head_attention.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/packed_weights.h"
#include "tensor/ragged_batch.h"
#include "trace.h"

namespace vitality {
namespace perfbench {

inline bool
bitwiseEqual(const RaggedBatch &a, const RaggedBatch &b)
{
    return a.offsets() == b.offsets() && a.cols() == b.cols() &&
           std::memcmp(a.buffer().data(), b.buffer().data(),
                       a.totalRows() * a.cols() * sizeof(float)) == 0;
}

class EncoderReplay
{
  public:
    /**
     * @param encoder Planned fp32 encoder whose forward is replayed.
     * @param inputs The images one forward packs; not owned.
     */
    EncoderReplay(VitEncoder &encoder, ThreadPool &pool,
                  SpanRecorder &rec, std::vector<const Matrix *> inputs)
        : enc_(encoder), pool_(pool), rec_(rec),
          mha_(makeAttention(encoder.kernel().type()),
               encoder.config().heads),
          inputs_(std::move(inputs)), images_(inputs_.size())
    {
        if (!enc_.plan())
            throw std::invalid_argument("replay: encoder has no plan");
        if (Gemm::quantMode() != Gemm::QuantMode::Off)
            throw std::invalid_argument("replay: fp32 encoders only");
    }

    /**
     * Pack, replay with stage spans, unpack; then the encoder's own
     * untraced forward on the same batch. Returns whether the two
     * outputs are bitwise-equal.
     */
    bool tracedPass()
    {
        {
            ScopedSpan pack(&rec_, "model.pack", 0);
            packRequests(x_, inputs_.data(), inputs_.size());
        }
        {
            ScopedSpan fwd(&rec_, "model.forward", 0);
            run(&rec_, nullptr, fwd.id());
        }
        {
            ScopedSpan unpack(&rec_, "model.unpack", 0);
            for (size_t i = 0; i < images_.size(); ++i)
                unpackImage(out_, i, images_[i]);
        }
        {
            ScopedSpan ref(&rec_, "model.forward_untraced", 0);
            enc_.forwardRaggedInto(x_, pool_, ref_);
        }
        return bitwiseEqual(out_, ref_);
    }

    /** Replay with single-threaded per-head kernel spans. */
    bool probePass()
    {
        ScopedSpan probe(&rec_, "attention.probe", 0);
        run(nullptr, &rec_, probe.id());
        return bitwiseEqual(out_, ref_);
    }

    size_t tokensIn() const { return x_.totalRows(); }
    size_t tokensOut() const { return out_.totalRows(); }

  private:
    /** Stage spans go to stages, kernel probe spans to kernels. */
    void run(SpanRecorder *stages, SpanRecorder *kernels, uint32_t root)
    {
        const VitConfig &cfg = enc_.config();
        const EncoderPlan &plan = *enc_.plan();
        rx_.copyFrom(x_);
        for (size_t l = 0; l < cfg.layers; ++l) {
            const int32_t li = static_cast<int32_t>(l);
            ScopedSpan layer(stages, "layer", root, li);
            const uint32_t p = layer.id();
            const VitEncoder::LayerWeights &w = enc_.layer(l);
            const EncoderPlan::LayerPack &pk = plan.pack(l);
            normed_.resize(rx_.totalRows(), cfg.dModel);
            hidden_.resize(rx_.totalRows(), cfg.mlpHidden);
            rq_.resizeLike(rx_);
            rk_.resizeLike(rx_);
            rv_.resizeLike(rx_);
            {
                ScopedSpan s(stages, "tensor.layernorm", p, li);
                layerNormRowsInto(normed_, rx_.buffer(), w.ln1Gamma,
                                  w.ln1Beta);
            }
            gemm(stages, "tensor.gemm.qkv", p, li, rq_.buffer(), normed_,
                 pk.wq, Gemm::Epilogue::withBias(w.bq));
            gemm(stages, "tensor.gemm.qkv", p, li, rk_.buffer(), normed_,
                 pk.wk, Gemm::Epilogue::withBias(w.bk));
            gemm(stages, "tensor.gemm.qkv", p, li, rv_.buffer(), normed_,
                 pk.wv, Gemm::Epilogue::withBias(w.bv));
            {
                ScopedSpan s(stages, "runtime.mha", p, li);
                mha_.forwardRaggedInto(pool_, rq_, rk_, rv_, rattn_);
                s.counts(attentionFlops(), 0.0);
            }
            if (kernels)
                probeKernels(*kernels, root, li);
            gemm(stages, "tensor.gemm.proj", p, li, rx_.buffer(),
                 rattn_.buffer(), pk.wo,
                 Gemm::Epilogue::accumulateWithBias(w.bo));
            {
                ScopedSpan s(stages, "tensor.layernorm", p, li);
                layerNormRowsInto(normed_, rx_.buffer(), w.ln2Gamma,
                                  w.ln2Beta);
            }
            gemm(stages, "tensor.gemm.mlp_up", p, li, hidden_, normed_,
                 pk.w1, Gemm::Epilogue::withBiasGelu(w.b1));
            gemm(stages, "tensor.gemm.mlp_down", p, li, rx_.buffer(),
                 hidden_, pk.w2, Gemm::Epilogue::accumulateWithBias(w.b2));
            {
                // keep = 1.0 returns at once (the encoder skips the
                // call); timing it anyway keeps the stage list fixed.
                ScopedSpan s(stages, "model.prune", p, li);
                pruner_.prune(rx_, rq_, rk_, cfg.heads,
                              plan.spec(l).tokenKeep);
            }
        }
        out_.copyFrom(rx_);
    }

    static void gemm(SpanRecorder *rec, const char *name, uint32_t parent,
                     int32_t layer, Matrix &dst, const Matrix &a,
                     const PackedMatrix &b, const Gemm::Epilogue &epi)
    {
        ScopedSpan s(rec, name, parent, layer);
        Gemm::multiply(dst, a, b, Gemm::Trans::None, epi);
        const double m = static_cast<double>(a.rows());
        const double k = static_cast<double>(a.cols());
        const double n = static_cast<double>(dst.cols());
        // Bytes computed from tensor sizes: A, B and C once, C again
        // when the epilogue accumulates into it, and the bias row.
        s.counts(2.0 * m * n * k,
                 4.0 * (m * k + k * n + m * n * (epi.accumulate ? 2 : 1) +
                        (epi.bias ? n : 0.0)));
    }

    double attentionFlops() const
    {
        const VitConfig &cfg = enc_.config();
        double flops = 0.0;
        for (size_t i = 0; i < rq_.size(); ++i)
            flops += static_cast<double>(
                mha_.kernel().opCounts(rq_.rowsOf(i), cfg.headDim()).total() *
                cfg.heads);
        return flops;
    }

    void probeKernels(SpanRecorder &rec, uint32_t root, int32_t layer)
    {
        const VitConfig &cfg = enc_.config();
        const size_t dh = cfg.headDim();
        const AttentionKernel &kernel = mha_.kernel();
        for (size_t i = 0; i < rq_.size(); ++i) {
            const size_t n = rq_.rowsOf(i);
            for (size_t h = 0; h < cfg.heads; ++h) {
                slice(qh_, rq_, i, h, dh);
                slice(kh_, rk_, i, h, dh);
                slice(vh_, rv_, i, h, dh);
                ScopedSpan s(&rec, "attention.kernel", root, layer);
                kernel.forwardInto(ctx_, qh_, kh_, vh_, oh_);
                s.counts(static_cast<double>(kernel.opCounts(n, dh).total()),
                         0.0);
            }
        }
    }

    /** Head h's column slice of image i, as a contiguous matrix. */
    static void slice(Matrix &dst, const RaggedBatch &src, size_t image,
                      size_t head, size_t dh)
    {
        const size_t rows = src.rowsOf(image);
        dst.resize(rows, dh);
        for (size_t r = 0; r < rows; ++r)
            std::memcpy(dst.rowPtr(r), src.rowPtr(image, r) + head * dh,
                        dh * sizeof(float));
    }

    VitEncoder &enc_;
    ThreadPool &pool_;
    SpanRecorder &rec_;
    MultiHeadAttention mha_;
    TokenPruner pruner_;
    std::vector<const Matrix *> inputs_;
    std::vector<Matrix> images_;
    RaggedBatch x_, rx_, rq_, rk_, rv_, rattn_, out_, ref_;
    Matrix normed_, hidden_, qh_, kh_, vh_, oh_;
    AttentionContext ctx_;
};

/**
 * The per-layer metrics, from the recorded spans: medians over the
 * traced forwards (stage sums per forward) and over the probe passes.
 */
inline void
addLayerMetrics(Report &r, const SpanRecorder &rec, size_t workers,
                double planCompileMs, size_t tokensIn, size_t tokensOut)
{
    const auto fwd = rec.totalsUnder("model.forward");
    const auto probes = rec.totalsUnder("attention.probe");
    const auto untraced = rec.totalsUnder("model.forward_untraced");
    const auto packs = rec.totalsUnder("model.pack");
    const auto unpacks = rec.totalsUnder("model.unpack");
    if (fwd.empty() || probes.empty())
        throw std::runtime_error("trace: no traced forward or probe pass");

    auto over = [](const std::vector<SpanRecorder::RootTotals> &roots,
                   auto &&fn) {
        std::vector<double> v;
        for (const SpanRecorder::RootTotals &t : roots)
            v.push_back(fn(t));
        return median(v);
    };
    auto stageMs = [&](const char *name) {
        return over(fwd, [name](const SpanRecorder::RootTotals &t) {
            auto it = t.byName.find(name);
            return it == t.byName.end() ? 0.0 : it->second.ms;
        });
    };
    auto gemmTotals = [](const SpanRecorder::RootTotals &t) {
        SpanRecorder::Totals sum;
        for (const char *g : {"tensor.gemm.qkv", "tensor.gemm.proj",
                              "tensor.gemm.mlp_up", "tensor.gemm.mlp_down"}) {
            auto it = t.byName.find(g);
            if (it == t.byName.end())
                continue;
            sum.ms += it->second.ms;
            sum.flops += it->second.flops;
            sum.bytes += it->second.bytes;
            sum.count += it->second.count;
        }
        return sum;
    };
    auto kernelTotals = [](const SpanRecorder::RootTotals &t) {
        auto it = t.byName.find("attention.kernel");
        return it == t.byName.end() ? SpanRecorder::Totals{} : it->second;
    };

    const size_t n = fwd.size();
    r.add("tensor.gemm.qkv_ms", stageMs("tensor.gemm.qkv"), "ms", n);
    r.add("tensor.gemm.proj_ms", stageMs("tensor.gemm.proj"), "ms", n);
    r.add("tensor.gemm.mlp_up_ms", stageMs("tensor.gemm.mlp_up"), "ms", n);
    r.add("tensor.gemm.mlp_down_ms", stageMs("tensor.gemm.mlp_down"), "ms",
          n);
    r.add("tensor.gemm.gflops", over(fwd, [&](const auto &t) {
              const SpanRecorder::Totals g = gemmTotals(t);
              return g.flops / g.ms / 1e6;
          }),
          "GFLOP/s", n);
    r.add("tensor.gemm.bytes_mb",
          over(fwd, [&](const auto &t) { return gemmTotals(t).bytes / 1e6; }),
          "MB", n);
    r.add("tensor.gemm.calls", over(fwd, [&](const auto &t) {
              return static_cast<double>(gemmTotals(t).count);
          }),
          "count", n);
    r.add("tensor.layernorm_ms", stageMs("tensor.layernorm"), "ms", n);

    const double kernelMs =
        over(probes, [&](const auto &t) { return kernelTotals(t).ms; });
    r.add("attention.kernel_ms", kernelMs, "ms", probes.size());
    r.add("attention.kernel_gflops", over(probes, [&](const auto &t) {
              const SpanRecorder::Totals k = kernelTotals(t);
              return k.flops / k.ms / 1e6;
          }),
          "GFLOP/s", probes.size());

    const double mhaMs = stageMs("runtime.mha");
    r.add("runtime.mha_ms", mhaMs, "ms", n);
    r.add("runtime.mha_parallel_eff",
          kernelMs / (mhaMs * static_cast<double>(workers)), "frac", n);

    r.add("model.prune_ms", stageMs("model.prune"), "ms", n);
    r.add("model.tokens_in", static_cast<double>(tokensIn), "count", n);
    r.add("model.tokens_out", static_cast<double>(tokensOut), "count", n);
    r.add("model.plan_compile_ms", planCompileMs, "ms", 3);
    r.add("model.pack_ms",
          over(packs, [](const auto &t) { return t.rootMs; }), "ms",
          packs.size());
    r.add("model.unpack_ms",
          over(unpacks, [](const auto &t) { return t.rootMs; }), "ms",
          unpacks.size());
    const double forwardMs = over(fwd, [](const auto &t) { return t.rootMs; });
    r.add("model.forward_ms", forwardMs, "ms", n);
    r.add("model.replay_gap_frac", over(fwd, [](const auto &t) {
              return (t.rootMs - t.leafMs) / t.rootMs;
          }),
          "frac", n);
    const double untracedMs =
        over(untraced, [](const auto &t) { return t.rootMs; });
    r.add("trace.overhead_frac", forwardMs / untracedMs - 1.0, "frac",
          untraced.size());
    r.add("trace.untraced_forward_ms", untracedMs, "ms", untraced.size());
}

} // namespace perfbench
} // namespace vitality

#endif // VITALITY_PERFBENCH_REPLAY_H
