/**
 * @file
 * Micro-benchmark: batched multi-head attention (Taylor vs softmax vs
 * unified) at the DeiT-Tiny/Small/Base shapes, batch sizes {1, 4, 16}
 * (MultiHeadAttention::forwardRaggedInto over B same-size images),
 * plus single-image end-to-end VitEncoder rows ("Encoder(<kernel>)",
 * batch 1) that run the full 12-layer stack through the encoder's
 * compiled plan — the fused-epilogue prepacked dense projections/MLP
 * and the intra-GEMM row-band fan-out that the MHA-only rows never
 * exercise — and ragged-path encoder rows
 * ("RaggedEncoder(Taylor)") sweeping the token-keep ratio over
 * {1.0, 0.7, 0.5, 0.35}. Ragged rows carry "ragged": true, their
 * "keep_ratio", and "tokens_per_s" (input token rows per second, the
 * throughput that stays comparable across keep ratios); the regression
 * checker keys rows on keep_ratio/ragged so pruned and unpruned runs
 * never gate against each other.
 *
 * A hybrid-schedule row ("PlannedEncoder(Taylor)", batch 1, "prepack":
 * "on") measures the same single-image forward under the paper-style
 * schedule taylor:0-5,softmax:6-11 (keyed by its "layers" text). The
 * regression checker keys on prepack/layers the same way it keys on
 * keep_ratio, so the hybrid never gates against the uniform rows.
 *
 * For each (model, kernel, batch) triple the bench runs the pooled
 * batched multi-head forward over packed inputs and reports mean and
 * median wall-clock per batch, per-image throughput, achieved GFLOP/s
 * (analytic per-image FLOPs x batch / median wall), and the analytic
 * per-image OpCounts. The sparse-branch kernels appear at both the
 * paper's training threshold (T = 0.5) and Sanger's default (0.02),
 * and their rows carry the *measured* mask density (mean over the
 * heads of image 0; -1 for kernels without a sparse branch and for
 * the encoder rows, whose 12 layers each see different activations) —
 * the number the sparse-branch cost actually scales with under
 * VITALITY_SPARSE=csr. The entry also records the execution
 * configuration that produced it — gemm_backend ("avx2" or "scalar",
 * override with VITALITY_GEMM), pool_threads (worker count),
 * gemm_threads (the intra-GEMM row-band width the main thread would
 * fan out, after the VITALITY_THREADS cap), epilogue (always
 * "fused"; older entries may read "fast"), sparse_mode ("csr" or
 * "dense", VITALITY_SPARSE), and quant_mode ("off" or "int8",
 * VITALITY_QUANT) — so the regression checker only compares runs
 * from matching configurations. Results are appended as
 * one timestamped, git-SHA-keyed entry to a trajectory JSON (an array
 * of runs), so BENCH_attention.json accumulates history across PRs
 * instead of being overwritten. A legacy single-snapshot file (the
 * pre-trajectory format, one JSON object) is wrapped into the array on
 * first append.
 *
 * Usage: bench_attention [reps] [trajectory.json] [preset]
 *   reps             repetitions per triple after one warmup (default 3)
 *   trajectory.json  append the run entry there (stdout always gets it;
 *                    pass "-" to skip the file)
 *   preset           case-insensitive substring filter on the model
 *                    name (e.g. "base" sweeps only DeiT-Base), so CI
 *                    can exercise one shape without tripling wall time
 *
 * The git SHA is taken from $BENCH_GIT_SHA (the explicit override — CI
 * sets it to the pull request's head SHA, because $GITHUB_SHA points at
 * the synthetic merge commit on pull_request events), then $GITHUB_SHA,
 * then `git rev-parse HEAD`, else "unknown".
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <sstream>
#include <string>
#include <vector>

#include "attention/unified_attention.h"
#include "attention/zoo.h"
#include "base/logging.h"
#include "base/rng.h"
#include "bench_util.h"
#include "model/encoder_plan.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "runtime/multi_head_attention.h"
#include "runtime/thread_pool.h"
#include "sparse/csr.h"
#include "tensor/gemm.h"
#include "tensor/matrix.h"
#include "tensor/ragged_batch.h"

using namespace vitality;
using benchutil::appendToTrajectory;
using benchutil::gitSha;
using benchutil::isoUtc;
using benchutil::median;
using benchutil::nowMs;

namespace {

struct Result
{
    std::string model;
    std::string kernel;
    size_t tokens, heads, headDim, batch;
    int reps;
    double wallMsMean;   // per batch invocation
    double wallMsMedian; // per batch invocation, median of reps
    double imagesPerSec; // batch / median wall seconds
    double gflopsPerSec; // analytic flops x batch / median wall
    double maskDensity;  // measured sparse-branch density; -1 = n/a
    bool ragged = false; // ran through the variable-token path
    double keepRatio = -1.0;    // token-keep ratio; -1 = no pruning sweep
    double tokensPerSec = -1.0; // input token rows / s; -1 = n/a
    int prepack = -1;    // 1 on the hybrid row (its historical key)
    std::string layers;  // planned kernel schedule; empty = uniform
    OpCounts counts;     // per image (all heads, one layer)
};

/**
 * Measured sparse-branch mask density for a packed input: the mean of
 * the per-head densities of image 0, from the same predictor pass the
 * timed forwards run. -1 for kernels without a sparse branch.
 */
double
measuredDensity(const AttentionKernel &kernel, size_t heads,
                const Matrix &q, const Matrix &k, const Matrix &v)
{
    const auto *sanger =
        dynamic_cast<const SangerSparseAttention *>(&kernel);
    const auto *unified = dynamic_cast<const UnifiedAttention *>(&kernel);
    if (!sanger && !unified)
        return -1.0;
    const size_t dh = q.cols() / heads;
    double sum = 0.0;
    for (size_t h = 0; h < heads; ++h) {
        const Matrix qh = q.colRange(h * dh, (h + 1) * dh);
        const Matrix kh = k.colRange(h * dh, (h + 1) * dh);
        const Matrix vh = v.colRange(h * dh, (h + 1) * dh);
        if (sanger) {
            SparseMask mask(0, 0);
            sanger->forwardWithMask(qh, kh, vh, &mask);
            sum += mask.density();
        } else {
            sum += unified->forwardDetailed(qh, kh, vh)
                       .sparseBranchDensity;
        }
    }
    return sum / static_cast<double>(heads);
}

/** One run entry: everything about this invocation, as a JSON object. */
std::string
entryJson(const std::vector<Result> &results, size_t pool_threads)
{
    const std::time_t now = std::time(nullptr);
    std::ostringstream os;
    os << "{\n  \"bench\": \"multi_head_attention\",\n";
    os << "  \"sha\": \"" << gitSha() << "\",\n";
    os << "  \"timestamp\": \"" << isoUtc(now) << "\",\n";
    os << "  \"unix_time\": " << static_cast<long long>(now) << ",\n";
    os << "  \"pool_threads\": " << pool_threads << ",\n";
    os << "  \"gemm_threads\": " << Gemm::parallelWidth() << ",\n";
    os << "  \"epilogue\": \""
       << Gemm::epilogueModeName(Gemm::epilogueMode()) << "\",\n";
    os << "  \"sparse_mode\": \"" << sparseExecName(sparseExecMode())
       << "\",\n";
    os << "  \"quant_mode\": \""
       << Gemm::quantModeName(Gemm::quantMode()) << "\",\n";
    os << "  \"gemm_backend\": \"" << Gemm::activeName() << "\",\n";
    os << "  \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        os << "    {\"model\": \"" << r.model << "\", \"kernel\": \""
           << r.kernel << "\", \"tokens\": " << r.tokens
           << ", \"heads\": " << r.heads
           << ", \"head_dim\": " << r.headDim
           << ", \"batch\": " << r.batch << ", \"reps\": " << r.reps
           << ", \"wall_ms_mean\": " << r.wallMsMean
           << ", \"wall_ms_median\": " << r.wallMsMedian
           << ", \"images_per_s\": " << r.imagesPerSec
           << ", \"gflops_per_s\": " << r.gflopsPerSec
           << ", \"mask_density\": " << r.maskDensity
           << ", \"ragged\": " << (r.ragged ? "true" : "false")
           << ", \"keep_ratio\": " << r.keepRatio
           << ", \"tokens_per_s\": " << r.tokensPerSec;
        // Plan columns only on planned-encoder rows: absent fields
        // keep legacy rows byte-identical, and the regression gate
        // keys on them only where they exist.
        if (r.prepack >= 0)
            os << ", \"prepack\": \"" << (r.prepack ? "on" : "off")
               << "\"";
        if (!r.layers.empty())
            os << ", \"layers\": \"" << r.layers << "\"";
        os << ", \"gflops_per_image\": "
           << static_cast<double>(r.counts.flops()) * 1e-9
           << ", \"ops_per_image\": {\"mul\": " << r.counts.mul
           << ", \"add\": " << r.counts.add
           << ", \"div\": " << r.counts.div
           << ", \"exp\": " << r.counts.exp << "}}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
    if (reps <= 0)
        fatal("bench_attention: reps must be positive");

    std::vector<VitConfig> models = {VitConfig::deitTiny(),
                                     VitConfig::deitSmall(),
                                     VitConfig::deitBase()};
    if (argc > 3) {
        // Case-insensitive substring preset filter ("base" keeps only
        // DeiT-Base), so CI can target one shape.
        const auto lowered = [](std::string s) {
            for (char &c : s)
                c = static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            return s;
        };
        const std::string wanted = lowered(argv[3]);
        std::vector<VitConfig> kept;
        for (VitConfig &cfg : models) {
            if (lowered(cfg.name).find(wanted) != std::string::npos)
                kept.push_back(std::move(cfg));
        }
        if (kept.empty()) {
            fatal("bench_attention: preset '%s' matches no model "
                  "(have: DeiT-Tiny, DeiT-Small, DeiT-Base)",
                  argv[3]);
        }
        models = std::move(kept);
    }
    // Encoder rows sweep the three end-to-end kernels; the MHA rows
    // additionally cover the sparse-branch kernels at the paper's
    // training threshold (0.5) and Sanger's default (0.02), so the
    // trajectory tracks the compressed strong branch at both density
    // regimes. Unified's default IS 0.5, keeping the historical
    // "Unified(T=0.5)" row key.
    const std::vector<AttentionType> encoderKernels = {
        AttentionType::Taylor, AttentionType::Softmax,
        AttentionType::Unified};
    const std::vector<AttentionKernelPtr> kernels = {
        makeAttention(AttentionType::Taylor),
        makeAttention(AttentionType::Softmax),
        makeAttention(AttentionType::Unified, 0.5f),
        makeAttention(AttentionType::Unified, 0.02f),
        makeAttention(AttentionType::SangerSparse, 0.5f),
        makeAttention(AttentionType::SangerSparse, 0.02f)};
    const std::vector<size_t> batchSizes = {1, 4, 16};
    const size_t maxBatch =
        *std::max_element(batchSizes.begin(), batchSizes.end());

    ThreadPool pool;
    inform("gemm backend: %s, pool threads: %zu, gemm threads: %zu, "
           "epilogue: %s, sparse: %s, quant: %s (override with "
           "VITALITY_GEMM / VITALITY_THREADS / VITALITY_SPARSE / "
           "VITALITY_QUANT)",
           Gemm::activeName(), pool.size(), Gemm::parallelWidth(),
           Gemm::epilogueModeName(Gemm::epilogueMode()),
           sparseExecName(sparseExecMode()),
           Gemm::quantModeName(Gemm::quantMode()));
    std::vector<Result> results;
    for (const VitConfig &cfg : models) {
        Rng rng(0xbe9c ^ cfg.dModel);
        std::vector<Matrix> qs, ks, vs;
        for (size_t b = 0; b < maxBatch; ++b) {
            // Unit-stddev Q/K: similarity logits then have sd ~1, which
            // gives peaked-enough attention that the two sparse
            // thresholds land in distinct density regimes (~3% at
            // T=0.02 vs rescue-only ~1/n at T=0.5, the shape trained
            // DeiT attention maps show in Fig. 14); at sd 0.5 the
            // predicted softmax is nearly uniform and every threshold
            // degenerates to the same rescue-only mask.
            qs.push_back(
                Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f));
            ks.push_back(
                Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f));
            vs.push_back(Matrix::randn(cfg.tokens, cfg.dModel, rng));
        }

        // The inputs depend only on (model, batch); pack each batch
        // once instead of re-copying it per kernel.
        struct BatchInputs
        {
            size_t batch;
            RaggedBatch q, k, v;
        };
        const auto pack = [](const std::vector<Matrix> &images,
                             size_t batch) {
            std::vector<const Matrix *> ptrs;
            for (size_t b = 0; b < batch; ++b)
                ptrs.push_back(&images[b]);
            return RaggedBatch::fromMatrices(ptrs.data(), batch);
        };
        std::vector<BatchInputs> inputs;
        for (size_t batch : batchSizes) {
            inputs.push_back({batch, pack(qs, batch), pack(ks, batch),
                              pack(vs, batch)});
        }

        // Single-image end-to-end encoder rows: the 12-layer dense path
        // (fused-epilogue QKV/output/MLP GEMMs, pool row bands) plus
        // attention — the stages the MHA-only rows never touch. Keyed
        // as kernel "Encoder(<name>)" at batch 1, so the regression
        // gate tracks the dense path separately.
        for (AttentionType type : encoderKernels) {
            VitEncoder encoder(cfg, makeAttention(type), 0x5eed);
            Matrix out;
            encoder.forwardInto(qs[0], pool, out); // warmup
            std::vector<double> laps(static_cast<size_t>(reps));
            for (int r = 0; r < reps; ++r) {
                const double t0 = nowMs();
                encoder.forwardInto(qs[0], pool, out);
                laps[static_cast<size_t>(r)] = nowMs() - t0;
            }
            double mean_ms = 0.0;
            for (double lap : laps)
                mean_ms += lap;
            mean_ms /= reps;
            const double median_ms = median(laps);

            Result res;
            res.model = cfg.name;
            res.kernel =
                "Encoder(" + attentionTypeName(type) + ")";
            res.tokens = cfg.tokens;
            res.heads = cfg.heads;
            res.headDim = cfg.headDim();
            res.batch = 1;
            res.reps = reps;
            res.wallMsMean = mean_ms;
            res.wallMsMedian = median_ms;
            res.imagesPerSec =
                median_ms > 0.0 ? 1.0 / (median_ms * 1e-3) : 0.0;
            res.maskDensity = -1.0; // per-layer activations differ
            res.counts = encoder.opCounts(); // per image, all layers
            res.gflopsPerSec =
                median_ms > 0.0
                    ? static_cast<double>(res.counts.flops()) /
                          (median_ms * 1e6)
                    : 0.0;
            results.push_back(res);

            inform("%-10s %-14s B=1  %8.3f ms/img   %8.1f img/s"
                   "  %7.2f GFLOP/s",
                   cfg.name.c_str(), res.kernel.c_str(), median_ms,
                   res.imagesPerSec, res.gflopsPerSec);
        }

        // Hybrid-schedule encoder row ("PlannedEncoder(Taylor)", batch
        // 1): the paper-style schedule (linear Taylor early, exact
        // softmax late), keyed by its "layers" text. Analytic counts
        // stay the base-kernel program (as on the pruned ragged rows),
        // so its GFLOP/s reads as effective throughput.
        {
            const std::string hybrid = "taylor:0-5,softmax:6-11";
            VitEncoder hybridEnc(cfg,
                                 makeAttention(AttentionType::Taylor),
                                 0x5eed);
            PlanOptions heteroOpts;
            heteroOpts.layerKernels = hybrid;
            hybridEnc.compilePlan(heteroOpts);
            Matrix out;
            hybridEnc.forwardInto(qs[0], pool, out); // warmup
            std::vector<double> laps(static_cast<size_t>(reps));
            for (int r = 0; r < reps; ++r) {
                const double t0 = nowMs();
                hybridEnc.forwardInto(qs[0], pool, out);
                laps[static_cast<size_t>(r)] = nowMs() - t0;
            }
            double mean_ms = 0.0;
            for (double lap : laps)
                mean_ms += lap;
            mean_ms /= reps;
            const double median_ms = median(laps);

            Result res;
            res.model = cfg.name;
            res.kernel = "PlannedEncoder(Taylor)";
            res.tokens = cfg.tokens;
            res.heads = cfg.heads;
            res.headDim = cfg.headDim();
            res.batch = 1;
            res.reps = reps;
            res.wallMsMean = mean_ms;
            res.wallMsMedian = median_ms;
            res.imagesPerSec =
                median_ms > 0.0 ? 1.0 / (median_ms * 1e-3) : 0.0;
            res.maskDensity = -1.0;
            res.prepack = 1;
            res.layers = hybrid;
            res.counts = hybridEnc.opCounts();
            res.gflopsPerSec =
                median_ms > 0.0
                    ? static_cast<double>(res.counts.flops()) /
                          (median_ms * 1e6)
                    : 0.0;
            results.push_back(res);

            inform("%-10s PlannedEnc hybrid         %8.3f ms/img   "
                   "%8.1f img/s  %7.2f GFLOP/s",
                   cfg.name.c_str(), median_ms, res.imagesPerSec,
                   res.gflopsPerSec);
        }

        // Ragged encoder rows under the token-keep sweep: the same
        // single image through forwardRagged with an explicit staged
        // schedule (VitConfig::withTokenKeep overrides the global
        // knob). keep=1.0 is the ragged control — bitwise equal to
        // Encoder(Taylor) above — and the pruned rows are the
        // variable-token payoff the trajectory tracks via tokens/s.
        for (const float keep : {1.0f, 0.7f, 0.5f, 0.35f}) {
            VitEncoder encoder(cfg.withTokenKeep(keep),
                               makeAttention(AttentionType::Taylor),
                               0x5eed);
            const Matrix *ptr = &qs[0];
            const RaggedBatch in = RaggedBatch::fromMatrices(&ptr, 1);
            RaggedBatch out;
            encoder.forwardRaggedInto(in, pool, out); // warmup
            std::vector<double> laps(static_cast<size_t>(reps));
            for (int r = 0; r < reps; ++r) {
                const double t0 = nowMs();
                encoder.forwardRaggedInto(in, pool, out);
                laps[static_cast<size_t>(r)] = nowMs() - t0;
            }
            double mean_ms = 0.0;
            for (double lap : laps)
                mean_ms += lap;
            mean_ms /= reps;
            const double median_ms = median(laps);

            Result res;
            res.model = cfg.name;
            res.kernel = "RaggedEncoder(Taylor)";
            res.tokens = cfg.tokens;
            res.heads = cfg.heads;
            res.headDim = cfg.headDim();
            res.batch = 1;
            res.reps = reps;
            res.wallMsMean = mean_ms;
            res.wallMsMedian = median_ms;
            res.imagesPerSec =
                median_ms > 0.0 ? 1.0 / (median_ms * 1e-3) : 0.0;
            res.maskDensity = -1.0;
            res.ragged = true;
            res.keepRatio = keep;
            // Input token rows per second: the throughput that stays
            // comparable across keep ratios (the request size is fixed;
            // pruning only shrinks the work).
            res.tokensPerSec =
                median_ms > 0.0
                    ? static_cast<double>(cfg.tokens) / (median_ms * 1e-3)
                    : 0.0;
            // Analytic counts are for the UNPRUNED program, so the
            // per-second figure under keep < 1 reads as effective
            // throughput (work avoided shows up as extra speed).
            res.counts = encoder.opCounts();
            res.gflopsPerSec =
                median_ms > 0.0
                    ? static_cast<double>(res.counts.flops()) /
                          (median_ms * 1e6)
                    : 0.0;
            results.push_back(res);

            inform("%-10s RaggedEnc keep=%.2f  %8.3f ms/img   "
                   "%8.1f img/s  %9.1f tok/s",
                   cfg.name.c_str(), static_cast<double>(keep),
                   median_ms, res.imagesPerSec, res.tokensPerSec);
        }

        for (const AttentionKernelPtr &kernel : kernels) {
            MultiHeadAttention mha(kernel, cfg.heads);
            const double density = measuredDensity(
                *kernel, cfg.heads, qs[0], ks[0], vs[0]);

            for (const BatchInputs &in : inputs) {
                const size_t batch = in.batch;
                RaggedBatch out;
                mha.forwardRaggedInto(pool, in.q, in.k, in.v, out); // warmup

                std::vector<double> laps(static_cast<size_t>(reps));
                for (int r = 0; r < reps; ++r) {
                    const double t0 = nowMs();
                    mha.forwardRaggedInto(pool, in.q, in.k, in.v, out);
                    laps[static_cast<size_t>(r)] = nowMs() - t0;
                }
                double mean_ms = 0.0;
                for (double lap : laps)
                    mean_ms += lap;
                mean_ms /= reps;
                const double median_ms = median(laps);

                Result res;
                res.model = cfg.name;
                res.kernel = kernel->name();
                res.tokens = cfg.tokens;
                res.heads = cfg.heads;
                res.headDim = cfg.headDim();
                res.batch = batch;
                res.reps = reps;
                res.wallMsMean = mean_ms;
                res.wallMsMedian = median_ms;
                res.imagesPerSec =
                    median_ms > 0.0
                        ? static_cast<double>(batch) / (median_ms * 1e-3)
                        : 0.0;
                res.maskDensity = density;
                res.counts = mha.opCounts(cfg.tokens, cfg.dModel);
                res.gflopsPerSec =
                    median_ms > 0.0
                        ? static_cast<double>(res.counts.flops()) *
                              static_cast<double>(batch) /
                              (median_ms * 1e6)
                        : 0.0;
                results.push_back(res);

                inform("%-10s %-14s B=%-2zu %8.3f ms/batch  %8.1f img/s"
                       "  %7.2f GFLOP/s%s",
                       cfg.name.c_str(), kernel->name().c_str(), batch,
                       median_ms, res.imagesPerSec, res.gflopsPerSec,
                       density >= 0.0
                           ? strfmt("  density=%.4f", density).c_str()
                           : "");
            }
        }
    }

    const std::string entry = entryJson(results, pool.size());
    std::printf("%s\n", entry.c_str());
    if (argc > 2 && std::string(argv[2]) != "-") {
        appendToTrajectory(argv[2], entry);
        inform("appended run to %s", argv[2]);
    }
    return 0;
}
