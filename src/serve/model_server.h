/**
 * @file
 * ModelServer: the multi-model front-end over DynamicBatcher.
 *
 * A deployment serves several (preset, kernel) variants at once — the
 * latency/accuracy frontier the paper's Table IV sweeps becomes, in
 * production, a registry of models a router picks from. ModelServer
 * owns that registry: addModel() builds a VitEncoder plus a
 * DynamicBatcher per ModelConfig, keyed "preset/kernel" (e.g.
 * "DeiT-Tiny/Taylor" — both halves round-trip through VitConfig
 * presets and kernelName/kernelFromName, so a key in a config file is
 * checkable), submit() routes a request to its model's batcher, and
 * stats() exposes each batcher's counters and latency percentiles.
 *
 * Each model's execution mode is frozen into its encoder's compiled
 * plan at addModel: precision (quantMode), kernel schedule
 * (layerKernels) and token keep ratio (tokenKeep). Nothing per model
 * is read from process state at dispatch, so models dispatch
 * concurrently on the server's one shared ThreadPool — an int8 model
 * and an fp32 model run at the same time. This is safe because
 * ThreadPool::parallelFor may be called from several non-worker
 * threads, each encoder owns its attention contexts and activations,
 * and GEMM and quantization scratch are thread-local. The remaining
 * knobs (GEMM backend, thread cap, epilogue, sparse path) are
 * process-wide: set them with RuntimeOptions::apply before serving.
 *
 * shutdown() stops accepting (addModel and submit throw
 * ServeError{Stopping}), then drains every batcher — all accepted
 * requests complete. The destructor calls shutdown().
 */

#ifndef VITALITY_SERVE_MODEL_SERVER_H
#define VITALITY_SERVE_MODEL_SERVER_H

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attention/zoo.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"
#include "serve/dynamic_batcher.h"
#include "serve/inference.h"

namespace vitality {

/** Everything needed to register one servable model. */
struct ModelConfig
{
    /** Architecture preset; cfg.name becomes the key's first half. */
    VitConfig preset;

    /** Attention kernel, constructed via makeAttention. */
    AttentionType kernel = AttentionType::Taylor;

    /**
     * Sparsity threshold for the sparse-branch kernels; ignored (and
     * must stay unset) for the others. Unset = the kernel's default.
     */
    std::optional<float> threshold;

    /** Batching policy for this model's DynamicBatcher. */
    BatchPolicy policy;

    /**
     * Per-model execution mode, frozen into the plan at addModel:
     * quantMode, tokenKeep and layerKernels; a disengaged field reads
     * the process knob once, at registration. The process-wide fields
     * (gemmBackend, threads, epilogueMode, sparseMode) must stay
     * disengaged — addModel rejects them.
     */
    RuntimeOptions options;

    /** Weight-initialization seed. */
    uint64_t seed = 0x5eedULL;
};

class ModelServer
{
  public:
    /**
     * @param poolThreads Workers in the shared pool; 0 = the
     * ThreadPool default (VITALITY_THREADS, else hardware
     * concurrency).
     */
    explicit ModelServer(size_t poolThreads = 0);

    /** Calls shutdown(). */
    ~ModelServer();

    ModelServer(const ModelServer &) = delete;
    ModelServer &operator=(const ModelServer &) = delete;

    /**
     * Register a model; returns its key ("preset/kernel"). Validates
     * the preset, policy, threshold applicability, and that options
     * pins only per-model fields. Throws std::invalid_argument on a
     * duplicate key or invalid config, ServeError{Stopping} after
     * shutdown.
     */
    std::string addModel(const ModelConfig &config);

    /**
     * Route one request to the model under key. Throws
     * ServeError{UnknownModel} for an unregistered key; otherwise
     * DynamicBatcher::submit's contract (BadRequest / QueueFull /
     * Stopping).
     */
    std::future<InferenceResponse> submit(const std::string &key,
                                          const Matrix &tokens);

    /** Stats of the model under key (ServeError{UnknownModel} else). */
    BatcherStats stats(const std::string &key) const;

    /** Registered keys, sorted. */
    std::vector<std::string> models() const;

    /** The key addModel(config) would return. */
    static std::string modelKey(const ModelConfig &config);

    /**
     * Stop accepting and drain every batcher; idempotent. All
     * requests accepted before the stop complete.
     */
    void shutdown();

    ThreadPool &pool() { return pool_; }

  private:
    struct Entry
    {
        // Construction order matters: the batcher's dispatcher thread
        // uses the encoder, so encoder must outlive it — member order
        // destroys batcher first.
        std::unique_ptr<VitEncoder> encoder;
        std::unique_ptr<DynamicBatcher> batcher;
    };

    DynamicBatcher &find(const std::string &key) const;

    ThreadPool pool_;

    mutable std::mutex registryMutex_;
    std::map<std::string, Entry> registry_;
    bool stopping_ = false;
};

} // namespace vitality

#endif // VITALITY_SERVE_MODEL_SERVER_H
