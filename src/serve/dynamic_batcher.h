/**
 * @file
 * DynamicBatcher: the ingress that turns concurrent single-image
 * requests into the batches the encoder is fast at.
 *
 * Submitters push token matrices into a bounded queue and get a
 * std::future back. Requests may carry MIXED token counts (any rows in
 * [1, preset tokens]; only the embedding width is fixed) — the
 * dispatcher packs whatever accumulated into one contiguous
 * RaggedBatch, so a 197-token image and a 50-token crop ride the same
 * forward. One dispatcher thread drains the queue under a two-knob
 * policy:
 *
 *   maxBatch       cut a batch as soon as this many requests are
 *                  waiting (throughput bound), and
 *   maxWaitMicros  never hold the OLDEST queued request longer than
 *                  this before dispatching whatever has accumulated
 *                  (latency bound — a lone request on an idle server
 *                  pays at most the window, not forever).
 *
 * The dispatcher packs via the ragged packRequests, runs
 * VitEncoder::forwardRaggedInto on the batcher's pool, and unpacks
 * each image's SURVIVING tokens into its request's future (under a
 * token-pruning keep ratio < 1.0 the response carries fewer rows than
 * the request — that is the service contract, not an error). Because
 * the ragged forward is bitwise-identical per image to a standalone
 * forward of the same image (vit_encoder.h) and pack/unpack are exact
 * copies, a request's result is bitwise-independent of what it was
 * batched with — asserted for every zoo kernel in test_serve. Compute
 * exceptions fan out to every future in the failed batch; the
 * dispatcher itself survives.
 *
 * Back-pressure and shutdown are synchronous and typed: submit()
 * throws ServeError{QueueFull} when policy.queueCapacity requests are
 * already waiting (the caller retries or sheds load — the queue never
 * grows unboundedly under overload) and ServeError{Stopping} once
 * shutdown began. shutdown() drains: everything accepted before the
 * stop flag flips is dispatched (in possibly-smaller final batches —
 * stopping waives the wait window) and completed before the dispatcher
 * joins, so no accepted request is ever dropped. The destructor calls
 * shutdown().
 *
 * The batcher takes no lock around the forward and touches no global
 * state: everything that differs between models (precision, kernel
 * schedule, keep ratio) is frozen into the encoder's compiled plan, so
 * batchers over different encoders may dispatch at the same time on
 * one shared pool.
 */

#ifndef VITALITY_SERVE_DYNAMIC_BATCHER_H
#define VITALITY_SERVE_DYNAMIC_BATCHER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "model/vit_encoder.h"
#include "runtime/thread_pool.h"
#include "serve/inference.h"
#include "serve/latency_reservoir.h"
#include "tensor/ragged_batch.h"

namespace vitality {

/** The two-knob batching policy plus the queue bound. */
struct BatchPolicy
{
    /** Dispatch as soon as this many requests are queued. */
    size_t maxBatch = 8;

    /**
     * Dispatch the oldest queued request no later than this, whatever
     * the batch size reached. 0 = dispatch immediately (no batching
     * window; batches still form under burst back-pressure).
     */
    uint64_t maxWaitMicros = 2000;

    /** submit() throws ServeError{QueueFull} past this many queued. */
    size_t queueCapacity = 64;

    /** Throws std::invalid_argument on nonsensical knobs. */
    void validate() const;
};

/** Counter snapshot a monitoring scrape reads in one call. */
struct BatcherStats
{
    uint64_t submitted = 0;      ///< Accepted by submit().
    uint64_t served = 0;         ///< Futures fulfilled with a response.
    uint64_t rejectedFull = 0;   ///< submit() throws: queue full.
    uint64_t rejectedStopping = 0; ///< submit() throws: stopping.
    uint64_t errors = 0;         ///< Futures fulfilled with an exception.
    uint64_t batches = 0;        ///< Batched forwards dispatched.
    uint64_t tokensSubmitted = 0; ///< Input token rows accepted.
    uint64_t tokensServed = 0;   ///< Input token rows of served reqs.
    size_t queueDepth = 0;       ///< Requests waiting right now.
    size_t maxBatchObserved = 0; ///< Largest batch dispatched so far.
    double p50Ms = 0.0, p95Ms = 0.0, p99Ms = 0.0; ///< Total latency.
    /**
     * Served input tokens per second since the first dispatch (0.0
     * before it): the throughput row that stays comparable when
     * requests carry mixed token counts and images/s alone would not.
     */
    double tokensPerSec = 0.0;
};

class DynamicBatcher
{
  public:
    /**
     * @param encoder Model every batch runs through. Not owned; must
     * outlive the batcher. The batcher is the encoder's only caller
     * (VitEncoder forwards are same-instance exclusive).
     * @param pool Pool the batched forward fans out across. Not owned;
     * may be shared with other batchers.
     * @param policy Validated batching policy.
     */
    DynamicBatcher(VitEncoder &encoder, ThreadPool &pool,
                   BatchPolicy policy);

    /** Calls shutdown(). */
    ~DynamicBatcher();

    DynamicBatcher(const DynamicBatcher &) = delete;
    DynamicBatcher &operator=(const DynamicBatcher &) = delete;

    /**
     * Enqueue one image (copied). Returns the future that completes
     * when the request's batch has run. Throws ServeError with
     * BadRequest for token-count-incompatible inputs (rows outside
     * [1, preset tokens] or columns != dModel) and for non-finite
     * tokens (NaN/Inf) — typed here at the ingress in every build
     * instead of surfacing as a downstream VITALITY_CHECK abort or a
     * NaN response — QueueFull, or Stopping; on throw, nothing was
     * enqueued.
     */
    std::future<InferenceResponse> submit(const Matrix &tokens);

    /**
     * Stop accepting, dispatch everything already accepted (final
     * batches skip the wait window), complete every future, join the
     * dispatcher. Idempotent; safe to call concurrently with
     * submitters (they get ServeError{Stopping}).
     */
    void shutdown();

    BatcherStats stats() const;

    const BatchPolicy &policy() const { return policy_; }

  private:
    struct Pending
    {
        uint64_t id = 0;
        Matrix tokens;
        std::promise<InferenceResponse> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    void dispatchLoop();
    void runBatch(std::vector<Pending> &batch);

    VitEncoder &encoder_;
    ThreadPool &pool_;
    const BatchPolicy policy_;

    mutable std::mutex mutex_; ///< Guards queue_, stopping_, nextId_.
    std::condition_variable cv_;
    std::deque<Pending> queue_;
    bool stopping_ = false;
    uint64_t nextId_ = 1;

    std::mutex shutdownMutex_; ///< Serializes shutdown() callers.
    bool joined_ = false;

    /** Dispatcher-thread scratch, recycled across batches. */
    RaggedBatch packed_, encoded_;
    std::vector<const Matrix *> inputPtrs_;

    /** Monotonic counters (lock-free scrape). */
    std::atomic<uint64_t> submitted_{0}, served_{0}, rejectedFull_{0},
        rejectedStopping_{0}, errors_{0}, batches_{0},
        tokensSubmitted_{0}, tokensServed_{0};

    mutable std::mutex statsMutex_; ///< Guards reservoir_ + maxBatch.
    LatencyReservoir reservoir_;
    size_t maxBatchObserved_ = 0;
    /** First dispatch time, the tokens/s rate base (statsMutex_). */
    bool dispatchClockSet_ = false;
    std::chrono::steady_clock::time_point firstDispatch_;

    std::thread dispatcher_;
};

} // namespace vitality

#endif // VITALITY_SERVE_DYNAMIC_BATCHER_H
