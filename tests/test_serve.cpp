/**
 * @file
 * Serving-engine suite: DynamicBatcher policy edges, bitwise identity
 * of served results vs direct forwards (for every zoo kernel),
 * ModelServer registry/error paths, concurrent dispatch of an fp32 and
 * an int8 model (run under TSan), RuntimeOptions resolution, and the
 * zoo kernel-id round-trip.
 *
 * Timing-dependent edges are asserted structurally, not by wall
 * clock: the max-wait test proves a partial batch dispatches at all
 * (a lone request completes — if the window never fired it would hang
 * forever, which the harness would report as a timeout), the burst
 * test proves no dispatched batch ever exceeded maxBatch via the
 * maxBatchObserved stat, and the queue-full test drives submissions
 * until the typed rejection appears rather than assuming a scheduler
 * interleaving.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attention/zoo.h"
#include "base/rng.h"
#include "model/encoder_plan.h"
#include "model/request_batch.h"
#include "model/token_pruner.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"
#include "serve/dynamic_batcher.h"
#include "serve/latency_reservoir.h"
#include "serve/model_server.h"
#include "tensor/gemm.h"
#include "testing.h"

using namespace vitality;

namespace {

/** Small config so every-kernel sweeps stay fast on one core. */
VitConfig
tinyConfig()
{
    VitConfig cfg = VitConfig::deitTiny();
    cfg.layers = 2;
    return cfg;
}

Matrix
randomTokens(const VitConfig &cfg, uint64_t seed)
{
    Rng rng(seed);
    return Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f);
}

/**
 * The direct-forward twin of one served request: a single-image ragged
 * forward. This is the reference the serving layer promises bitwise
 * identity against — it honors whatever token-keep schedule is in
 * effect, so the identity assertions below hold unchanged when the
 * suite runs under a VITALITY_TOKENS pruning sweep (the CI keep-ratio
 * legs), where served outputs carry fewer rows than inputs.
 */
Matrix
refForward(VitEncoder &encoder, const Matrix &in, ThreadPool &pool)
{
    const Matrix *ptr = &in;
    const RaggedBatch out =
        encoder.forwardRagged(RaggedBatch::fromMatrices(&ptr, 1), pool);
    Matrix img;
    out.unpackImage(0, img);
    return img;
}

// ---------------------------------------------------------------- zoo

void
testKernelNameRoundTrip()
{
    for (AttentionType type : allAttentionTypes()) {
        const std::string name = kernelName(type);
        T_CHECK(!name.empty());
        const std::optional<AttentionType> back = kernelFromName(name);
        T_CHECK(back && *back == type);
    }
    // Case-insensitive, and unknown text is nullopt not a throw.
    T_CHECK(kernelFromName("taylor") &&
            *kernelFromName("taylor") == AttentionType::Taylor);
    T_CHECK(kernelFromName("SOFTMAX") &&
            *kernelFromName("SOFTMAX") == AttentionType::Softmax);
    T_CHECK(!kernelFromName("does-not-exist"));
    T_CHECK(!kernelFromName(""));
}

void
testMakeAttentionThreshold()
{
    // The threshold overload builds only the sparse-branch kernels.
    T_CHECK(makeAttention(AttentionType::SangerSparse, 0.1f)->type() ==
            AttentionType::SangerSparse);
    T_CHECK(makeAttention(AttentionType::Unified, 0.1f)->type() ==
            AttentionType::Unified);
    T_CHECK_THROWS(makeAttention(AttentionType::Taylor, 0.1f),
                   std::invalid_argument);
    T_CHECK_THROWS(makeAttention(AttentionType::Softmax, 0.1f),
                   std::invalid_argument);
}

// ---------------------------------------------- pack/unpack helpers

void
testPackUnpack()
{
    Rng rng(7);
    std::vector<Matrix> imgs;
    for (size_t rows : {4, 1, 7})
        imgs.push_back(Matrix::randn(rows, 5, rng));
    std::vector<const Matrix *> ptrs;
    for (const Matrix &m : imgs)
        ptrs.push_back(&m);

    RaggedBatch packed;
    packRequests(packed, ptrs.data(), ptrs.size());
    T_CHECK(packed.size() == 3 && packed.totalRows() == 12 &&
            packed.cols() == 5);

    Matrix out;
    for (size_t i = 0; i < 3; ++i) {
        unpackImage(packed, i, out);
        T_CHECK(out == imgs[i]);
    }
    T_CHECK_THROWS(unpackImage(packed, 3, out), std::out_of_range);

    T_CHECK_THROWS(packRequests(packed, ptrs.data(), 0),
                   std::invalid_argument);
    const Matrix odd(4, 6);
    ptrs[1] = &odd;
    T_CHECK_THROWS(packRequests(packed, ptrs.data(), ptrs.size()),
                   std::invalid_argument);
    ptrs[1] = nullptr;
    T_CHECK_THROWS(packRequests(packed, ptrs.data(), ptrs.size()),
                   std::invalid_argument);
}

// ------------------------------------------------ latency reservoir

void
testLatencyReservoir()
{
    LatencyReservoir res(8, 42);
    T_CHECK(res.count() == 0 && res.quantile(0.5) == 0.0);
    for (int i = 1; i <= 8; ++i)
        res.record(i);
    // Below capacity the reservoir holds everything: exact quantiles.
    T_CHECK(res.size() == 8 && res.count() == 8);
    T_CHECK_CLOSE(res.quantile(0.0), 1.0, 1e-12);
    T_CHECK_CLOSE(res.quantile(1.0), 8.0, 1e-12);
    for (int i = 0; i < 1000; ++i)
        res.record(100.0);
    // Past capacity it stays bounded and samples drift to the stream.
    T_CHECK(res.size() == 8 && res.count() == 1008);
    T_CHECK(res.quantile(0.5) > 1.0);
    // Deterministic: same seed, same records, same quantiles.
    LatencyReservoir a(16, 9), b(16, 9);
    for (int i = 0; i < 500; ++i) {
        a.record(i % 37);
        b.record(i % 37);
    }
    T_CHECK_CLOSE(a.quantile(0.95), b.quantile(0.95), 0.0);
    T_CHECK_THROWS(LatencyReservoir(0), std::invalid_argument);
}

// ------------------------------------------------- RuntimeOptions

void
testRuntimeOptionsResolution()
{
    // current() is fully engaged and reflects the process state.
    const RuntimeOptions cur = RuntimeOptions::current();
    T_CHECK(cur.gemmBackend && cur.threads && cur.epilogueMode &&
            cur.sparseMode && cur.quantMode);
    T_CHECK(!cur.empty());
    T_CHECK(*cur.gemmBackend == Gemm::active());

    // resolved() keeps explicit values and fills the rest in.
    RuntimeOptions opts;
    T_CHECK(opts.empty());
    opts.sparseMode = SparseExec::Dense;
    const RuntimeOptions r = opts.resolved();
    T_CHECK(*r.sparseMode == SparseExec::Dense);
    T_CHECK(*r.quantMode == *cur.quantMode);

    // apply() installs engaged fields only; Scoped restores.
    const SparseExec before = sparseExecMode();
    {
        RuntimeOptions pin;
        pin.sparseMode = before == SparseExec::Csr ? SparseExec::Dense
                                                   : SparseExec::Csr;
        RuntimeOptions::Scoped scoped(pin);
        T_CHECK(sparseExecMode() == *pin.sparseMode);
        T_CHECK(Gemm::quantMode() == *cur.quantMode); // untouched
    }
    T_CHECK(sparseExecMode() == before);

    // Nested guards unwind in order.
    {
        RuntimeOptions outer;
        outer.quantMode = Gemm::QuantMode::Int8;
        RuntimeOptions::Scoped s1(outer);
        T_CHECK(Gemm::quantMode() == Gemm::QuantMode::Int8);
        {
            RuntimeOptions inner;
            inner.quantMode = Gemm::QuantMode::Off;
            RuntimeOptions::Scoped s2(inner);
            T_CHECK(Gemm::quantMode() == Gemm::QuantMode::Off);
        }
        T_CHECK(Gemm::quantMode() == Gemm::QuantMode::Int8);
    }
    T_CHECK(Gemm::quantMode() == *cur.quantMode);

    // Unavailable backend: apply throws, nothing half-applied.
    if (!Gemm::available(Gemm::Backend::Avx2)) {
        RuntimeOptions bad;
        bad.gemmBackend = Gemm::Backend::Avx2;
        bad.quantMode = Gemm::QuantMode::Int8;
        T_CHECK_THROWS(bad.apply(), std::invalid_argument);
        T_CHECK(Gemm::quantMode() == *cur.quantMode);
    }

    // summary() mentions engaged fields and dashes the rest.
    RuntimeOptions one;
    one.quantMode = Gemm::QuantMode::Int8;
    T_CHECK(one.summary().find("quant=int8") != std::string::npos);
    T_CHECK(one.summary().find("gemm=-") != std::string::npos);
    T_CHECK(RuntimeOptions::fromEnv().summary().size() > 0);
}

void
testParseHelpers()
{
    T_CHECK(parseSparseExec("csr") == SparseExec::Csr);
    T_CHECK(parseSparseExec("dense") == SparseExec::Dense);
    T_CHECK(!parseSparseExec("bogus"));
}

// ------------------------------------------------- DynamicBatcher

void
testPolicyValidation()
{
    BatchPolicy p;
    p.maxBatch = 0;
    T_CHECK_THROWS(p.validate(), std::invalid_argument);
    p.maxBatch = 8;
    p.queueCapacity = 4; // < maxBatch
    T_CHECK_THROWS(p.validate(), std::invalid_argument);
    p.queueCapacity = 8;
    p.validate(); // does not throw
}

/**
 * The acceptance criterion: a request served through the batcher is
 * bitwise-identical to a direct single-image ragged forward with the
 * same config/kernel/seed — for EVERY kernel in the zoo, and
 * regardless of what the request was batched with.
 */
void
testServedBitwiseIdentity()
{
    const VitConfig cfg = tinyConfig();
    ThreadPool pool(2);
    for (AttentionType type : allAttentionTypes()) {
        VitEncoder reference(cfg, makeAttention(type), 0xabc);
        const Matrix in0 = randomTokens(cfg, 11);
        const Matrix in1 = randomTokens(cfg, 22);
        const Matrix want0 = refForward(reference, in0, pool);
        const Matrix want1 = refForward(reference, in1, pool);

        VitEncoder served(cfg, makeAttention(type), 0xabc);
        BatchPolicy policy;
        policy.maxBatch = 4;
        policy.maxWaitMicros = 5000;
        DynamicBatcher batcher(served, pool, policy);
        // Two concurrent requests: they may ride one batch or two.
        std::future<InferenceResponse> f0 = batcher.submit(in0);
        std::future<InferenceResponse> f1 = batcher.submit(in1);
        const InferenceResponse r0 = f0.get();
        const InferenceResponse r1 = f1.get();
        T_CHECK(r0.output == want0);
        T_CHECK(r1.output == want1);
        T_CHECK(r0.requestId != r1.requestId);
        T_CHECK(r0.batchSize >= 1 && r0.batchSize <= 4);
        T_CHECK(r0.totalMs >= r0.computeMs);
        batcher.shutdown();
        const BatcherStats s = batcher.stats();
        T_CHECK(s.submitted == 2 && s.served == 2 && s.errors == 0);
    }
}

/** Max-wait edge: a lone request dispatches as a partial batch. */
void
testMaxWaitFiresPartialBatch()
{
    const VitConfig cfg = tinyConfig();
    ThreadPool pool(2);
    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor));
    BatchPolicy policy;
    policy.maxBatch = 64; // never reachable with one submitter
    policy.maxWaitMicros = 500;
    policy.queueCapacity = 64;
    DynamicBatcher batcher(encoder, pool, policy);
    // If the wait window never fired, this get() would hang (ctest
    // timeout); completing proves the timer path.
    const InferenceResponse r =
        batcher.submit(randomTokens(cfg, 1)).get();
    T_CHECK(r.batchSize == 1);
    const BatcherStats s = batcher.stats();
    T_CHECK(s.batches == 1 && s.maxBatchObserved == 1);
}

/** Burst edge: many queued requests dispatch in <= maxBatch chunks. */
void
testMaxBatchCutoffUnderBurst()
{
    const VitConfig cfg = tinyConfig();
    ThreadPool pool(2);
    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor));
    BatchPolicy policy;
    policy.maxBatch = 3;
    policy.maxWaitMicros = 200000; // only the cutoff ends a window
    policy.queueCapacity = 32;
    DynamicBatcher batcher(encoder, pool, policy);
    const Matrix in = randomTokens(cfg, 2);
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 10; ++i)
        futures.push_back(batcher.submit(in));
    for (std::future<InferenceResponse> &f : futures) {
        const InferenceResponse r = f.get();
        T_CHECK(r.batchSize >= 1 && r.batchSize <= 3);
    }
    batcher.shutdown();
    const BatcherStats s = batcher.stats();
    T_CHECK(s.served == 10);
    T_CHECK(s.maxBatchObserved <= 3);
    // 10 requests in <=3-sized batches needs at least 4 dispatches.
    T_CHECK(s.batches >= 4);
    T_CHECK(s.queueDepth == 0);
}

/** Queue-full edge: the bounded queue rejects with the typed error. */
void
testQueueFullRejection()
{
    const VitConfig cfg = tinyConfig();
    ThreadPool pool(2);
    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor));
    BatchPolicy policy;
    policy.maxBatch = 2;
    policy.maxWaitMicros = 200000; // slow drain: windows stay open
    policy.queueCapacity = 4;
    DynamicBatcher batcher(encoder, pool, policy);
    const Matrix in = randomTokens(cfg, 3);
    std::vector<std::future<InferenceResponse>> futures;
    bool sawFull = false;
    // The dispatcher drains while we flood, so a fixed submit count
    // can't assert an exact rejection tally; submit until the typed
    // rejection appears (bounded — the encoder can't keep up with a
    // tight submit loop for long).
    for (int i = 0; i < 10000 && !sawFull; ++i) {
        try {
            futures.push_back(batcher.submit(in));
        } catch (const ServeError &e) {
            T_CHECK(e.code() == ServeErrorCode::QueueFull);
            sawFull = true;
        }
    }
    T_CHECK(sawFull);
    const BatcherStats mid = batcher.stats();
    T_CHECK(mid.rejectedFull >= 1);
    // Everything accepted still completes.
    for (std::future<InferenceResponse> &f : futures)
        (void)f.get();
    batcher.shutdown();
    const BatcherStats s = batcher.stats();
    T_CHECK(s.served == futures.size());
    T_CHECK(s.errors == 0);
}

/** Shutdown drains: accepted requests complete, late ones reject. */
void
testShutdownDrainsInFlight()
{
    const VitConfig cfg = tinyConfig();
    ThreadPool pool(2);
    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor));
    BatchPolicy policy;
    policy.maxBatch = 2;
    policy.maxWaitMicros = 100000;
    policy.queueCapacity = 32;
    DynamicBatcher batcher(encoder, pool, policy);
    const Matrix in = randomTokens(cfg, 4);
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 7; ++i)
        futures.push_back(batcher.submit(in));
    batcher.shutdown(); // returns only after the queue drained
    for (std::future<InferenceResponse> &f : futures)
        (void)f.get(); // no future was dropped or failed
    const BatcherStats s = batcher.stats();
    T_CHECK(s.served == 7 && s.errors == 0 && s.queueDepth == 0);
    T_CHECK_THROWS(batcher.submit(in), ServeError);
    try {
        batcher.submit(in);
    } catch (const ServeError &e) {
        T_CHECK(e.code() == ServeErrorCode::Stopping);
    }
    batcher.shutdown(); // idempotent
}

void
testSubmitShapeValidation()
{
    const VitConfig cfg = tinyConfig();
    ThreadPool pool(1);
    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor));
    DynamicBatcher batcher(encoder, pool, BatchPolicy{});
    // Token-count-incompatible inputs get the typed BadRequest at the
    // ingress: too many rows, zero rows, or a wrong embedding width.
    // So do non-finite tokens, in every build (a checked build would
    // otherwise abort in the encoder's finite-input contract).
    const Matrix tooTall(cfg.tokens + 1, cfg.dModel);
    const Matrix zeroRows(0, cfg.dModel);
    const Matrix wrongCols(cfg.tokens, cfg.dModel + 1);
    Matrix withNan(cfg.tokens, cfg.dModel), withInf(2, cfg.dModel);
    withNan(cfg.tokens / 2, 3) = std::numeric_limits<float>::quiet_NaN();
    withInf(1, cfg.dModel - 1) = std::numeric_limits<float>::infinity();
    const Matrix *bads[] = {&tooTall, &zeroRows, &wrongCols, &withNan,
                            &withInf};
    for (const Matrix *bad : bads) {
        try {
            batcher.submit(*bad);
            T_CHECK(false && "submit accepted an incompatible input");
        } catch (const ServeError &e) {
            T_CHECK(e.code() == ServeErrorCode::BadRequest);
        }
    }
    const BatcherStats s = batcher.stats();
    T_CHECK(s.submitted == 0 && s.tokensSubmitted == 0);
    // Fewer rows than the preset is NOT an error — mixed token counts
    // are the point.
    Rng rng(0x51ff);
    const Matrix small = Matrix::randn(3, cfg.dModel, rng);
    (void)batcher.submit(small).get();
}

/**
 * Mixed token counts ride one batcher: every request's result equals
 * its own single-image ragged forward (whatever it was batched with),
 * and the token-level stats account for the accepted input rows.
 */
void
testMixedTokenCountServing()
{
    const VitConfig cfg = tinyConfig();
    ThreadPool pool(2);
    VitEncoder reference(cfg, makeAttention(AttentionType::Taylor), 0x9);
    Rng rng(0x3117);
    std::vector<Matrix> inputs;
    const size_t lens[] = {1, 7, cfg.tokens, 3, cfg.tokens};
    size_t totalTokens = 0;
    for (size_t n : lens) {
        inputs.push_back(Matrix::randn(n, cfg.dModel, rng, 0.0f, 1.0f));
        totalTokens += n;
    }
    std::vector<Matrix> wants;
    for (const Matrix &in : inputs)
        wants.push_back(refForward(reference, in, pool));

    VitEncoder served(cfg, makeAttention(AttentionType::Taylor), 0x9);
    BatchPolicy policy;
    policy.maxBatch = 3; // force at least two mixed batches
    policy.maxWaitMicros = 5000;
    DynamicBatcher batcher(served, pool, policy);
    std::vector<std::future<InferenceResponse>> futures;
    for (const Matrix &in : inputs)
        futures.push_back(batcher.submit(in));
    for (size_t i = 0; i < futures.size(); ++i)
        T_CHECK(futures[i].get().output == wants[i]);
    batcher.shutdown();

    const BatcherStats s = batcher.stats();
    T_CHECK(s.served == 5 && s.errors == 0);
    T_CHECK(s.tokensSubmitted == totalTokens);
    T_CHECK(s.tokensServed == totalTokens);
    T_CHECK(s.tokensPerSec > 0.0);
}

// --------------------------------------------------- ModelServer

void
testModelServerRegistryAndRouting()
{
    const VitConfig cfg = tinyConfig();
    ModelServer server(2);

    ModelConfig taylor;
    taylor.preset = cfg;
    taylor.kernel = AttentionType::Taylor;
    taylor.seed = 0x111;
    const std::string kTaylor = server.addModel(taylor);
    T_CHECK(kTaylor == cfg.name + "/Taylor");

    ModelConfig softmax = taylor;
    softmax.kernel = AttentionType::Softmax;
    const std::string kSoftmax = server.addModel(softmax);

    T_CHECK_THROWS(server.addModel(taylor), std::invalid_argument);
    T_CHECK(server.models().size() == 2);

    // Routing: each key reaches its own model (different kernels give
    // different outputs on the same input).
    const Matrix in = randomTokens(cfg, 5);
    const Matrix outT = server.submit(kTaylor, in).get().output;
    const Matrix outS = server.submit(kSoftmax, in).get().output;
    T_CHECK(outT != outS);

    // And each equals its direct-encoder twin, bitwise.
    ThreadPool pool(2);
    VitEncoder ref(cfg, makeAttention(AttentionType::Taylor), 0x111);
    T_CHECK(outT == refForward(ref, in, pool));

    T_CHECK_THROWS(server.submit("nope/Nope", in), ServeError);
    T_CHECK_THROWS(server.stats("nope/Nope"), ServeError);
    const BatcherStats s = server.stats(kTaylor);
    T_CHECK(s.served == 1 && s.submitted == 1);
    T_CHECK(s.p50Ms > 0.0 && s.p99Ms >= s.p50Ms);

    server.shutdown();
    T_CHECK_THROWS(server.submit(kTaylor, in), ServeError);
    T_CHECK_THROWS(server.addModel(softmax), ServeError);
    server.shutdown(); // idempotent
}

void
testModelServerConfigValidation()
{
    const VitConfig cfg = tinyConfig();
    ModelServer server(1);

    // Threshold on a kernel without one.
    ModelConfig bad;
    bad.preset = cfg;
    bad.kernel = AttentionType::Taylor;
    bad.threshold = 0.5f;
    T_CHECK_THROWS(server.addModel(bad), std::invalid_argument);

    // Threshold on a sparse kernel works and serves.
    ModelConfig sparse;
    sparse.preset = cfg;
    sparse.kernel = AttentionType::SangerSparse;
    sparse.threshold = 0.02f;
    const std::string key = server.addModel(sparse);
    const InferenceResponse r =
        server.submit(key, randomTokens(cfg, 6)).get();
    // Under a token-keep sweep the response may carry fewer rows.
    T_CHECK(r.output.rows() >= 1 && r.output.rows() <= cfg.tokens);
    T_CHECK(r.output.cols() == cfg.dModel);
}

/**
 * Only the fields a plan freezes are per model: pinning any of the
 * process-wide knobs fails registration, and the per-model ones
 * register.
 */
void
testModelServerRejectsProcessWideOptions()
{
    ModelServer server(1);
    ModelConfig base;
    base.preset = tinyConfig();
    base.kernel = AttentionType::Unified;
    std::vector<ModelConfig> pinned(4, base);
    pinned[0].options.gemmBackend = Gemm::Backend::Scalar;
    pinned[1].options.threads = size_t{1};
    pinned[2].options.epilogueMode = Gemm::EpilogueMode::Fused;
    pinned[3].options.sparseMode = SparseExec::Dense;
    for (const ModelConfig &mc : pinned)
        T_CHECK_THROWS(server.addModel(mc), std::invalid_argument);
    T_CHECK(server.models().empty());

    ModelConfig perModel = base;
    perModel.options.quantMode = Gemm::QuantMode::Int8;
    perModel.options.tokenKeep = 0.5f;
    perModel.options.layerKernels = std::string();
    (void)server.addModel(perModel);
    T_CHECK(server.models().size() == 1);
}

/**
 * A model pinned to a token-keep policy prunes exactly per the staged
 * schedule analytics, while the ambient process keep ratio is
 * untouched after dispatch.
 */
void
testModelServerPinnedTokenKeep()
{
    const VitConfig cfg = tinyConfig();
    const float ambient = tokenKeepRatio();

    ModelServer server(2);
    ModelConfig pruned;
    pruned.preset = cfg;
    pruned.kernel = AttentionType::Taylor;
    pruned.options.tokenKeep = 0.5f;
    const std::string key = server.addModel(pruned);

    const Matrix in = randomTokens(cfg, 17);
    const Matrix out = server.submit(key, in).get().output;
    // tinyConfig has 2 layers: the staged schedule prunes once (after
    // layer 0), so the survivors are one keptTokens application.
    std::vector<float> sched;
    TokenPruner::buildSchedule(sched, cfg.layers, 0.5f);
    size_t want = cfg.tokens;
    for (float keep : sched)
        want = TokenPruner::keptTokens(want, keep);
    T_CHECK(want < cfg.tokens); // the policy actually prunes
    T_CHECK(out.rows() == want);
    T_CHECK(tokenKeepRatio() == ambient);
    server.shutdown();
}

/** Concurrent submitters: many threads, one server, no losses. */
void
testConcurrentSubmitStress()
{
    const VitConfig cfg = tinyConfig();
    ModelServer server(2);
    ModelConfig mc;
    mc.preset = cfg;
    mc.kernel = AttentionType::Taylor;
    mc.policy.maxBatch = 4;
    mc.policy.maxWaitMicros = 1000;
    mc.policy.queueCapacity = 128;
    const std::string key = server.addModel(mc);

    ThreadPool refPool(2);
    VitEncoder ref(cfg, makeAttention(AttentionType::Taylor));
    const Matrix in = randomTokens(cfg, 13);
    const Matrix want = refForward(ref, in, refPool);

    constexpr int kThreads = 4, kPerThread = 6;
    std::atomic<int> matches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                const InferenceResponse r =
                    server.submit(key, in).get();
                if (r.output == want)
                    matches.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    T_CHECK(matches.load() == kThreads * kPerThread);
    const BatcherStats s = server.stats(key);
    T_CHECK(s.served == kThreads * kPerThread);
    T_CHECK(s.errors == 0 && s.rejectedFull == 0);
    T_CHECK(s.maxBatchObserved <= 4);
    server.shutdown();
}

/**
 * Models dispatch concurrently on one pool with no gate: an fp32
 * Taylor model at keep 1.0 and a Softmax model pinned to int8 at keep
 * 0.5, hammered from four threads. Every response equals, bitwise, a
 * solo forward of a same-seed encoder compiled with the same
 * PlanOptions. CI runs this under TSan.
 */
void
testConcurrentMixedModels()
{
    const VitConfig cfg = tinyConfig();
    ModelConfig configs[2];
    configs[0].preset = cfg;
    configs[0].kernel = AttentionType::Taylor;
    configs[0].seed = 0x51;
    configs[0].policy.maxBatch = 4;
    configs[0].policy.maxWaitMicros = 1000;
    configs[0].policy.queueCapacity = 128;
    configs[0].options.quantMode = Gemm::QuantMode::Off;
    configs[0].options.tokenKeep = 1.0f;
    configs[1] = configs[0];
    configs[1].kernel = AttentionType::Softmax;
    configs[1].seed = 0x52;
    configs[1].options.quantMode = Gemm::QuantMode::Int8;
    configs[1].options.tokenKeep = 0.5f;

    Rng rng(0xc0c0);
    std::vector<Matrix> inputs;
    for (size_t n : {cfg.tokens, cfg.tokens / 2, size_t{9}})
        inputs.push_back(Matrix::randn(n, cfg.dModel, rng, 0.0f, 1.0f));

    // Solo references, compiled with the PlanOptions addModel derives.
    std::vector<Matrix> want[2];
    {
        ThreadPool pool(2);
        for (int m = 0; m < 2; ++m) {
            const ModelConfig &mc = configs[m];
            VitEncoder ref(mc.preset, makeAttention(mc.kernel), mc.seed);
            PlanOptions opts;
            opts.tokenKeep = mc.options.tokenKeep;
            opts.packInt8 = mc.options.quantMode == Gemm::QuantMode::Int8;
            opts.maxBatch = mc.policy.maxBatch;
            ref.compilePlan(opts);
            for (const Matrix &in : inputs)
                want[m].push_back(refForward(ref, in, pool));
        }
    }
    T_CHECK(want[0][0].rows() == cfg.tokens);
    T_CHECK(want[1][0].rows() < cfg.tokens); // keep 0.5 prunes

    ModelServer server(2);
    const std::string keys[2] = {server.addModel(configs[0]),
                                 server.addModel(configs[1])};
    constexpr int kThreads = 4, kPerThread = 8;
    std::atomic<int> matches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const int m = (t + i) % 2;
                const size_t j = static_cast<size_t>(t + i / 2) %
                                 inputs.size();
                const InferenceResponse r =
                    server.submit(keys[m], inputs[j]).get();
                if (r.output == want[m][j])
                    matches.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    T_CHECK(matches.load() == kThreads * kPerThread);
    for (const std::string &key : keys) {
        const BatcherStats s = server.stats(key);
        T_CHECK(s.served == kThreads * kPerThread / 2 && s.errors == 0);
    }
    server.shutdown();
}

} // namespace

int
main()
{
    testKernelNameRoundTrip();
    testMakeAttentionThreshold();
    testPackUnpack();
    testLatencyReservoir();
    testRuntimeOptionsResolution();
    testParseHelpers();
    testPolicyValidation();
    testServedBitwiseIdentity();
    testMaxWaitFiresPartialBatch();
    testMaxBatchCutoffUnderBurst();
    testQueueFullRejection();
    testShutdownDrainsInFlight();
    testSubmitShapeValidation();
    testMixedTokenCountServing();
    testModelServerRegistryAndRouting();
    testModelServerConfigValidation();
    testModelServerRejectsProcessWideOptions();
    testModelServerPinnedTokenKeep();
    testConcurrentSubmitStress();
    testConcurrentMixedModels();
    return vitality::testing::finish("test_serve");
}
