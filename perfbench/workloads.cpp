/**
 * @file
 * The repository benchmark's workload driver. One process runs one
 * workload (see README.md for why each was chosen):
 *
 *   encode-b1      closed loop, one caller: VitEncoder::forwardInto on a
 *                  planned DeiT-Small Taylor fp32 encoder, one 197-token
 *                  image per call.
 *   encode-ragged  closed loop, one caller: forwardRaggedInto over 16
 *                  images of {197, 148, 99, 50} tokens (four each, order
 *                  seeded), DeiT-Small Taylor fp32 with withTokenKeep(0.5).
 *   hires-softmax  closed loop, one caller: forwardInto on DeiT-Tiny at
 *                  577 tokens (384 x 384 input, 16-px patches), Softmax.
 *   serve-mixed    ModelServer(4) serving DeiT-Tiny/Taylor (fp32) and
 *                  DeiT-Tiny/Softmax (pinned int8), requests of 50..197
 *                  tokens. Phase A (60% of the time): open-loop Poisson
 *                  arrivals at 12 req/s, latency timed from each
 *                  request's due time. Phase B: closed loop with 8
 *                  requests in flight per model.
 *
 * --seed generates only the inputs (token values, image order, arrival
 * times, model/input draws); the models' weights are fixed. Every run
 * sets its model up three times (setup_s is the median), warms up,
 * measures for --seconds, and checks its outputs. With --trace 1 the
 * measured phase is the per-layer replay (replay.h) instead, and the
 * spans are written to --trace-out as Chrome trace-event JSON.
 *
 * Prints one JSON object on its last stdout line and exits 1 when an
 * output check failed.
 *
 * Usage: perfbench_workloads --workload NAME [--seed N] [--seconds S]
 *                            [--trace 0|1] [--trace-out PATH]
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attention/zoo.h"
#include "base/rng.h"
#include "harness.h"
#include "model/encoder_plan.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "replay.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"
#include "serve/model_server.h"
#include "tensor/ops.h"
#include "tensor/ragged_batch.h"
#include "trace.h"

using namespace vitality;
using namespace vitality::perfbench;

namespace {

constexpr size_t kWorkers = 4;
constexpr int kSetups = 3;
constexpr size_t kSpanCapacity = size_t{1} << 18;
/** Whole-model bound between GEMM backends (test_gemm asserts it). */
constexpr float kScalarTolerance = 1e-3f;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string traceOut;
};

/** What a workload hands back to main for the result JSON. */
struct Outcome
{
    Report report;
    size_t attempted = 0;
    size_t failed = 0;
    bool valid = true;
    std::string pins;  ///< Workload-specific pinned configuration.
    std::string extra; ///< Further JSON members (checks, span summary).
};

double
secondsSince(Clock::time_point t0)
{
    return msSince(t0) / 1000.0;
}

/** latency_p50_ms, and p90/p95/p99 where the sample supports them. */
void
addLatencies(Report &r, const std::vector<double> &lat)
{
    r.add("latency_p50_ms", median(lat), "ms", lat.size());
    r.addPercentile("latency_p90_ms", lat, 0.90, "ms");
    r.addPercentile("latency_p95_ms", lat, 0.95, "ms");
    r.addPercentile("latency_p99_ms", lat, 0.99, "ms");
}

/**
 * Shared tail of every traced run: plan compiles, the replay loop, the
 * per-layer metrics, and the trace file (with any spans rec already
 * holds).
 */
void
runReplay(Outcome &o, const Args &args, SpanRecorder &rec, VitEncoder &enc,
          ThreadPool &pool, const PlanOptions &plan,
          std::vector<const Matrix *> inputs, double seconds)
{
    std::vector<double> compileMs;
    for (int i = 0; i < 3; ++i) {
        const Clock::time_point t0 = Clock::now();
        enc.compilePlan(plan);
        compileMs.push_back(msSince(t0));
    }
    EncoderReplay replay(enc, pool, rec, std::move(inputs));
    size_t mismatches = 0, passes = 0;
    const Clock::time_point t0 = Clock::now();
    while (passes == 0 || msSince(t0) < seconds * 1000.0) {
        mismatches += replay.tracedPass() ? 0 : 1;
        // Every third pass also probes the kernels one head at a time.
        if (passes % 3 == 0)
            mismatches += replay.probePass() ? 0 : 1;
        ++passes;
    }
    o.attempted += passes + (passes + 2) / 3;
    o.failed += mismatches;
    addLayerMetrics(o.report, rec, pool.size(), median(compileMs),
                    replay.tokensIn(), replay.tokensOut());
    if (rec.dropped())
        o.report.note(std::to_string(rec.dropped()) +
                      " spans dropped: span buffer full");
    rec.writeChromeJson(args.traceOut);
    o.extra += ", \"replay\": {\"passes\": " + std::to_string(passes) +
               ", \"bitwise_mismatches\": " + std::to_string(mismatches) +
               "}, \"span_self_time\": " + rec.selfTimeJson();
}

// ---------------------------------------------------------------- encode

struct EncodeSpec
{
    VitConfig cfg;
    AttentionType kernel;
    std::vector<size_t> tokens; ///< Per image; order shuffled by the seed.
    bool ragged;                ///< forwardRaggedInto, else forwardInto.
};

EncodeSpec
encodeSpec(const std::string &name)
{
    if (name == "encode-b1")
        return {VitConfig::deitSmall(), AttentionType::Taylor, {197}, false};
    if (name == "encode-ragged") {
        // Four images of each token count: every seed sends the same
        // 1976 token rows per call, in a different order.
        std::vector<size_t> tokens;
        for (size_t n : {197, 148, 99, 50})
            tokens.insert(tokens.end(), 4, n);
        return {VitConfig::deitSmall().withTokenKeep(0.5f),
                AttentionType::Taylor, tokens, true};
    }
    VitConfig hires = VitConfig::deitTiny();
    hires.tokens = 577;
    return {hires, AttentionType::Softmax, {577}, false};
}

Outcome
runEncode(const EncodeSpec &spec, const Args &args)
{
    Outcome o;
    Rng rng(args.seed);
    std::vector<size_t> lens = spec.tokens;
    shuffle(lens, rng);
    std::vector<Matrix> images;
    for (size_t n : lens)
        images.push_back(Matrix::randn(n, spec.cfg.dModel, rng, 0.0f, 1.0f));
    std::vector<const Matrix *> ptrs;
    for (const Matrix &m : images)
        ptrs.push_back(&m);
    const RaggedBatch xr = RaggedBatch::fromMatrices(ptrs.data(), ptrs.size());
    size_t tokensPerCall = 0;
    for (size_t n : lens)
        tokensPerCall += n;
    PlanOptions plan;
    plan.maxBatch = images.size();

    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<VitEncoder> enc;
    Matrix out;
    RaggedBatch outr;
    auto call = [&] {
        if (spec.ragged)
            enc->forwardRaggedInto(xr, *pool, outr);
        else
            enc->forwardInto(images[0], *pool, out);
    };
    auto outputDigest = [&] {
        return spec.ragged ? digest(outr) : digest(out);
    };

    // Set-up: pool, weights, plan compile and the cold first forward,
    // from scratch each time. The first call's digest is the reference
    // every later call (and every later encoder instance) must match.
    std::vector<double> setupS;
    uint64_t firstDigest = 0;
    size_t mismatches = 0;
    for (int k = 0; k < kSetups; ++k) {
        enc.reset();
        pool.reset();
        const Clock::time_point t0 = Clock::now();
        pool = std::make_unique<ThreadPool>(kWorkers);
        enc = std::make_unique<VitEncoder>(spec.cfg,
                                           makeAttention(spec.kernel));
        enc->compilePlan(plan);
        call();
        setupS.push_back(secondsSince(t0));
        if (k == 0)
            firstDigest = outputDigest();
        mismatches += outputDigest() == firstDigest ? 0 : 1;
    }
    o.attempted += kSetups;

    const double warmupS = warmUp([&] {
        const Clock::time_point t0 = Clock::now();
        call();
        return msSince(t0);
    });

    if (args.trace) {
        SpanRecorder rec(kSpanCapacity);
        runReplay(o, args, rec, *enc, *pool, plan, ptrs, args.seconds);
    } else {
        std::vector<double> lat;
        const Clock::time_point t0 = Clock::now();
        while (lat.empty() || msSince(t0) < args.seconds * 1000.0) {
            const Clock::time_point a = Clock::now();
            call();
            lat.push_back(msSince(a));
            mismatches += outputDigest() == firstDigest ? 0 : 1;
        }
        const double elapsedS = secondsSince(t0);
        o.attempted += lat.size();
        Report &r = o.report;
        addLatencies(r, lat);
        r.add("throughput_tokens_per_s",
              static_cast<double>(lat.size() * tokensPerCall) / elapsedS,
              "tokens/s", lat.size());
    }

    // Independent reference: the same input through the scalar GEMM
    // backend. For the ragged batch, image 0 alone, which also checks
    // that an image's result does not depend on its batch mates.
    Matrix got, want;
    if (spec.ragged)
        outr.unpackImage(0, got);
    else
        got = out;
    {
        RuntimeOptions scalar;
        scalar.gemmBackend = Gemm::Backend::Scalar;
        RuntimeOptions::Scoped pin(scalar);
        if (spec.ragged) {
            const RaggedBatch solo =
                RaggedBatch::fromMatrices(ptrs.data(), 1);
            RaggedBatch soloOut;
            enc->forwardRaggedInto(solo, *pool, soloOut);
            soloOut.unpackImage(0, want);
        } else {
            enc->forwardInto(images[0], *pool, want);
        }
    }
    const double scalarDiff =
        got.rows() == want.rows() && got.cols() == want.cols()
            ? maxAbsDiff(got, want)
            : HUGE_VAL;
    const bool scalarOk = scalarDiff <= kScalarTolerance;
    o.attempted += 1;
    o.failed += mismatches + (scalarOk ? 0 : 1);

    Report &r = o.report;
    r.add("setup_s", median(setupS), "s", setupS.size());
    r.add("peak_rss_mb", peakRssMb(), "MB", 1);
    r.add("warmup_s", warmupS, "s", 1);
    r.add("failed_frac",
          static_cast<double>(o.failed) / static_cast<double>(o.attempted),
          "frac", o.attempted);
    o.pins = spec.cfg.name + " " + kernelName(spec.kernel) + " fp32, " +
             std::to_string(spec.cfg.tokens) + " tokens, " +
             std::to_string(images.size()) + " image(s)/call" +
             (spec.ragged ? ", keep 0.5" : "");
    o.extra += ", \"checks\": {\"digest_mismatches\": " +
               std::to_string(mismatches) + ", \"scalar_max_abs_diff\": " +
               jsonNumber(scalarDiff) + ", \"scalar_tolerance\": " +
               jsonNumber(kScalarTolerance) + "}";
    return o;
}

// ----------------------------------------------------------------- serve

constexpr double kArrivalRate = 12.0;  ///< Phase A, requests/s.
constexpr double kPhaseAShare = 0.6;   ///< Phase A's share of serve time.
constexpr size_t kInFlightPerModel = 8; ///< Phase B closed loop: 16 total.
constexpr double kDeadlineMs = 100.0;  ///< Goodput deadline from due time.
constexpr double kMaxGenLagMs = 5.0;   ///< Generator lag p99 validity bound.
constexpr size_t kPoolSize = 64;       ///< Distinct request inputs.
const char *const kModelNames[2] = {"taylor_fp32", "softmax_int8"};

/**
 * Token count of pool input j: evenly spread over [50, 197], the crop
 * range of a 197-token image. A continuous spread keeps the latency
 * distribution unimodal, so its median does not jump between clusters.
 */
size_t
poolTokens(size_t j)
{
    return 50 + (j * 147 + (kPoolSize - 1) / 2) / (kPoolSize - 1);
}

ModelConfig
serveModel(int m)
{
    ModelConfig mc;
    mc.preset = VitConfig::deitTiny();
    mc.kernel = m == 0 ? AttentionType::Taylor : AttentionType::Softmax;
    mc.policy.maxBatch = 8;
    mc.policy.maxWaitMicros = 2000;
    mc.policy.queueCapacity = 256;
    if (m == 1)
        mc.options.quantMode = Gemm::QuantMode::Int8;
    return mc;
}

/** One request: which model, which input of the 64-input pool. */
struct Pick
{
    int model = 0;
    size_t input = 0;
};

/**
 * Seeded model/input draws, stratified so every seed offers the same
 * mix in a different order: each pair of requests goes one to each
 * model (which first is drawn), and each model deals its inputs from
 * its own shuffled deck of the 64-input pool.
 */
class MixSequence
{
  public:
    explicit MixSequence(Rng rng) : rng_(rng) {}

    Pick next()
    {
        if (count_++ % 2 == 0)
            first_ = static_cast<int>(rng_.uniformInt(2));
        return nextFor(count_ % 2 == 1 ? first_ : 1 - first_);
    }

    /** The next input from model's deck. */
    Pick nextFor(int model)
    {
        std::vector<size_t> &deck = decks_[model];
        if (deck.empty()) {
            for (size_t j = 0; j < kPoolSize; ++j)
                deck.push_back(j);
            shuffle(deck, rng_);
        }
        const size_t input = deck.back();
        deck.pop_back();
        return {model, input};
    }

  private:
    Rng rng_;
    std::vector<size_t> decks_[2];
    size_t count_ = 0;
    int first_ = 0;
};

struct Sent
{
    std::future<InferenceResponse> future;
    Clock::time_point due, submitted;
    Pick pick;
    int phase;
};

struct Done
{
    Clock::time_point due, submitted, completed;
    double queueMs = 0.0, computeMs = 0.0, totalMs = 0.0;
    size_t tokens = 0;
    Pick pick{0, 0};
    int phase = 0;
    uint64_t digest = 0;
    bool ok = false;

    double latencyMs() const { return msBetween(due, completed); }
};

/**
 * Waits on one model's futures in submission order. A batcher completes
 * its requests in FIFO order, so the wait returns as each completes and
 * the completion time is observed, not inferred.
 */
class Collector
{
  public:
    explicit Collector(std::function<void()> onDone)
        : onDone_(std::move(onDone)), thread_([this] { loop(); })
    {
    }
    ~Collector() { stop(); }
    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void push(Sent s)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(s));
        }
        cv_.notify_one();
    }

    /** Wait for every pushed future, then join. */
    void stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable())
            thread_.join();
    }

    /** Completed requests; read only after stop(). */
    const std::vector<Done> &done() const { return done_; }

  private:
    void loop()
    {
        for (;;) {
            Sent s;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
                if (queue_.empty())
                    return;
                s = std::move(queue_.front());
                queue_.pop_front();
            }
            Done d;
            d.due = s.due;
            d.submitted = s.submitted;
            d.pick = s.pick;
            d.phase = s.phase;
            InferenceResponse r;
            try {
                r = s.future.get();
                d.ok = true;
            } catch (...) {
            }
            d.completed = Clock::now();
            // Free the closed loop's slot before hashing: the digest is
            // the benchmark's work, not the request's.
            onDone_();
            if (d.ok) {
                d.queueMs = r.queueMs;
                d.computeMs = r.computeMs;
                d.totalMs = r.totalMs;
                d.digest = digest(r.output);
            }
            done_.push_back(d);
        }
    }

    std::function<void()> onDone_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Sent> queue_;
    bool stopping_ = false;
    std::vector<Done> done_; ///< Collector thread only until stop().
    std::thread thread_;
};

/** Per-phase, per-model batcher counters (stats() deltas). */
struct PhaseStats
{
    uint64_t batches = 0, served = 0;
};

Outcome
runServe(const Args &args)
{
    const Clock::time_point runStart = Clock::now();
    Outcome o;
    Rng root(args.seed);
    Rng inputRng = root.split();
    Rng scheduleRng = root.split();
    Rng warmRng = root.split();
    Rng closedRng = root.split();

    const VitConfig preset = VitConfig::deitTiny();
    std::vector<Matrix> inputs;
    for (size_t j = 0; j < kPoolSize; ++j)
        inputs.push_back(Matrix::randn(poolTokens(j), preset.dModel,
                                       inputRng, 0.0f, 1.0f));
    const Matrix &fullFrame = inputs.back();

    // Set-up: server with its pool, both registrations (plan compiles),
    // and the cold first request on each model.
    std::unique_ptr<ModelServer> server;
    std::string keys[2];
    std::vector<double> setupS, addModelMs;
    for (int k = 0; k < kSetups; ++k) {
        server.reset();
        const Clock::time_point t0 = Clock::now();
        server = std::make_unique<ModelServer>(kWorkers);
        double addMs = 0.0;
        for (int m = 0; m < 2; ++m) {
            const Clock::time_point a = Clock::now();
            keys[m] = server->addModel(serveModel(m));
            addMs += msSince(a);
        }
        for (int m = 0; m < 2; ++m)
            server->submit(keys[m], fullFrame).get();
        setupS.push_back(secondsSince(t0));
        addModelMs.push_back(addMs);
    }
    o.attempted += 2 * kSetups;

    MixSequence warmMix(warmRng);
    const double warmupS = warmUp([&] {
        const Pick p = warmMix.next();
        const Clock::time_point t0 = Clock::now();
        server->submit(keys[p.model], inputs[p.input]).get();
        return msSince(t0);
    });

    std::mutex flightMutex;
    std::condition_variable flightCv;
    size_t inFlight[2] = {0, 0}; ///< Per model, under flightMutex.
    auto onDone = [&](int model) {
        std::lock_guard<std::mutex> lock(flightMutex);
        --inFlight[model];
        flightCv.notify_all();
    };
    std::unique_ptr<Collector> collectors[2] = {
        std::make_unique<Collector>([&] { onDone(0); }),
        std::make_unique<Collector>([&] { onDone(1); })};
    size_t sent[2] = {0, 0}, rejected[2] = {0, 0};
    auto submit = [&](const Pick &p, int phase, Clock::time_point due) {
        {
            std::lock_guard<std::mutex> lock(flightMutex);
            ++inFlight[p.model];
        }
        ++sent[phase];
        try {
            std::future<InferenceResponse> f =
                server->submit(keys[p.model], inputs[p.input]);
            collectors[p.model]->push(
                {std::move(f), due, Clock::now(), p, phase});
        } catch (const ServeError &) {
            ++rejected[phase];
            onDone(p.model);
        }
    };
    auto drain = [&] {
        std::unique_lock<std::mutex> lock(flightMutex);
        flightCv.wait(lock,
                      [&] { return inFlight[0] == 0 && inFlight[1] == 0; });
    };
    auto snapshot = [&](PhaseStats (&s)[2]) {
        for (int m = 0; m < 2; ++m) {
            const BatcherStats b = server->stats(keys[m]);
            s[m] = {b.batches, b.served};
        }
    };

    // A traced run gives half its time to the replay.
    const double serveMs = args.seconds * 1000.0 * (args.trace ? 0.5 : 1.0);
    const double phaseAMs = kPhaseAShare * serveMs;
    const double phaseBMs = serveMs - phaseAMs;

    // Phase A: open loop, Poisson arrivals, schedule fixed up front.
    const std::vector<double> dueMs =
        poissonArrivalsMs(scheduleRng, kArrivalRate, phaseAMs);
    MixSequence mixA(scheduleRng);
    std::vector<Pick> picks;
    for (size_t i = 0; i < dueMs.size(); ++i)
        picks.push_back(mixA.next());
    PhaseStats before[2], afterA[2], afterB[2];
    snapshot(before);
    std::vector<double> genLag;
    const Clock::time_point startA = afterMs(Clock::now(), 20.0);
    for (size_t i = 0; i < dueMs.size(); ++i) {
        const Clock::time_point due = afterMs(startA, dueMs[i]);
        std::this_thread::sleep_until(due);
        genLag.push_back(msSince(due));
        submit(picks[i], 0, due);
    }
    drain();
    snapshot(afterA);

    // Phase B: closed loop, maxBatch requests outstanding per model, so
    // each model's batcher cuts full batches while the other computes.
    MixSequence mixB(closedRng);
    const Clock::time_point startB = Clock::now();
    const Clock::time_point endB = afterMs(startB, phaseBMs);
    for (;;) {
        int model = 0;
        {
            std::unique_lock<std::mutex> lock(flightMutex);
            flightCv.wait_until(lock, endB, [&] {
                return inFlight[0] < kInFlightPerModel ||
                       inFlight[1] < kInFlightPerModel;
            });
            model = inFlight[0] < kInFlightPerModel ? 0 : 1;
        }
        const Clock::time_point now = Clock::now();
        if (now >= endB)
            break;
        submit(mixB.nextFor(model), 1, now);
    }
    drain();
    snapshot(afterB);
    std::vector<Done> done;
    for (std::unique_ptr<Collector> &c : collectors) {
        c->stop();
        done.insert(done.end(), c->done().begin(), c->done().end());
    }
    server.reset();

    // Batch independence: every response must be bitwise-equal to a
    // solo forward of the same (model, input) on a fresh encoder.
    std::set<size_t> used[2];
    for (const Done &d : done)
        used[d.pick.model].insert(d.pick.input);
    std::vector<uint64_t> want[2];
    {
        ThreadPool pool(kWorkers);
        for (int m = 0; m < 2; ++m) {
            const ModelConfig mc = serveModel(m);
            RuntimeOptions::Scoped pin(mc.options);
            VitEncoder ref(mc.preset, makeAttention(mc.kernel), mc.seed);
            PlanOptions plan;
            plan.maxBatch = mc.policy.maxBatch;
            plan.packInt8 = m == 1;
            ref.compilePlan(plan);
            want[m].assign(inputs.size(), 0);
            RaggedBatch solo, soloOut;
            Matrix img;
            for (size_t i : used[m]) {
                const Matrix *p = &inputs[i];
                solo.packFrom(&p, 1);
                ref.forwardRaggedInto(solo, pool, soloOut);
                soloOut.unpackImage(0, img);
                want[m][i] = digest(img);
            }
        }
    }
    size_t exceptions = 0, mismatches = 0;
    for (Done &d : done) {
        d.tokens = inputs[d.pick.input].rows();
        if (!d.ok) {
            ++exceptions;
        } else if (d.digest != want[d.pick.model][d.pick.input]) {
            d.ok = false;
            ++mismatches;
        }
    }
    const size_t totalSent = sent[0] + sent[1];
    o.attempted += totalSent;
    o.failed += rejected[0] + rejected[1] + exceptions + mismatches;

    // Metrics. Phase A latency is from the due time; phase B from
    // submission (a closed loop has no schedule).
    Report &r = o.report;
    std::vector<double> latA, latModel[2];
    size_t onTime = 0;
    double tokensB = 0.0;
    size_t completedB = 0;
    for (const Done &d : done) {
        if (d.phase == 0 && d.ok) {
            latA.push_back(d.latencyMs());
            latModel[d.pick.model].push_back(d.latencyMs());
            onTime += d.latencyMs() <= kDeadlineMs ? 1 : 0;
        }
        if (d.phase == 1 && d.ok && d.completed <= endB) {
            ++completedB;
            tokensB += static_cast<double>(d.tokens);
        }
    }
    const double phaseBS = phaseBMs / 1000.0;
    addLatencies(r, latA);
    r.add("throughput_tokens_per_s", tokensB / phaseBS, "tokens/s",
          completedB);
    r.add("saturation_rps", static_cast<double>(completedB) / phaseBS,
          "1/s", completedB);
    r.add("goodput_frac",
          static_cast<double>(onTime) / static_cast<double>(sent[0]), "frac",
          sent[0]);
    for (int m = 0; m < 2; ++m)
        r.add(std::string("serve.") + kModelNames[m] + ".latency_p50_ms",
              median(latModel[m]), "ms", latModel[m].size());

    const char *phaseName[2] = {"a", "b"};
    for (int ph = 0; ph < 2; ++ph) {
        std::vector<double> queue, compute, overhead;
        size_t ok = 0, failed = 0;
        for (const Done &d : done) {
            if (d.phase != ph)
                continue;
            if (!d.ok) {
                ++failed;
                continue;
            }
            ++ok;
            queue.push_back(d.queueMs);
            compute.push_back(d.computeMs);
            overhead.push_back(d.latencyMs() - d.queueMs - d.computeMs);
        }
        const PhaseStats(&s0)[2] = ph == 0 ? before : afterA;
        const PhaseStats(&s1)[2] = ph == 0 ? afterA : afterB;
        double batches = 0.0, served = 0.0;
        for (int m = 0; m < 2; ++m) {
            batches += static_cast<double>(s1[m].batches - s0[m].batches);
            served += static_cast<double>(s1[m].served - s0[m].served);
        }
        const std::string p = std::string("serve.") + phaseName[ph] + ".";
        r.add(p + "queue_p50_ms", median(queue), "ms", queue.size());
        r.addPercentile(p + "queue_p95_ms", queue, 0.95, "ms");
        r.add(p + "compute_p50_ms", median(compute), "ms", compute.size());
        r.add(p + "overhead_p50_ms", median(overhead), "ms",
              overhead.size());
        r.add(p + "batch_size_mean", batches > 0 ? served / batches : 0.0,
              "count", static_cast<size_t>(batches));
        r.add(p + "batches", batches, "count", 1);
        r.add(p + "sent", static_cast<double>(sent[ph]), "count", 1);
        r.add(p + "succeeded", static_cast<double>(ok), "count", 1);
        r.add(p + "failed", static_cast<double>(failed), "count", 1);
        r.add(p + "rejected", static_cast<double>(rejected[ph]), "count", 1);
    }
    r.add("serve.add_model_ms", median(addModelMs), "ms", addModelMs.size());
    r.addPercentile("serve.gen_lag_p99_ms", genLag, 0.99, "ms");
    r.addPercentile("serve.gen_lag_p95_ms", genLag, 0.95, "ms");
    r.add("serve.gen_lag_max_ms",
          genLag.empty() ? 0.0
                         : *std::max_element(genLag.begin(), genLag.end()),
          "ms", genLag.size());
    // Lag p99 above the bound, judged like any percentile: on at least
    // 10 late arrivals, so two scheduler hiccups in a short run do not
    // void it.
    const size_t late = static_cast<size_t>(
        std::count_if(genLag.begin(), genLag.end(),
                      [](double ms) { return ms > kMaxGenLagMs; }));
    if (late >= std::max<size_t>(kMinBeyond, genLag.size() / 100)) {
        o.valid = false;
        r.note("invalid: " + std::to_string(late) +
               " arrivals more than 5 ms late; the offered load was not "
               "the schedule");
    }

    if (args.trace) {
        // Serve spans come from the response timestamps: the request
        // from its due time to completion, its queue wait and its batch's
        // compute (which includes the dispatch-gate wait).
        SpanRecorder rec(kSpanCapacity, runStart);
        for (const Done &d : done) {
            const uint32_t id = rec.record("serve.request", 0, d.due,
                                           d.completed, d.pick.model);
            if (!d.ok)
                continue;
            const Clock::time_point dispatch = afterMs(d.submitted, d.queueMs);
            rec.record("serve.queue", id, d.submitted, dispatch, d.pick.model);
            rec.record("serve.compute", id, dispatch,
                       afterMs(d.submitted, d.totalMs), d.pick.model);
        }
        ThreadPool pool(kWorkers);
        const ModelConfig mc = serveModel(0);
        VitEncoder enc(mc.preset, makeAttention(mc.kernel), mc.seed);
        PlanOptions plan;
        plan.maxBatch = mc.policy.maxBatch;
        enc.compilePlan(plan);
        // The served fp32 model on four requests of 197, 148, 99 and 50
        // tokens (pool entries 63, 42, 21 and 0).
        std::vector<const Matrix *> mix;
        for (size_t j : {63, 42, 21, 0})
            mix.push_back(&inputs[j]);
        runReplay(o, args, rec, enc, pool, plan, mix, args.seconds * 0.5);
    }

    r.add("setup_s", median(setupS), "s", setupS.size());
    r.add("peak_rss_mb", peakRssMb(), "MB", 1);
    r.add("warmup_s", warmupS, "s", 1);
    r.add("failed_frac",
          static_cast<double>(o.failed) / static_cast<double>(o.attempted),
          "frac", o.attempted);
    o.pins = "DeiT-Tiny/Taylor fp32 unpinned + DeiT-Tiny/Softmax pinned "
             "quant=int8; maxBatch 8, wait 2000us, queue 256; phase A " +
             std::to_string(static_cast<int>(kArrivalRate)) +
             " req/s open loop, phase B " +
             std::to_string(kInFlightPerModel) + " in flight per model";
    o.extra += ", \"checks\": {\"served_mismatches\": " +
               std::to_string(mismatches) + ", \"exceptions\": " +
               std::to_string(exceptions) + ", \"rejected\": " +
               std::to_string(rejected[0] + rejected[1]) +
               ", \"reference_pairs\": " +
               std::to_string(used[0].size() + used[1].size()) + "}";
    return o;
}

// ------------------------------------------------------------------ main

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_workloads: %s\nusage: perfbench_workloads "
                 "--workload encode-b1|encode-ragged|hires-softmax|"
                 "serve-mixed [--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out PATH]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(a.seconds > 0.0))
                usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            a.trace = value == "1";
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload != "encode-b1" && a.workload != "encode-ragged" &&
        a.workload != "hires-softmax" && a.workload != "serve-mixed")
        usage("unknown workload '" + a.workload + "'");
    if (a.trace && a.traceOut.empty())
        a.traceOut = a.workload + "-seed" + std::to_string(a.seed) +
                     ".trace.json";
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    pinDefaults();
    try {
        Outcome o = args.workload == "serve-mixed"
                        ? runServe(args)
                        : runEncode(encodeSpec(args.workload), args);
        std::printf(
            "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
            "\"trace\": %d, \"host\": %s, \"config\": %s, "
            "\"attempted\": %zu, \"failed\": %zu, \"correct\": %s, "
            "\"valid\": %s, %s%s}\n",
            args.workload.c_str(), static_cast<unsigned long long>(args.seed),
            jsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
            hostJson().c_str(), configJson(kWorkers, o.pins).c_str(),
            o.attempted, o.failed, o.failed == 0 ? "true" : "false",
            o.valid ? "true" : "false", o.report.json().c_str(),
            o.extra.c_str());
        std::fflush(stdout);
        return o.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
        return 1;
    }
}
