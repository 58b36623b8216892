/**
 * @file
 * Runtime-dispatched GEMM: the single entry point every matmul in the
 * library funnels through.
 *
 * ViTALiTy's Taylor branch turns attention into dense low-rank GEMMs, so
 * this kernel is the whole hot path. Gemm::multiply computes
 *
 *   C = op(A) * op(B)      op in {none, transpose-A, transpose-B}
 *
 * and dispatches to one of two backends:
 *
 *   - Scalar: the portable cache-blocked loops (always compiled, always
 *     available — the reference implementation).
 *   - Avx2:   a 6x16 register-blocked AVX2+FMA microkernel over packed
 *     A/B panels staged in a thread-local Workspace arena, with kc
 *     cache-blocking for deep-K shapes (the DeiT MLP projections run K
 *     up to 3072; one unbroken K sweep would stream megabytes of packed
 *     A through L2 per column panel). Compiled only when the build
 *     enables it (-DVITALITY_ENABLE_AVX2=ON, the default) and selected
 *     only when CPUID reports AVX2 and FMA support.
 *
 * The default backend is resolved once per process: the VITALITY_GEMM
 * environment variable ("scalar" or "avx2") wins if set and available,
 * otherwise the best available backend is used. setActive() overrides
 * the choice at runtime (used by tests and benches to compare backends);
 * the per-call Backend overload bypasses the process default entirely.
 *
 * Fused epilogue
 * --------------
 * Production runtimes fold the cheap vector post-processing of a dense
 * layer into the GEMM's write-back instead of re-walking the output.
 * The Epilogue descriptor captures the three post-ops the ViT dense
 * path needs; per output element (i, j), writing P = op(A)op(B):
 *
 *   t      = P(i, j)
 *   t     += bias(0, j)      if bias        (row-broadcast bias)
 *   t      = gelu(t)         if act == Gelu (geluScalar, tensor/ops.h)
 *   C(i,j) = C(i,j) + t      if accumulate  (residual add; C preshaped)
 *          = t               otherwise
 *
 * That element-wise order is exactly the order the unfused sequence
 * (multiply, broadcastAddRowInto, geluInto, addInto) applies, so a
 * fused call is bitwise-identical to the unfused passes on the same
 * backend — asserted by test_gemm for every epilogue combination on
 * both backends, and the basis on which VitEncoder's fused rewrite
 * kept all of its bitwise batch/sequential parity guarantees. The
 * unfused sequence is a test-side reference only; production always
 * fuses. There is one GELU, the polynomial geluScalar (tensor/ops.h;
 * within 4e-7 * (1 + |x| / 2) of the exact tanh formula): the AVX2
 * write-backs run its 8-lane twin in registers on full tiles and call
 * it on ragged edges, so the GELU itself is bitwise-identical across
 * backends, edges and geluInto.
 *
 * Numerical contract (the documented cross-backend tolerance): both
 * backends accumulate every output element as a single running sum over
 * k in ascending order, so they differ only in rounding — the AVX2 path
 * uses fused multiply-add (one rounding per step) where the scalar path
 * rounds the product and the sum separately. kc blocking does not widen
 * the bound: partial sums round-trip through float32 memory between kc
 * blocks, and a float32 store/reload is exact, so the accumulation
 * sequence per element is unchanged. The same holds for row-band
 * parallelism (below): bands partition output rows, every element is
 * still produced by one uninterrupted ascending-k sum, so results are
 * bitwise-identical at every thread count. Per element the standard
 * forward-error bound applies to each backend:
 *
 *   |c_computed - c_exact| <= k * eps * sum_k |a_ik| * |b_kj|
 *
 * with eps = FLT_EPSILON, so two backends can differ by at most twice
 * that bound (in practice a few ulps). The bound test_gemm enforces
 * per element, against a float64 reference, is exactly
 *
 *   2 * (k + 1) * eps * sum_k |a_ik| * |b_kj|  +  1e-7
 *
 * (the factor 2 covers the reference's own rounding, the absolute
 * 1e-7 floors the bound for tiny or cancelling dot products); a
 * backend whose error exceeds that fails CI. Whole-model outputs
 * agree across backends to 1e-3 max-abs-diff (also asserted). Each
 * backend on its own is fully deterministic.
 *
 * INT8 quantized path
 * -------------------
 * The quantized multiply() overloads compute the same C = op(A)*op(B)
 * over a QuantizedMatrix activation A (affine, [0, 127] domain) and a
 * QuantizedMatrix weight B (symmetric, [-127, 127], zero point 0),
 * dequantizing in the write-back:
 *
 *   S(i,j)  = sum_k qa(i,k) * qw(k,j)            (exact int32)
 *   C(i,j)  = (S(i,j) - za_i * wsum_j) * (sa_i * sw)
 *
 * then the standard epilogue chain (bias, GELU, accumulate) in the
 * canonical order, where za_i/sa_i are A's (per-row or per-tensor)
 * zero point and scale, sw is B's scale, and wsum_j = sum_k qw(k,j)
 * is the per-column weight sum that folds A's zero point out of the
 * integer product. Two backends exist, mirroring the fp32 pair: a
 * scalar reference (always built) and an AVX2 microkernel
 * (_mm256_maddubs_epi16 + _mm256_madd_epi16 into int32 accumulators;
 * the [0,127] x [-127,127] operand ranges make the maddubs pair-sum
 * provably saturation-free). Because the integer accumulation is
 * exact in any order and the dequant + epilogue is a shared
 * lane-exact program, the two int8 backends are BITWISE-identical to
 * each other — at every shape, transpose mode, epilogue, and band
 * count (asserted by test_quant) — unlike the fp32 pair, which only
 * agree within the rounding bound above. Versus the fp32 result the
 * quantized path differs by the quantization error; per element,
 *
 *   |c_int8 - c_fp32| <= sa_i/2 * sum_k |w_hat_kj|
 *                      + sw/2   * sum_k |a_ik|       (+ fp rounding)
 *
 * with w_hat the dequantized weights — the bound test_quant asserts
 * against a float64 reference. Restrictions: the first operand must
 * be ActivationU7-kind and the second WeightS8-kind, and a per-row
 * quantized A cannot be used with Trans::A (the transpose reassigns
 * row identities); violations throw std::invalid_argument.
 *
 * The VITALITY_QUANT environment variable ("off", the default, or
 * "int8") / setQuantMode() select the model-level precision an
 * encoder's plan freezes when it compiles (model/encoder_plan.h): an
 * int8 plan routes the dense stages (QKV, attention output
 * projection, both MLP GEMMs) through this path, quantizing
 * activations per call (per-row) against weights quantized at compile.
 * "off" leaves every fp32 path bitwise-untouched; the quantized
 * overloads themselves are callable regardless of the knob.
 *
 * Intra-GEMM parallelism
 * ----------------------
 * The tensor layer cannot depend on the runtime layer, so parallelism
 * is injected: the runtime's ThreadPool installs a ParallelRunner
 * (setParallelRunner) that fans row bands across its workers, and
 * multiply() partitions M into microkernel-aligned bands when the
 * runner reports width > 1 and the product is large enough to amortize
 * the fan-out (the size heuristic keeps layer-norm-sized GEMMs
 * sequential). The runner reports width 1 when the calling thread is
 * itself a pool worker, which is how the batched path keeps its
 * image-level parallelism without oversubscribing: a GEMM running
 * inside a per-image task stays sequential. setMaxThreads() (test
 * hook) and the VITALITY_THREADS environment variable cap the band
 * count; each band packs its own panels in its worker's thread-local
 * Workspace, so the steady state stays allocation-free per worker.
 *
 * Thread-safety: multiply() is safe to call from any number of threads
 * concurrently (the packing arena is thread-local, so the steady state
 * stays allocation-free per worker, matching the AttentionContext
 * design). setActive(), setMaxThreads(), setQuantMode() and
 * setParallelRunner() are not synchronized with in-flight multiplies
 * and are meant for setup/teardown points (ThreadPool un-installs its
 * runner in its destructor, before joining its workers).
 */

#ifndef VITALITY_TENSOR_GEMM_H
#define VITALITY_TENSOR_GEMM_H

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "tensor/matrix.h"

namespace vitality {

class PackedMatrix;
class QuantizedMatrix;

class Gemm
{
  public:
    enum class Backend
    {
        Scalar, ///< Portable cache-blocked loops; always available.
        Avx2,   ///< 6x16 AVX2+FMA microkernel over packed panels.
    };

    /** Which operand multiply() transposes (never materialized). */
    enum class Trans
    {
        None, ///< C = A * B         (A m x k, B k x n)
        A,    ///< C = A^T * B       (A k x m, B k x n)
        B,    ///< C = A * B^T       (A m x k, B n x k)
    };

    /**
     * Post-ops fused into the GEMM write-back (see the file comment for
     * the exact element-wise order and the bitwise-parity contract).
     */
    struct Epilogue
    {
        enum class Act : unsigned char
        {
            None, ///< Identity.
            Gelu, ///< tanh-approximation GELU (geluScalar in tensor/ops.h).
        };

        /**
         * C += result instead of C = result (the residual add). dst
         * must already be m x n; its contents are read, not discarded.
         */
        bool accumulate = false;

        /**
         * Row-broadcast bias, a 1 x n row vector added to every output
         * row before the activation. Not owned; must outlive the call
         * and must not alias dst.
         */
        const Matrix *bias = nullptr;

        Act act = Act::None;

        /** True when the epilogue is a plain overwrite (no post-ops). */
        bool trivial() const
        {
            return !accumulate && bias == nullptr && act == Act::None;
        }

        /** C = AB + 1 * bias. */
        static Epilogue withBias(const Matrix &b)
        {
            return Epilogue{false, &b, Act::None};
        }

        /** C = gelu(AB + 1 * bias). */
        static Epilogue withBiasGelu(const Matrix &b)
        {
            return Epilogue{false, &b, Act::Gelu};
        }

        /** C += AB + 1 * bias. */
        static Epilogue accumulateWithBias(const Matrix &b)
        {
            return Epilogue{true, &b, Act::None};
        }
    };

    /**
     * The one epilogue mode: post-ops applied in the backend's
     * write-back. Kept as a reporting name (benches and the benchmark
     * harness record it next to the other execution knobs).
     */
    enum class EpilogueMode
    {
        Fused,
    };

    /**
     * Injected intra-GEMM parallelism (installed by the runtime layer's
     * ThreadPool; the tensor layer never sees the pool type). Both
     * callbacks must be callable from any thread.
     */
    struct ParallelRunner
    {
        /**
         * How many bands the calling thread may fan out right now;
         * return 1 to force sequential execution (e.g. when the caller
         * is itself a pool worker).
         */
        std::function<size_t()> width;

        /**
         * Run fn(0) .. fn(tasks - 1) concurrently and return when all
         * completed, rethrowing the first exception.
         */
        std::function<void(size_t tasks,
                           const std::function<void(size_t)> &fn)>
            run;
    };

    /**
     * C = op(A) * op(B) on the active backend. dst is resized to m x n
     * (recycling its storage) and fully overwritten. Shape mismatches
     * and dst aliasing an input throw std::invalid_argument.
     */
    static void multiply(Matrix &dst, const Matrix &a, const Matrix &b,
                         Trans trans = Trans::None);

    /** Same, on an explicitly chosen backend (throws if unavailable). */
    static void multiply(Matrix &dst, const Matrix &a, const Matrix &b,
                         Trans trans, Backend backend);

    /**
     * C = epilogue(op(A) * op(B)) on the active backend. With
     * epilogue.accumulate, dst must already be m x n (throws otherwise)
     * and is read-modified-written; otherwise dst is resized and fully
     * overwritten as usual. epilogue.bias must be 1 x n and must not
     * alias dst.
     */
    static void multiply(Matrix &dst, const Matrix &a, const Matrix &b,
                         Trans trans, const Epilogue &epilogue);

    /** Same, on an explicitly chosen backend (throws if unavailable). */
    static void multiply(Matrix &dst, const Matrix &a, const Matrix &b,
                         Trans trans, const Epilogue &epilogue,
                         Backend backend);

    /**
     * INT8 C = epilogue(dequant(op(A) * op(B))) on the active backend
     * — see "INT8 quantized path" in the file comment for the exact
     * arithmetic, the bitwise scalar/AVX2 contract, and the operand
     * restrictions. a must be ActivationU7-kind, b WeightS8-kind;
     * epilogue semantics (resize vs accumulate, bias shape/aliasing)
     * match the fp32 overloads.
     */
    static void multiply(Matrix &dst, const QuantizedMatrix &a,
                         const QuantizedMatrix &b,
                         Trans trans = Trans::None);

    /** Same, with a fused epilogue (semantics as the fp32 overload). */
    static void multiply(Matrix &dst, const QuantizedMatrix &a,
                         const QuantizedMatrix &b, Trans trans,
                         const Epilogue &epilogue);

    /** Same, on an explicitly chosen backend (throws if unavailable). */
    static void multiply(Matrix &dst, const QuantizedMatrix &a,
                         const QuantizedMatrix &b, Trans trans,
                         const Epilogue &epilogue, Backend backend);

    /**
     * C = epilogue(op(A) * op(B)) with a PREPACKED right-hand side
     * (tensor/packed_weights.h): the AVX2 backend consumes b's stored
     * panels and skips its per-call pack loop; the scalar backend runs
     * its unpack-free reference path against b's borrowed source.
     * Either way the result is bitwise-identical to the eager call on
     * the same backend. op(B) was baked at pack time, so transA names
     * only the A side: Trans::None or Trans::A (Trans::B throws, as
     * does Trans::A against a Trans::B-packed b — the backends cannot
     * express A^T * B^T). b must hold fp32 panels (packFp32).
     */
    static void multiply(Matrix &dst, const Matrix &a,
                         const PackedMatrix &b, Trans transA,
                         const Epilogue &epilogue);

    /** Same, on an explicitly chosen backend (throws if unavailable). */
    static void multiply(Matrix &dst, const Matrix &a,
                         const PackedMatrix &b, Trans transA,
                         const Epilogue &epilogue, Backend backend);

    /**
     * INT8 twin of the prepacked multiply: b must hold int8 panels
     * (packInt8), whose pack-time per-column weight sums also replace
     * the dispatcher's per-call wsum computation. transA restrictions
     * as above; operand-kind restrictions as the eager int8 overloads.
     */
    static void multiply(Matrix &dst, const QuantizedMatrix &a,
                         const PackedMatrix &b, Trans transA,
                         const Epilogue &epilogue);

    /** Same, on an explicitly chosen backend (throws if unavailable). */
    static void multiply(Matrix &dst, const QuantizedMatrix &a,
                         const PackedMatrix &b, Trans transA,
                         const Epilogue &epilogue, Backend backend);

    /** The backend multiply() currently dispatches to. */
    static Backend active();

    /**
     * Force the process-wide backend (test/bench hook). Throws
     * std::invalid_argument if the backend is not available here.
     */
    static void setActive(Backend backend);

    /** True if the backend is compiled in and supported by this CPU. */
    static bool available(Backend backend);

    /** "scalar" or "avx2". */
    static const char *backendName(Backend backend);

    /** Name of the active backend, for bench/trajectory reporting. */
    static const char *activeName() { return backendName(active()); }

    /** Parse a VITALITY_GEMM value; nullopt on unrecognized text. */
    static std::optional<Backend> parseBackend(const std::string &name);

    /**
     * Install (or, with nullptr, remove) the intra-GEMM parallel
     * runner. The runtime layer's ThreadPool installs itself here;
     * call sites never touch this directly.
     */
    static void
    setParallelRunner(std::shared_ptr<const ParallelRunner> runner);

    /** The installed runner, or nullptr. */
    static std::shared_ptr<const ParallelRunner> parallelRunner();

    /**
     * Cap the row-band fan-out (test hook; 0 = uncapped). The
     * VITALITY_THREADS environment variable provides the same cap
     * process-wide and is read once, lazily.
     */
    static void setMaxThreads(size_t cap);
    static size_t maxThreads();

    /**
     * Bands a multiply() issued from the calling thread would fan out
     * at most: the runner's width under the thread cap, 1 when no
     * runner is installed. Benches record this next to pool_threads.
     */
    static size_t parallelWidth();

    /** Always EpilogueMode::Fused. */
    static EpilogueMode epilogueMode() { return EpilogueMode::Fused; }

    /** "fused", for bench/trajectory reporting. */
    static const char *epilogueModeName(EpilogueMode) { return "fused"; }

    /**
     * Model-level quantized execution mode (VITALITY_QUANT, resolved
     * lazily): Off keeps every dense stage fp32; Int8 makes
     * VitEncoder route its dense stages through the quantized
     * multiply() overloads.
     */
    enum class QuantMode
    {
        Off,  ///< fp32 dense path (the default).
        Int8, ///< INT8 dense path with fp32 dequant write-back.
    };

    /** Active quantized mode (VITALITY_QUANT, resolved lazily). */
    static QuantMode quantMode();

    /** Force the quantized mode (test/bench hook). */
    static void setQuantMode(QuantMode mode);

    /** "off" or "int8", for bench/trajectory reporting. */
    static const char *quantModeName(QuantMode mode);

    /** Parse a VITALITY_QUANT value; nullopt on unrecognized text. */
    static std::optional<QuantMode> parseQuantMode(const std::string &name);

  private:
    /**
     * The one fp32 execution body every fp32 overload funnels into. A
     * non-null packedB carries prepacked full-k op(B) panels (the
     * PackedMatrix layout); the AVX2 backend consumes them in place of
     * its per-call pack, the scalar backend ignores them and reads b.
     */
    static void multiplyImpl(Matrix &dst, const Matrix &a,
                             const Matrix &b, Trans trans,
                             const Epilogue &epilogue, Backend backend,
                             const float *packedB);

    /**
     * The int8 twin: packedB carries prepacked k-quad panels and
     * packedWsum the pack-time per-column weight sums (both null on
     * the eager path, where wsum is computed per call).
     */
    static void multiplyImplInt8(Matrix &dst, const QuantizedMatrix &a,
                                 const QuantizedMatrix &b, Trans trans,
                                 const Epilogue &epilogue,
                                 Backend backend, const int8_t *packedB,
                                 const int32_t *packedWsum);
};

} // namespace vitality

#endif // VITALITY_TENSOR_GEMM_H
