/**
 * @file
 * RuntimeOptions: the one programmatic surface over the library's six
 * execution knobs.
 *
 * Before this struct existed, pinning an execution mode meant knowing
 * the env variables (VITALITY_GEMM, VITALITY_THREADS, VITALITY_SPARSE,
 * VITALITY_QUANT, VITALITY_TOKENS, VITALITY_LAYERS) and as many ad-hoc
 * setters scattered across layers (Gemm::setActive,
 * Gemm::setMaxThreads, setSparseExecMode, Gemm::setQuantMode,
 * setTokenKeepRatio, setLayerKernelSchedule).
 * RuntimeOptions gathers them into one struct of optional fields, and
 * defines THE resolution order, documented once, here:
 *
 *   explicit value  >  env variable  >  built-in default
 *
 * An engaged optional is an explicit value. A disengaged optional
 * defers to the process state, which the per-knob lazy resolvers
 * (Gemm::active(), Gemm::maxThreads(), sparseExecMode(),
 * Gemm::quantMode()) initialize exactly once from the env variable,
 * falling back to the built-in default ("best available backend",
 * uncapped, csr, off). The env variables are therefore a fully
 * supported back-compat layer, not a deprecated one: options the
 * caller leaves unset behave bitwise-identically to the
 * pre-RuntimeOptions library.
 *
 * The struct is plain data with two uses. A ModelServer config carries
 * one per model, but only the fields an encoder's compiled plan freezes
 * (quantMode, tokenKeep, layerKernels) may be engaged there: the plan
 * reads them once at registration and serving never installs anything
 * into the process state. Three more (gemmBackend, threads,
 * sparseMode) stay process-global — the GEMM dispatch and the sparse
 * execution path read global atomics on every call — and a caller
 * installs them with apply() at a setup point, or temporarily with
 * the RAII Scoped guard (a caller utility for tests and benches,
 * e.g. one scalar-backend reference forward). Like the setters they
 * wrap, apply()/Scoped are not synchronized with in-flight multiplies:
 * the caller makes sure no forward runs across the change.
 */

#ifndef VITALITY_RUNTIME_RUNTIME_OPTIONS_H
#define VITALITY_RUNTIME_RUNTIME_OPTIONS_H

#include <cstddef>
#include <optional>
#include <string>

#include "sparse/csr.h"
#include "tensor/gemm.h"

namespace vitality {

/**
 * @name Token keep-ratio knob (VITALITY_TOKENS)
 *
 * The global keep-ratio the encoder's token pruner applies when a
 * VitConfig carries no explicit per-layer schedule: the
 * fraction of non-CLS tokens kept at each default prune point
 * (model/token_pruner.h builds the staged schedule). In (0, 1];
 * 1.0 = keep everything (pruning disabled, the default). Lazily
 * resolved from VITALITY_TOKENS on first read, same contract as the
 * other knob resolvers; malformed or out-of-range text warns and
 * falls back to 1.0. An encoder reads it once, when its plan compiles
 * (model/encoder_plan.h); later changes reach it only through a
 * recompile.
 */
/// @{
float tokenKeepRatio();
/** Throws std::invalid_argument outside (0, 1]. */
void setTokenKeepRatio(float keep);
/** Parse "0.5"-style text; nullopt when malformed or out of range. */
std::optional<float> parseTokenKeep(const char *text);
/// @}

/**
 * @name Per-layer kernel schedule knob (VITALITY_LAYERS)
 *
 * The global per-layer attention-kernel schedule an EncoderPlan
 * compiles in when neither PlanOptions nor the model's VitConfig pins
 * one: a string in the attention/zoo.h grammar, e.g.
 * "taylor:0-7,softmax:8-11"; uncovered layers run the model's base
 * kernel. Empty = uniform (every layer runs the base kernel, the
 * default). Lazily resolved from VITALITY_LAYERS on first read, same
 * contract as the other knob resolvers; malformed text warns and falls
 * back to uniform. An encoder reads it once, when its plan compiles
 * (which an uncompiled encoder does on its first forward).
 */
/// @{
std::string layerKernelSchedule();
/** Throws std::invalid_argument on malformed text ("" is valid). */
void setLayerKernelSchedule(const std::string &schedule);
/** Validate schedule text; nullopt when malformed. */
std::optional<std::string> parseLayerKernels(const char *text);
/// @}

struct RuntimeOptions
{
    /** GEMM backend (VITALITY_GEMM; default: best available). */
    std::optional<Gemm::Backend> gemmBackend;

    /**
     * Intra-GEMM row-band cap, 0 = uncapped (VITALITY_THREADS). Also
     * the default ThreadPool size when a pool is built with 0 workers.
     */
    std::optional<size_t> threads;

    /**
     * Epilogue mode. Fused is the only one, so apply() has nothing to
     * install; the field stays for callers that pin or report it, and
     * ModelServer::addModel rejects it like the process-wide knobs.
     */
    std::optional<Gemm::EpilogueMode> epilogueMode;

    /** Sparse-branch execution path (VITALITY_SPARSE; default csr). */
    std::optional<SparseExec> sparseMode;

    /**
     * Dense-stage quantization (VITALITY_QUANT; default off). Read when
     * an encoder's plan compiles, like tokenKeep and layerKernels.
     */
    std::optional<Gemm::QuantMode> quantMode;

    /** Token keep-ratio in (0, 1] (VITALITY_TOKENS; default 1.0). */
    std::optional<float> tokenKeep;

    /**
     * Per-layer kernel schedule for compiled plans (VITALITY_LAYERS;
     * default "" = uniform). Engaged-empty explicitly pins uniform.
     */
    std::optional<std::string> layerKernels;

    /** True when no field is engaged: apply() would be a no-op. */
    bool empty() const;

    /**
     * This options set with every disengaged field filled in from the
     * process state — the "explicit > env > default" resolution,
     * evaluated now. (The env half happens inside the per-knob lazy
     * resolvers; a knob some setter already overrode reports the
     * override, which is the truthful answer.) The result has every
     * field engaged.
     */
    RuntimeOptions resolved() const;

    /**
     * Install every engaged field into the process state via the
     * legacy setters; disengaged fields are left untouched (their lazy
     * env resolution still applies on first use). Throws
     * std::invalid_argument if gemmBackend names a backend that is
     * unavailable on this host (Gemm::setActive's contract). Not
     * synchronized with in-flight multiplies — see the file comment.
     */
    void apply() const;

    /** The current process state, every field engaged. */
    static RuntimeOptions current();

    /**
     * Parse the six VITALITY_* variables into an options set:
     * engaged where the variable is set and well-formed, disengaged
     * otherwise (unset AND malformed — the lazy resolvers warn about
     * malformed text, this helper just skips it). Introspection /
     * logging helper; the library never needs it because disengaged
     * fields already defer to the env through the resolvers.
     */
    static RuntimeOptions fromEnv();

    /**
     * Human-readable one-liner, e.g.
     * "gemm=avx2 threads=0 epilogue=fused sparse=csr quant=off
     * tokens=1 layers=uniform" with "-" for disengaged fields.
     */
    std::string summary() const;

    class Scoped; // defined below (needs the complete struct)
};

/**
 * RAII guard: captures current(), applies opts, restores the capture
 * on destruction. The restore re-installs every knob (current() is
 * fully engaged), so nested guards unwind correctly. Callers must
 * serialize guards against concurrent multiplies. A plan-frozen field
 * (quantMode, tokenKeep, layerKernels) reaches an encoder only if its
 * plan compiles inside the guard.
 */
class RuntimeOptions::Scoped
{
  public:
    explicit Scoped(const RuntimeOptions &opts);
    ~Scoped();

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    RuntimeOptions saved_;
};

} // namespace vitality

#endif // VITALITY_RUNTIME_RUNTIME_OPTIONS_H
