#include "runtime/runtime_options.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "attention/zoo.h"
#include "base/logging.h"

namespace vitality {

namespace {

std::optional<size_t>
parseThreads(const char *text)
{
    char *end = nullptr;
    const long parsed = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || parsed < 0)
        return std::nullopt;
    return static_cast<size_t>(parsed);
}

// Token keep-ratio, -1 = not yet resolved from VITALITY_TOKENS. Valid
// values live in (0, 1], so the sentinel is unambiguous. Same lazy
// resolve-once contract as the Gemm knob atomics.
std::atomic<float> g_tokenKeep{-1.0f};

// Per-layer kernel schedule text. A string has no lock-free atomic, so
// this knob is mutex-guarded instead of following the atomic pattern;
// it is read once per plan compile, never on the hot path.
std::mutex g_layersMutex;
bool g_layersResolved = false;
std::string g_layers;

} // namespace

std::optional<float>
parseTokenKeep(const char *text)
{
    if (!text || !*text)
        return std::nullopt;
    char *end = nullptr;
    const float parsed = std::strtof(text, &end);
    if (end == text || *end != '\0' || !(parsed > 0.0f) || parsed > 1.0f)
        return std::nullopt;
    return parsed;
}

float
tokenKeepRatio()
{
    float cur = g_tokenKeep.load(std::memory_order_acquire);
    if (cur < 0.0f) {
        float resolved = 1.0f;
        const char *env = std::getenv("VITALITY_TOKENS");
        if (env && *env) {
            const std::optional<float> wanted = parseTokenKeep(env);
            if (wanted) {
                resolved = *wanted;
            } else {
                warn("VITALITY_TOKENS=%s not recognized (want a keep "
                     "ratio in (0, 1]); keeping every token",
                     env);
            }
        }
        float expected = cur;
        g_tokenKeep.compare_exchange_strong(expected, resolved,
                                            std::memory_order_acq_rel);
        cur = g_tokenKeep.load(std::memory_order_acquire);
    }
    return cur;
}

void
setTokenKeepRatio(float keep)
{
    if (!(keep > 0.0f) || keep > 1.0f) {
        throw std::invalid_argument(
            strfmt("setTokenKeepRatio: keep ratio %g outside (0, 1]",
                   static_cast<double>(keep)));
    }
    g_tokenKeep.store(keep, std::memory_order_release);
}

std::optional<std::string>
parseLayerKernels(const char *text)
{
    if (!text)
        return std::nullopt;
    try {
        (void)parseLayerSchedule(text);
    } catch (const std::invalid_argument &) {
        return std::nullopt;
    }
    return std::string(text);
}

std::string
layerKernelSchedule()
{
    std::lock_guard<std::mutex> lock(g_layersMutex);
    if (!g_layersResolved) {
        g_layersResolved = true;
        const char *env = std::getenv("VITALITY_LAYERS");
        if (env && *env) {
            const std::optional<std::string> wanted =
                parseLayerKernels(env);
            if (wanted) {
                g_layers = *wanted;
            } else {
                warn("VITALITY_LAYERS=%s not recognized (want "
                     "\"kernel:lo-hi,...\", e.g. "
                     "\"taylor:0-7,softmax:8-11\"); running every "
                     "layer on the model's kernel",
                     env);
            }
        }
    }
    return g_layers;
}

void
setLayerKernelSchedule(const std::string &schedule)
{
    // Throws on malformed text before taking the lock.
    (void)parseLayerSchedule(schedule);
    std::lock_guard<std::mutex> lock(g_layersMutex);
    g_layersResolved = true;
    g_layers = schedule;
}

bool
RuntimeOptions::empty() const
{
    return !gemmBackend && !threads && !epilogueMode && !sparseMode &&
           !quantMode && !tokenKeep && !layerKernels;
}

RuntimeOptions
RuntimeOptions::resolved() const
{
    RuntimeOptions out = *this;
    if (!out.gemmBackend)
        out.gemmBackend = Gemm::active();
    if (!out.threads)
        out.threads = Gemm::maxThreads();
    if (!out.epilogueMode)
        out.epilogueMode = Gemm::epilogueMode();
    if (!out.sparseMode)
        out.sparseMode = sparseExecMode();
    if (!out.quantMode)
        out.quantMode = Gemm::quantMode();
    if (!out.tokenKeep)
        out.tokenKeep = tokenKeepRatio();
    if (!out.layerKernels)
        out.layerKernels = layerKernelSchedule();
    return out;
}

void
RuntimeOptions::apply() const
{
    // Validate before mutating anything, so a throw leaves the process
    // state untouched rather than half-applied.
    if (gemmBackend && !Gemm::available(*gemmBackend)) {
        throw std::invalid_argument(
            strfmt("RuntimeOptions: backend %s is not available on "
                   "this host",
                   Gemm::backendName(*gemmBackend)));
    }
    if (tokenKeep && (!(*tokenKeep > 0.0f) || *tokenKeep > 1.0f)) {
        throw std::invalid_argument(
            strfmt("RuntimeOptions: token keep ratio %g outside (0, 1]",
                   static_cast<double>(*tokenKeep)));
    }
    if (layerKernels) {
        try {
            (void)parseLayerSchedule(*layerKernels);
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(
                strfmt("RuntimeOptions: layer schedule: %s", e.what()));
        }
    }
    if (gemmBackend)
        Gemm::setActive(*gemmBackend);
    if (threads)
        Gemm::setMaxThreads(*threads);
    if (sparseMode)
        setSparseExecMode(*sparseMode);
    if (quantMode)
        Gemm::setQuantMode(*quantMode);
    if (tokenKeep)
        setTokenKeepRatio(*tokenKeep);
    if (layerKernels)
        setLayerKernelSchedule(*layerKernels);
}

RuntimeOptions
RuntimeOptions::current()
{
    return RuntimeOptions{}.resolved();
}

RuntimeOptions
RuntimeOptions::fromEnv()
{
    RuntimeOptions out;
    if (const char *env = std::getenv("VITALITY_GEMM"); env && *env)
        out.gemmBackend = Gemm::parseBackend(env);
    if (const char *env = std::getenv("VITALITY_THREADS"); env && *env)
        out.threads = parseThreads(env);
    if (const char *env = std::getenv("VITALITY_SPARSE"); env && *env)
        out.sparseMode = parseSparseExec(env);
    if (const char *env = std::getenv("VITALITY_QUANT"); env && *env)
        out.quantMode = Gemm::parseQuantMode(env);
    if (const char *env = std::getenv("VITALITY_TOKENS"); env && *env)
        out.tokenKeep = parseTokenKeep(env);
    if (const char *env = std::getenv("VITALITY_LAYERS"); env && *env)
        out.layerKernels = parseLayerKernels(env);
    return out;
}

std::string
RuntimeOptions::summary() const
{
    std::ostringstream os;
    os << "gemm="
       << (gemmBackend ? Gemm::backendName(*gemmBackend) : "-");
    os << " threads=";
    if (threads)
        os << *threads;
    else
        os << "-";
    os << " epilogue="
       << (epilogueMode ? Gemm::epilogueModeName(*epilogueMode) : "-");
    os << " sparse=" << (sparseMode ? sparseExecName(*sparseMode) : "-");
    os << " quant="
       << (quantMode ? Gemm::quantModeName(*quantMode) : "-");
    os << " tokens=";
    if (tokenKeep)
        os << *tokenKeep;
    else
        os << "-";
    os << " layers=";
    if (layerKernels)
        os << (layerKernels->empty() ? "uniform" : *layerKernels);
    else
        os << "-";
    return os.str();
}

RuntimeOptions::Scoped::Scoped(const RuntimeOptions &opts)
    : saved_(RuntimeOptions::current())
{
    opts.apply();
}

RuntimeOptions::Scoped::~Scoped()
{
    saved_.apply();
}

} // namespace vitality
