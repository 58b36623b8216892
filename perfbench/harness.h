/**
 * @file
 * Shared machinery of the repository benchmark: clocks, sample
 * statistics with the "ten samples beyond" rule, the metric report
 * every workload prints, output digests, the seeded Poisson arrival
 * schedule, the warm-up loop, and run provenance (host fingerprint and
 * the pinned execution configuration).
 *
 * Header-only: the benchmark is one translation unit.
 */

#ifndef VITALITY_PERFBENCH_HARNESS_H
#define VITALITY_PERFBENCH_HARNESS_H

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "runtime/runtime_options.h"
#include "tensor/gemm.h"
#include "tensor/matrix.h"
#include "tensor/ragged_batch.h"

namespace vitality {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

inline Clock::time_point
afterMs(Clock::time_point t0, double ms)
{
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

/** Median (mean of the two middle values for even counts); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/**
 * Nearest-rank percentile: the ceil(q n)-th smallest sample, so every
 * reported value is an observation.
 */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    rank = std::min(std::max<size_t>(rank, 1), v.size());
    return v[rank - 1];
}

/** Samples that lie beyond the nearest-rank q-percentile of n samples. */
inline size_t
samplesBeyond(size_t n, double q)
{
    const size_t rank = static_cast<size_t>(std::ceil(q * n));
    return n > rank ? n - rank : 0;
}

/**
 * A percentile is reported only when at least this many samples lie
 * beyond it; with fewer, it is one or two outliers, not a tail.
 */
constexpr size_t kMinBeyond = 10;

inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * The metrics one run reports, each with its unit and the number of
 * samples it summarizes, plus notes (omitted percentiles, invalid
 * phases) that travel into the result file.
 */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             size_t samples)
    {
        metrics_.push_back({name, value, unit, samples});
    }

    /**
     * Add the q-percentile of samples as name, or leave it out with a
     * note when fewer than kMinBeyond samples lie beyond it.
     */
    void addPercentile(const std::string &name,
                       const std::vector<double> &samples, double q,
                       const std::string &unit)
    {
        if (samplesBeyond(samples.size(), q) < kMinBeyond) {
            note(name + " omitted: " + std::to_string(samples.size()) +
                 " samples leave fewer than 10 beyond p" +
                 std::to_string(static_cast<int>(q * 100)));
            return;
        }
        add(name, percentile(samples, q), unit, samples.size());
    }

    void note(const std::string &text) { notes_.push_back(text); }

    /** The "metrics" object and "notes" array, as JSON members. */
    std::string json() const
    {
        std::ostringstream os;
        os << "\"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
               << jsonNumber(m.value) << ", \"unit\": \"" << m.unit
               << "\", \"samples\": " << m.samples << "}";
        }
        os << "}, \"notes\": [";
        for (size_t i = 0; i < notes_.size(); ++i)
            os << (i ? ", " : "") << "\"" << jsonEscape(notes_[i]) << "\"";
        os << "]";
        return os.str();
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        size_t samples;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
};

/**
 * FNV-1a style digest of a float buffer and its shape, one 32-bit word
 * per step: any changed bit of any value changes it with overwhelming
 * probability, and it is cheap enough to run on every output.
 */
inline uint64_t
digest(const float *data, size_t rows, size_t cols)
{
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t word) {
        h ^= word;
        h *= 1099511628211ULL;
    };
    mix(rows);
    mix(cols);
    for (size_t i = 0; i < rows * cols; ++i) {
        uint32_t bits;
        std::memcpy(&bits, data + i, sizeof(bits));
        mix(bits);
    }
    return h;
}

inline uint64_t
digest(const Matrix &m)
{
    return digest(m.data(), m.rows(), m.cols());
}

/** Digest of a ragged batch: its row offsets folded into the buffer's. */
inline uint64_t
digest(const RaggedBatch &b)
{
    uint64_t h = digest(b.buffer().data(), b.totalRows(), b.cols());
    for (size_t off : b.offsets())
        h = (h ^ static_cast<uint64_t>(off)) * 1099511628211ULL;
    return h;
}

/**
 * Open-loop arrival offsets (ms from phase start) of a Poisson process
 * at ratePerSec over durationMs, drawn from rng: exponential gaps.
 */
inline std::vector<double>
poissonArrivalsMs(Rng &rng, double ratePerSec, double durationMs)
{
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - static_cast<double>(rng.uniform())) /
             ratePerSec * 1000.0;
        if (t >= durationMs)
            return due;
        due.push_back(t);
    }
}

/** Fisher-Yates shuffle driven by the benchmark's seeded Rng. */
template <class T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(i)]);
}

/**
 * Run unit() (one call, returning its latency in ms) in windows of at
 * least one second and three calls until two consecutive window medians
 * agree within 2%, or for at most capMs. Returns the seconds spent.
 */
template <class Unit>
double
warmUp(Unit &&unit, double capMs = 10000.0)
{
    const Clock::time_point t0 = Clock::now();
    double previous = -1.0;
    while (msSince(t0) < capMs) {
        std::vector<double> window;
        const Clock::time_point w0 = Clock::now();
        while (msSince(w0) < 1000.0 || window.size() < 3)
            window.push_back(unit());
        const double m = median(window);
        if (previous > 0.0 && std::fabs(m - previous) <= 0.02 * previous)
            break;
        previous = m;
    }
    return msSince(t0) / 1000.0;
}

/** Peak resident set of this process in MB (ru_maxrss). */
inline double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Host fingerprint as a JSON object: CPU model, the ISA flags that
 * select GEMM paths, and the online core count. compare_runs.py refuses
 * to compare result files whose fingerprints differ.
 */
inline std::string
hostJson()
{
    std::string model = "unknown";
    std::string flags;
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string key = line.substr(0, colon);
        key.erase(key.find_last_not_of(" \t") + 1);
        const std::string value =
            colon + 2 <= line.size() ? line.substr(colon + 2) : "";
        if (key == "model name" && model == "unknown")
            model = value;
        if (key == "flags" && flags.empty())
            flags = " " + value + " ";
    }
    std::string isa;
    for (const char *f : {"sse4_2", "avx", "avx2", "fma", "f16c", "avx512f",
                          "avx512bw", "avx512vl", "avx512_vnni",
                          "avx512_bf16", "amx_tile"}) {
        if (flags.find(std::string(" ") + f + " ") != std::string::npos)
            isa += std::string(isa.empty() ? "" : " ") + f;
    }
    std::ostringstream os;
    os << "{\"cpu_model\": \"" << jsonEscape(model) << "\", \"isa\": \""
       << isa << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << "}";
    return os.str();
}

/**
 * Pin every process-wide execution knob to its default, so ambient
 * VITALITY_* variables cannot change what a run measures. The GEMM
 * backend is left to CPUID dispatch (pinning avx2 would fail on hosts
 * without it) and recorded instead.
 */
inline void
pinDefaults()
{
    RuntimeOptions opts;
    opts.threads = 0;
    opts.epilogueMode = Gemm::EpilogueMode::Fused;
    opts.sparseMode = SparseExec::Csr;
    opts.quantMode = Gemm::QuantMode::Off;
    opts.tokenKeep = 1.0f;
    opts.layerKernels = std::string();
    opts.apply();
}

/** The pinned configuration as a JSON object. */
inline std::string
configJson(size_t workers, const std::string &workloadPins)
{
    std::ostringstream os;
    os << "{\"backend\": \"" << Gemm::activeName()
       << "\", \"workers\": " << workers << ", \"epilogue\": \""
       << Gemm::epilogueModeName(Gemm::epilogueMode())
       << "\", \"sparse\": \"" << sparseExecName(sparseExecMode())
       << "\", \"quant\": \"" << Gemm::quantModeName(Gemm::quantMode())
       << "\", \"runtime\": \""
       << jsonEscape(RuntimeOptions::current().summary())
       << "\", \"workload\": \"" << jsonEscape(workloadPins) << "\"}";
    return os.str();
}

} // namespace perfbench
} // namespace vitality

#endif // VITALITY_PERFBENCH_HARNESS_H
