/**
 * @file
 * Span recording for the traced benchmark run.
 *
 * A span is (name, start, end, parent, id) plus the work counts measured
 * at the same boundary (FLOPs and bytes, computed from tensor sizes).
 * Spans go into a buffer reserved up front, so recording never
 * allocates; when the buffer is full further spans are counted as
 * dropped. At exit the buffer is written as Chrome trace-event JSON,
 * which Perfetto (ui.perfetto.dev) opens directly.
 *
 * Spans recorded live around calls from the benchmark's own code are
 * synchronous and nest on one track. Serve spans are reconstructed
 * afterwards from response timestamps and overlap each other, so they
 * are written as async events keyed by their request's root span.
 */

#ifndef VITALITY_PERFBENCH_TRACE_H
#define VITALITY_PERFBENCH_TRACE_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

namespace vitality {
namespace perfbench {

class SpanRecorder
{
  public:
    struct Span
    {
        const char *name; ///< Static string.
        int64_t startNs, endNs; ///< From the recorder's epoch.
        uint32_t id;      ///< 1-based; 0 = none.
        uint32_t parent;  ///< 0 for a root.
        int32_t arg;      ///< Layer index, model index, or -1.
        bool async;       ///< Reconstructed, may overlap its siblings.
        double flops, bytes;
    };

    /** @param epoch Time zero of the trace; spans must not start before. */
    explicit SpanRecorder(size_t capacity,
                          Clock::time_point epoch = Clock::now())
        : epoch_(epoch)
    {
        spans_.reserve(capacity);
    }

    /** Open a span now; returns its id (0 when the buffer is full). */
    uint32_t open(const char *name, uint32_t parent, int32_t arg = -1)
    {
        return push(name, parent, arg, ns(Clock::now()), -1, false);
    }

    /** Close an open span now, attaching its work counts. */
    void close(uint32_t id, double flops = 0.0, double bytes = 0.0)
    {
        if (id == 0)
            return;
        Span &s = spans_[id - 1];
        s.endNs = ns(Clock::now());
        s.flops = flops;
        s.bytes = bytes;
    }

    /** Record a finished span reconstructed from timestamps. */
    uint32_t record(const char *name, uint32_t parent, Clock::time_point a,
                    Clock::time_point b, int32_t arg)
    {
        return push(name, parent, arg, ns(a), ns(b), true);
    }

    const std::vector<Span> &spans() const { return spans_; }
    size_t dropped() const { return dropped_; }

    static double durMs(const Span &s)
    {
        return static_cast<double>(s.endNs - s.startNs) / 1e6;
    }

    /** Index of each span's root span. */
    std::vector<size_t> roots() const
    {
        std::vector<size_t> root(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            root[i] = spans_[i].parent ? root[spans_[i].parent - 1] : i;
        return root;
    }

    /**
     * Per-name totals over every root named rootName: for each such
     * root, its own duration and the summed duration, count, FLOPs and
     * bytes of its descendants by name. Whether a span is a leaf is
     * recorded so callers can tell stage time from grouping spans.
     */
    struct Totals
    {
        double ms = 0.0, flops = 0.0, bytes = 0.0;
        size_t count = 0;
    };
    struct RootTotals
    {
        double rootMs = 0.0, leafMs = 0.0;
        std::map<std::string, Totals> byName;
    };
    std::vector<RootTotals> totalsUnder(const char *rootName) const
    {
        const std::vector<size_t> root = roots();
        std::vector<bool> hasChild(spans_.size(), false);
        for (const Span &s : spans_)
            if (s.parent)
                hasChild[s.parent - 1] = true;
        std::map<size_t, size_t> slot; // root span index -> result row
        std::vector<RootTotals> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &r = spans_[root[i]];
            if (std::string(r.name) != rootName || r.endNs < 0)
                continue;
            auto it = slot.find(root[i]);
            if (it == slot.end()) {
                it = slot.emplace(root[i], out.size()).first;
                out.emplace_back();
                out.back().rootMs = durMs(r);
            }
            if (i == root[i])
                continue;
            RootTotals &t = out[it->second];
            Totals &n = t.byName[spans_[i].name];
            n.ms += durMs(spans_[i]);
            n.flops += spans_[i].flops;
            n.bytes += spans_[i].bytes;
            ++n.count;
            if (!hasChild[i])
                t.leafMs += durMs(spans_[i]);
        }
        return out;
    }

    /**
     * Self time by span name: each span's duration minus the time its
     * children cover, summed per name, as a JSON object.
     */
    std::string selfTimeJson() const
    {
        std::vector<double> childMs(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent && s.endNs >= 0)
                childMs[s.parent - 1] += durMs(s);
        std::map<std::string, Totals> total, self;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.endNs < 0)
                continue;
            total[s.name].ms += durMs(s);
            ++total[s.name].count;
            self[s.name].ms += durMs(s) - childMs[i];
        }
        std::string out = "{";
        for (const auto &kv : total) {
            out += (out.size() > 1 ? ", \"" : "\"") + kv.first +
                   "\": {\"count\": " + std::to_string(kv.second.count) +
                   ", \"total_ms\": " + jsonNumber(kv.second.ms) +
                   ", \"self_ms\": " + jsonNumber(self[kv.first].ms) + "}";
        }
        return out + "}";
    }

    /** Write every closed span as Chrome trace-event JSON. */
    void writeChromeJson(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            throw std::runtime_error("trace: cannot write " + path);
        const std::vector<size_t> root = roots();
        std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        bool first = true;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.endNs < 0)
                continue;
            const double ts = static_cast<double>(s.startNs) / 1e3;
            const double te = static_cast<double>(s.endNs) / 1e3;
            char args[160];
            std::snprintf(args, sizeof(args),
                          "{\"id\": %u, \"parent\": %u, \"arg\": %d, "
                          "\"flops\": %.0f, \"bytes\": %.0f}",
                          s.id, s.parent, s.arg, s.flops, s.bytes);
            if (s.async) {
                const uint32_t key = spans_[root[i]].id;
                std::fprintf(f,
                             "%s{\"name\": \"%s\", \"cat\": \"serve\", "
                             "\"ph\": \"b\", \"id\": %u, \"pid\": 1, "
                             "\"tid\": 2, \"ts\": %.3f, \"args\": %s},\n"
                             "{\"name\": \"%s\", \"cat\": \"serve\", "
                             "\"ph\": \"e\", \"id\": %u, \"pid\": 1, "
                             "\"tid\": 2, \"ts\": %.3f}",
                             first ? "" : ",\n", s.name, key, ts, args,
                             s.name, key, te);
            } else {
                std::fprintf(f,
                             "%s{\"name\": \"%s\", \"cat\": \"bench\", "
                             "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                             "\"ts\": %.3f, \"dur\": %.3f, \"args\": %s}",
                             first ? "" : ",\n", s.name, ts, te - ts, args);
            }
            first = false;
        }
        std::fprintf(f, "\n]}\n");
        if (std::fclose(f) != 0)
            throw std::runtime_error("trace: write to " + path + " failed");
    }

  private:
    int64_t ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                    epoch_)
            .count();
    }

    uint32_t push(const char *name, uint32_t parent, int32_t arg,
                  int64_t start, int64_t end, bool async)
    {
        if (spans_.size() == spans_.capacity()) {
            ++dropped_;
            return 0;
        }
        const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
        spans_.push_back({name, start, end, id, parent, arg, async, 0.0, 0.0});
        return id;
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    size_t dropped_ = 0;
};

/**
 * RAII span; a null recorder makes it a no-op, which is how one replay
 * routine serves both traced and untraced passes.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, uint32_t parent,
               int32_t arg = -1)
        : rec_(rec), id_(rec ? rec->open(name, parent, arg) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(id_, flops_, bytes_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint32_t id() const { return id_; }
    void counts(double flops, double bytes)
    {
        flops_ = flops;
        bytes_ = bytes;
    }

  private:
    SpanRecorder *rec_;
    uint32_t id_;
    double flops_ = 0.0, bytes_ = 0.0;
};

} // namespace perfbench
} // namespace vitality

#endif // VITALITY_PERFBENCH_TRACE_H
