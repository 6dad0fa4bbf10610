/**
 * @file
 * The harness's own tracing: spans recorded around its calls into
 * each lsim layer's public functions, kept in memory and written at
 * the end as a Chrome trace (the shape obs::TraceSession writes,
 * plus span/parent/op ids in "args").
 *
 * A Span always measures its duration; it records only when given
 * a Tracer, so the untraced pass pays two clock reads per call and
 * nothing else.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock instants. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRecord
{
    const char *name = "";  ///< call site, e.g. "store.load"
    const char *layer = ""; ///< lsim module the call enters
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t op = 0;     ///< op (request) the span served
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t tid = 0;

    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    std::uint64_t nextId();
    void record(const SpanRecord &span);

    /** Durations (ms) of the spans named @p name whose op id lies in
     * [@p op_lo, @p op_hi), in record order. */
    std::vector<double>
    durationsMs(const std::string &name, std::uint64_t op_lo = 0,
                std::uint64_t op_hi = UINT64_MAX) const;

    /**
     * Self time per layer (ms): each span's duration minus the part
     * of its interval that the union of its children covers, summed
     * by layer. Children on other threads count too, so a parent
     * waiting on a fan-out has no self time for that stretch. Only
     * spans with op ids in [@p op_lo, @p op_hi) count.
     */
    std::map<std::string, double>
    selfMsByLayer(std::uint64_t op_lo = 0,
                  std::uint64_t op_hi = UINT64_MAX) const;

    /** Write every span as a Chrome trace; @return success. */
    bool writeChrome(const std::string &path) const;

  private:
    mutable lsim::Mutex mu_;
    std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
    std::uint64_t next_id_ GUARDED_BY(mu_) = 0;
};

/** RAII span: times a call, and records it when a tracer is set. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, const char *layer,
         std::uint64_t op, std::uint64_t parent = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Id to pass as a child's parent (0 when not recording). */
    std::uint64_t id() const { return record_.id; }

    /** Stop the clock now (the destructor then only records). */
    double stop();

  private:
    Tracer *tracer_;
    SpanRecord record_;
    Clock::time_point start_;
    bool stopped_ = false;
    double ms_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
