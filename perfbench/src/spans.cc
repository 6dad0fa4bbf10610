#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/files.hh"
#include "common/json.hh"

namespace perfbench
{

namespace
{

std::int64_t
toNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

} // namespace

std::uint64_t
Tracer::nextId()
{
    lsim::MutexLock lock(mu_);
    return ++next_id_;
}

void
Tracer::record(const SpanRecord &span)
{
    lsim::MutexLock lock(mu_);
    spans_.push_back(span);
}

std::vector<double>
Tracer::durationsMs(const std::string &name, std::uint64_t op_lo,
                    std::uint64_t op_hi) const
{
    lsim::MutexLock lock(mu_);
    std::vector<double> out;
    for (const SpanRecord &s : spans_)
        if (name == s.name && s.op >= op_lo && s.op < op_hi)
            out.push_back(s.ms());
    return out;
}

std::map<std::string, double>
Tracer::selfMsByLayer(std::uint64_t op_lo, std::uint64_t op_hi) const
{
    std::vector<SpanRecord> spans;
    {
        lsim::MutexLock lock(mu_);
        for (const SpanRecord &s : spans_)
            if (s.op >= op_lo && s.op < op_hi)
                spans.push_back(s);
    }
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord *>>
        children;
    for (const SpanRecord &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const SpanRecord &s : spans) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        if (auto it = children.find(s.id); it != children.end())
            for (const SpanRecord *c : it->second)
                iv.emplace_back(std::max(c->start_ns, s.start_ns),
                                std::min(c->end_ns, s.end_ns));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = std::numeric_limits<std::int64_t>::min();
        for (const auto &[b, e] : iv) {
            const std::int64_t from = std::max(b, reach);
            if (e > from)
                covered += e - from;
            reach = std::max(reach, e);
        }
        self[s.layer] +=
            static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    }
    return self;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::vector<SpanRecord> spans;
    {
        lsim::MutexLock lock(mu_);
        spans = spans_;
    }
    std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (const SpanRecord &s : spans)
        origin = std::min(origin, s.start_ns);

    std::ostringstream os;
    lsim::JsonWriter w(os);
    w.beginObject();
    w.beginArray("traceEvents");
    for (const SpanRecord &s : spans) {
        w.beginObject();
        w.field("name", s.name);
        w.field("cat", s.layer);
        w.field("ph", "X");
        w.field("ts", static_cast<double>(s.start_ns - origin) / 1e3);
        w.field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        w.field("pid", std::uint64_t{1});
        w.field("tid", static_cast<std::uint64_t>(s.tid));
        w.beginObject("args");
        w.field("id", s.id);
        w.field("parent", s.parent);
        w.field("op", s.op);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
    os << "\n";
    return lsim::atomicWriteFile(path, os.str());
}

Span::Span(Tracer *tracer, const char *name, const char *layer,
           std::uint64_t op, std::uint64_t parent)
    : tracer_(tracer)
{
    record_.name = name;
    record_.layer = layer;
    record_.op = op;
    record_.parent = parent;
    if (tracer_)
        record_.id = tracer_->nextId();
    start_ = Clock::now();
}

double
Span::stop()
{
    if (!stopped_) {
        const Clock::time_point end = Clock::now();
        ms_ = msBetween(start_, end);
        record_.end_ns = toNs(end);
        stopped_ = true;
    }
    return ms_;
}

Span::~Span()
{
    stop();
    if (!tracer_)
        return;
    record_.start_ns = toNs(start_);
    record_.tid = threadIndex();
    tracer_->record(record_);
}

} // namespace perfbench
