#include "report.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <sys/resource.h>

namespace perfbench
{

void
Outcome::fail(const std::string &message)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(message);
}

void
Outcome::failRun(const std::string &message)
{
    run_ok = false;
    if (failures.size() < 8)
        failures.push_back(message);
}

std::string
premiseNote(const std::string &what, double share)
{
    return "premise: " + what + " = " + std::to_string(share) +
           (share > 0.5 ? " (holds: above 0.5)" : " (FAILS: must exceed 0.5)");
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        pct / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::size_t
TimedPass::ops() const
{
    std::size_t n = 0;
    for (const Period &p : periods)
        n += p.ops.size();
    return n;
}

std::vector<Metric>
endToEnd(const Outcome &outcome, const TimedPass &pass)
{
    constexpr std::size_t kMaxSlices = 12;
    constexpr std::size_t kMinSliceOps = 100;
    const std::size_t slices = std::clamp<std::size_t>(
        pass.ops() / kMinSliceOps, 1, kMaxSlices);
    const std::size_t per_period = std::max<std::size_t>(
        1, slices / std::max<std::size_t>(1, pass.periods.size()));

    std::vector<const OpSample *> best;
    double best_seconds = 1.0;
    for (const Period &period : pass.periods) {
        const double width = period.seconds / static_cast<double>(per_period);
        std::vector<std::vector<const OpSample *>> cut(per_period);
        for (const OpSample &op : period.ops) {
            const auto i =
                static_cast<std::size_t>(std::max(0.0, op.end_s / width));
            cut[std::min(i, per_period - 1)].push_back(&op);
        }
        for (auto &slice : cut)
            if (static_cast<double>(slice.size()) / width >
                static_cast<double>(best.size()) / best_seconds) {
                best = std::move(slice);
                best_seconds = width;
            }
    }

    std::vector<double> req, batch;
    std::uint64_t cells = 0;
    for (const OpSample *op : best) {
        req.push_back(op->req_ms);
        batch.push_back(op->batch_ms);
        cells += op->cells;
    }
    const std::size_t n = best.size();
    return {
        {"setup_s", percentile(outcome.setup_s, 50), "s",
         outcome.setup_s.size()},
        {"req_p50_ms", percentile(req, 50), "ms", n},
        {"req_p90_ms", percentile(req, 90), "ms", n},
        {"req_per_s", static_cast<double>(n) / best_seconds, "1/s", n},
        {"batch_p50_s", percentile(batch, 50) / 1000.0, "s", n},
        {"cells_per_s", static_cast<double>(cells) / best_seconds, "1/s", n},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
    };
}

const std::vector<std::string> &
endToEndNames()
{
    static const std::vector<std::string> names = {
        "setup_s",     "req_p50_ms",  "req_p90_ms", "req_per_s",
        "batch_p50_s", "cells_per_s", "peak_rss_mb"};
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        // serve
        {"serve.rtt_ms", "ms"}, {"serve.overhead_ms", "ms"},
        {"serve.socket_ms", "ms"}, {"serve.admit_ms", "ms"},
        {"serve.drain_ms", "ms"}, {"serve.unattributed_ms", "ms"},
        {"serve.coalesced", "count"}, {"serve.rejected", "count"},
        {"spec.parse_ms", "ms"},
        // api
        {"batch.run_ms", "ms"}, {"batch.dedup_ratio", "ratio"},
        {"batch.cache_hit_ratio", "ratio"}, {"render.ms", "ms"},
        {"render.bytes", "bytes"}, {"pool.fanout_us", "us"},
        {"pool.persistent_fanout_us", "us"},
        // harness/cpu/cache/trace: phase 1
        {"sim.ms", "ms"}, {"sim.count", "count"},
        {"sim.minsts_per_s", "Minst/s"}, {"sim.cycles", "count"},
        // store
        {"store.load_ms", "ms"}, {"store.loads", "count"},
        {"store.hit_ratio", "ratio"}, {"store.save_ms", "ms"},
        {"store.saves", "count"}, {"store.warnings", "count"},
        // replay
        {"replay.ms", "ms"}, {"replay.units", "count"},
        {"replay.kernel_units", "count"}, {"replay.kernel_share", "ratio"},
        {"replay.tasks", "count"}, {"replay.chunks", "count"},
        {"replay.intervals", "count"},
        // obs, common
        {"obs.export_ms", "ms"}, {"files.write_ms", "ms"},
        {"files.writes", "count"},
        // self time per layer, per op
        {"serve.self_ms", "ms"}, {"api.self_ms", "ms"},
        {"harness.self_ms", "ms"}, {"store.self_ms", "ms"},
        {"replay.self_ms", "ms"}, {"obs.self_ms", "ms"},
        {"common.self_ms", "ms"},
        // the workload's premise, and what tracing costs
        {"premise.share", "ratio"}, {"trace.overhead_ratio", "ratio"}};
    return names;
}

} // namespace perfbench
