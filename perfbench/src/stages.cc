#include "stages.hh"

#include <filesystem>
#include <map>
#include <optional>
#include <sstream>

#include "api/parallel.hh"
#include "common/files.hh"
#include "common/json.hh"
#include "obs/metrics.hh"
#include "replay/engine.hh"
#include "serve/spec.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace lsim;

Rendered
render(const api::BatchResult &result)
{
    Rendered out;
    for (const auto &sweep : result.sweeps) {
        std::ostringstream csv, json;
        sweep.writeCsv(csv);
        sweep.writeJson(json);
        out.emplace_back(csv.str(), json.str());
    }
    return out;
}

std::uint64_t
renderHash(const Rendered &rendered)
{
    store::Fnv1a h;
    for (const auto &[csv, json] : rendered) {
        h.addString(csv);
        h.addString(json);
    }
    return h.value();
}

bool
writeRendered(const std::string &dir, const Rendered &rendered,
              Tracer *tracer, std::uint64_t op, std::uint64_t parent,
              StageCounts *counts)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    for (std::size_t i = 0; i < rendered.size(); ++i) {
        const std::string stem =
            (fs::path(dir) / ("sweep_" + std::to_string(i))).string();
        for (const auto &[ext, doc] :
             {std::pair{".csv", &rendered[i].first},
              std::pair{".json", &rendered[i].second}}) {
            Span span(tracer, "files.write", "common", op, parent);
            if (!atomicWriteFile(stem + ext, *doc))
                return false;
            if (counts)
                ++counts->file_writes;
        }
    }
    return true;
}

Rendered
stageOp(const std::string &spec, const store::ProfileStore &store,
        unsigned threads, Tracer *tracer, std::uint64_t op,
        std::uint64_t parent, StageCounts &counts)
{
    std::optional<api::BatchConfig> batch;
    {
        Span span(tracer, "spec.parse", "serve", op, parent);
        batch = serve::batchConfigFromJson(parseJson(spec));
    }
    std::vector<api::SweepRunner> runners;
    for (const auto &sweep : batch->sweeps)
        runners.emplace_back(sweep);

    // Phase-1 dedup by store key, exactly as BatchRunner does.
    std::vector<api::detail::SimTask> unique;
    std::vector<std::string> keys;
    std::map<std::string, std::size_t> index_of;
    std::vector<std::vector<std::size_t>> refs(runners.size());
    for (std::size_t s = 0; s < runners.size(); ++s) {
        for (std::size_t w = 0; w < runners[s].config().workloads.size();
             ++w) {
            auto task = runners[s].simTask(w);
            const std::string key = task->fingerprint();
            const auto [it, inserted] = index_of.emplace(key, unique.size());
            if (inserted) {
                unique.push_back(std::move(*task));
                keys.push_back(key);
            }
            refs[s].push_back(it->second);
        }
    }

    std::vector<harness::WorkloadSim> sims(unique.size());
    std::vector<int> hit(unique.size(), 0);
    api::detail::parallelFor(unique.size(), threads, [&](std::size_t i) {
        {
            Span span(tracer, "store.load", "store", op, parent);
            if (auto cached = store.load(keys[i])) {
                sims[i] = std::move(*cached);
                hit[i] = 1;
                return;
            }
        }
        {
            Span span(tracer, "sim", "harness", op, parent);
            sims[i] = unique[i].run();
        }
        Span span(tracer, "store.save", "store", op, parent);
        store.save(keys[i], sims[i]);
    });
    for (std::size_t i = 0; i < unique.size(); ++i) {
        ++counts.loads;
        if (hit[i]) {
            ++counts.hits;
            continue;
        }
        ++counts.sims;
        ++counts.saves;
        counts.sim_insts += static_cast<double>(sims[i].sim.committed);
        counts.sim_cycles += static_cast<double>(sims[i].sim.cycles);
    }

    // Phase 2: one multi-point replay per (sweep, workload).
    api::BatchResult result;
    result.sweeps.resize(runners.size());
    std::vector<std::pair<std::size_t, std::size_t>> jobs;
    for (std::size_t s = 0; s < runners.size(); ++s) {
        const api::SweepConfig &cfg = runners[s].config();
        api::SweepResult &out = result.sweeps[s];
        out.workloads = cfg.workloads;
        out.technologies = cfg.technologies;
        out.policy_keys = cfg.policies;
        for (std::size_t w = 0; w < cfg.workloads.size(); ++w) {
            out.sims.push_back(sims[refs[s][w]]);
            jobs.emplace_back(s, w);
        }
        out.cells.resize(cfg.workloads.size() * cfg.technologies.size());
    }
    struct EngineCounts
    {
        std::size_t units = 0, kernel_units = 0, tasks = 0, chunks = 0,
                    intervals = 0;
    };
    std::vector<EngineCounts> engine_counts(jobs.size());
    api::detail::parallelFor(jobs.size(), threads, [&](std::size_t j) {
        Span span(tracer, "replay", "replay", op, parent);
        const auto [s, w] = jobs[j];
        api::SweepResult &out = result.sweeps[s];
        replay::MultiPointReplay engine(
            replay::IntervalSet::fromProfile(out.sims[w].idle),
            out.technologies, out.policy_keys);
        engine.runAll();
        engine_counts[j] = {engine.numUnits(), engine.numKernelUnits(),
                            engine.numTasks(), engine.numChunks(),
                            engine.intervals().numDistinct()};
        auto results = engine.finalize();
        const std::size_t points = out.technologies.size();
        for (std::size_t t = 0; t < points; ++t) {
            api::SweepCell &cell = out.cells[w * points + t];
            cell.workload = w;
            cell.technology = t;
            cell.policies = std::move(results[t]);
        }
    });
    for (const EngineCounts &c : engine_counts) {
        counts.units += c.units;
        counts.kernel_units += c.kernel_units;
        counts.tasks += c.tasks;
        counts.chunks += c.chunks;
        counts.intervals += c.intervals;
    }

    Rendered rendered;
    {
        Span span(tracer, "render", "api", op, parent);
        rendered = render(result);
    }
    for (const auto &[csv, json] : rendered)
        counts.render_bytes += csv.size() + json.size();
    ++counts.ops;
    return rendered;
}

std::vector<Metric>
stageMetrics(const Tracer &tracer, const StageCounts &counts,
             unsigned threads)
{
    const double ops =
        static_cast<double>(std::max<std::uint64_t>(counts.ops, 1));
    const auto median = [&](const char *span, const char *name) {
        const auto d = tracer.durationsMs(span, kStageOpBase);
        return Metric{name, percentile(d, 50), "ms", d.size()};
    };
    const auto perOp = [&](const char *name, double total, const char *unit) {
        return Metric{name, total / ops, unit, counts.ops};
    };
    const auto ratio = [&](const char *name, double num, double den) {
        return Metric{name, den > 0 ? num / den : 0.0, "ratio", counts.ops};
    };

    std::vector<double> sim_ms = tracer.durationsMs("sim", kStageOpBase);
    double sim_total_ms = 0.0;
    for (double ms : sim_ms)
        sim_total_ms += ms;

    std::vector<Metric> out = {
        median("spec.parse", "spec.parse_ms"),
        median("render", "render.ms"),
        perOp("render.bytes", static_cast<double>(counts.render_bytes),
              "bytes"),
        median("sim", "sim.ms"),
        perOp("sim.count", static_cast<double>(counts.sims), "count"),
        {"sim.minsts_per_s",
         sim_total_ms > 0 ? counts.sim_insts / 1e6 / (sim_total_ms / 1e3) : 0.0,
         "Minst/s", sim_ms.size()},
        {"sim.cycles", counts.sim_cycles, "count", counts.ops},
        median("store.load", "store.load_ms"),
        perOp("store.loads", static_cast<double>(counts.loads), "count"),
        ratio("store.hit_ratio", static_cast<double>(counts.hits),
              static_cast<double>(counts.loads)),
        median("store.save", "store.save_ms"),
        perOp("store.saves", static_cast<double>(counts.saves), "count"),
        median("replay", "replay.ms"),
        perOp("replay.units", static_cast<double>(counts.units), "count"),
        perOp("replay.kernel_units", static_cast<double>(counts.kernel_units),
              "count"),
        ratio("replay.kernel_share", static_cast<double>(counts.kernel_units),
              static_cast<double>(counts.units)),
        perOp("replay.tasks", static_cast<double>(counts.tasks), "count"),
        perOp("replay.chunks", static_cast<double>(counts.chunks), "count"),
        perOp("replay.intervals", static_cast<double>(counts.intervals),
              "count"),
        median("files.write", "files.write_ms"),
        perOp("files.writes", static_cast<double>(counts.file_writes), "count"),
    };
    for (const auto &[layer, ms] : tracer.selfMsByLayer(kStageOpBase))
        if (layer != "bench")
            out.push_back({layer + ".self_ms", ms / ops, "ms", counts.ops});

    // Dispatch cost of one op's replay fan-out with empty tasks: the
    // one-shot path (parallelFor spawns threads per call) and the
    // daemon's persistent pool.
    const auto task_count = static_cast<std::size_t>(
        std::max(1.0, static_cast<double>(counts.tasks) / ops + 0.5));
    constexpr int kReps = 64;
    std::vector<double> spawn_us, pool_us;
    api::detail::ThreadPool pool(threads);
    for (int r = 0; r < kReps; ++r) {
        auto t0 = Clock::now();
        api::detail::parallelFor(task_count, threads, [](std::size_t) {});
        auto t1 = Clock::now();
        pool.run(task_count, [](std::size_t) {});
        auto t2 = Clock::now();
        spawn_us.push_back(msBetween(t0, t1) * 1e3);
        pool_us.push_back(msBetween(t1, t2) * 1e3);
    }
    out.push_back({"pool.fanout_us", percentile(spawn_us, 50), "us", kReps});
    out.push_back(
        {"pool.persistent_fanout_us", percentile(pool_us, 50), "us", kReps});
    return out;
}

std::uint64_t
storeWarnings()
{
    return obs::counter("store.lock_timeouts").value() +
           obs::counter("store.retries").value() +
           obs::counter("store.quarantined").value() +
           (obs::gauge("store.degraded").value() > 0 ? 1 : 0);
}

} // namespace perfbench
