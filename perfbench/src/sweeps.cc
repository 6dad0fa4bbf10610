/**
 * @file
 * sweep_cold and sweep_adaptive: sequential one-shot batch ops, as
 * `lsim batch --cache-dir C --out-dir D` runs them — parse the spec,
 * BatchRunner::run with its own store instance and thread fan-out,
 * render, write the result files. req_* time the whole op,
 * batch_p50_s the BatchRunner::run call alone.
 */

#include <filesystem>
#include <optional>

#include "common/json.hh"
#include "serve/spec.hh"
#include "stages.hh"
#include "workloads.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace lsim;

namespace
{

/** Stage-replay sample size (ops replayed layer by layer). */
constexpr std::size_t kStageOps = 4;

struct OpResult
{
    Rendered rendered;
    api::BatchStats stats;
    OpSample sample; ///< end_s is the caller's to set
};

class SweepWorkload
{
  public:
    SweepWorkload(const Options &options, Outcome &out)
        : opt_(options), out_(out), gen_(options.workload, options.seed),
          threads_(workerThreads()),
          adaptive_(options.workload == Workload::SweepAdaptive)
    {
    }

    void run()
    {
        for (int rep = 0; rep < kSetups; ++rep)
            setup(rep);
        hashes_.clear();
        timedPass(nullptr, out_.untraced);
        checkOracle();
        if (opt_.trace) {
            timedPass(&tracer_, out_.traced);
            stageReplay();
            perLayer();
            if (!opt_.trace_out.empty() && !tracer_.writeChrome(opt_.trace_out))
                out_.failRun("cannot write trace '" + opt_.trace_out + "'");
        }
    }

  private:
    /** One op; @p cache is its store directory. */
    OpResult op(const std::string &spec, const fs::path &cache,
                Tracer *tracer, std::uint64_t id,
                bool scalar_oracle = false)
    {
        OpResult r;
        Span whole(tracer, "op", "bench", id);
        std::optional<api::BatchConfig> batch;
        {
            Span span(tracer, "spec.parse", "serve", id, whole.id());
            batch = serve::batchConfigFromJson(parseJson(spec));
        }
        batch->cache_dir = cache.string();
        batch->threads = threads_;
        for (auto &sweep : batch->sweeps)
            sweep.scalar_replay = scalar_oracle;
        const api::BatchRunner runner(*batch);
        api::BatchResult result;
        Span run(tracer, "batch.run", "api", id, whole.id());
        result = runner.run();
        r.sample.batch_ms = run.stop();
        {
            Span span(tracer, "render", "api", id, whole.id());
            r.rendered = render(result);
        }
        if (!writeRendered((opt_.tmp_root / "out").string(), r.rendered,
                           tracer, id, whole.id(), nullptr))
            throw std::runtime_error("cannot write result files");
        r.sample.req_ms = whole.stop();

        r.stats = result.stats;
        for (const auto &sweep : result.sweeps)
            r.sample.cells += sweep.cells.size() * sweep.policy_keys.size();
        return r;
    }

    /** A fresh store directory for sweep_cold op @p i of pass @p kind. */
    fs::path coldCache(char kind, std::size_t i) const
    {
        return opt_.tmp_root / "cold" /
               (std::string(1, kind) + std::to_string(i));
    }

    void setup(int rep)
    {
        const Clock::time_point start = Clock::now();
        const fs::path root = opt_.tmp_root / ("setup" + std::to_string(rep));
        fs::create_directories(root);
        if (adaptive_) {
            // Warm the store with the long simulations every op
            // replays, as a researcher's first `lsim batch` would.
            api::BatchConfig warm =
                serve::batchConfigFromJson(parseJson(gen_.warmSpec()));
            warm.cache_dir = (root / "store").string();
            warm.threads = threads_;
            const api::BatchResult res = api::BatchRunner(warm).run();
            if (res.stats.sims_run != res.stats.unique_sims)
                out_.failRun("setup: warm batch reused a stale store");
            store_ = root / "store";
        }
        // One untimed op primes code paths and the page cache.
        op(gen_.warmupSpec(static_cast<std::size_t>(rep)),
           adaptive_ ? store_ : root / "warmup", nullptr, 0);
        out_.setup_s.push_back(msBetween(start, Clock::now()) / 1e3);
        if (rep + 1 < kSetups)
            fs::remove_all(root);
    }

    void timedPass(Tracer *tracer, TimedPass &pass)
    {
        Period &period = pass.periods.emplace_back();
        const Clock::time_point start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(opt_.seconds));
        for (std::size_t i = 0; Clock::now() < deadline; ++i) {
            const char kind = tracer ? 't' : 'u';
            const std::string tag = std::string(1, kind) + std::to_string(i);
            ++out_.attempted;
            try {
                OpResult r = op(gen_.opSpec(i),
                                adaptive_ ? store_ : coldCache(kind, i),
                                tracer, i + 1);
                r.sample.end_s = msBetween(start, Clock::now()) / 1e3;
                period.ops.push_back(r.sample);
                if (!tracer) {
                    hashes_.push_back(renderHash(r.rendered));
                    stats_.push_back(r.stats);
                    if (i == 0)
                        first_ = r.rendered;
                }
                checkPremise(r.stats, "op " + tag);
            } catch (const std::exception &err) {
                out_.fail("op " + tag + ": " + err.what());
            }
        }
        period.seconds = msBetween(start, Clock::now()) / 1e3;
    }

    /** The stats each op must show, per the workload's premise. */
    void checkPremise(const api::BatchStats &s, const std::string &what)
    {
        const bool ok =
            adaptive_ ? s.sims_run == 0 && s.cache_hits == s.unique_sims
                      : s.cache_hits == 0 && s.sims_run == s.unique_sims &&
                            s.unique_sims < s.requested_sims;
        if (!ok)
            out_.fail(what + ": batch stats break the premise (" +
                      std::to_string(s.requested_sims) + " requested, " +
                      std::to_string(s.unique_sims) + " unique, " +
                      std::to_string(s.cache_hits) + " hits, " +
                      std::to_string(s.sims_run) + " simulated)");
    }

    /**
     * Op 0 again, outside the timed region: sweep_cold from its now
     * warm store (every sim must hit), sweep_adaptive on the scalar
     * replay path. Either must reproduce op 0's bytes.
     */
    void checkOracle()
    {
        if (first_.empty())
            return;
        try {
            const OpResult again =
                op(gen_.opSpec(0), adaptive_ ? store_ : coldCache('u', 0),
                   nullptr, 0, adaptive_);
            const api::BatchStats &s = again.stats;
            if (!adaptive_ &&
                (s.sims_run != 0 || s.cache_hits != s.unique_sims))
                out_.failRun("oracle: warm re-run of op 0 re-simulated");
            if (again.rendered != first_)
                out_.fail(adaptive_
                              ? "op 0 differs from the scalar-replay oracle"
                              : "op 0 differs from its warm-store re-run");
        } catch (const std::exception &err) {
            out_.fail(std::string("oracle: ") + err.what());
        }
    }

    /** The first kStageOps ops again, layer by layer. */
    void stageReplay()
    {
        for (std::size_t k = 0; k < kStageOps; ++k) {
            const std::uint64_t id = kStageOpBase + k;
            ++out_.attempted;
            try {
                Span whole(&tracer_, "op", "bench", id);
                const fs::path cache =
                    adaptive_ ? store_ : coldCache('s', k);
                std::optional<store::ProfileStore> store;
                {
                    Span span(&tracer_, "store.open", "store", id, whole.id());
                    store.emplace(cache.string());
                }
                const Rendered rendered =
                    stageOp(gen_.opSpec(k), *store, threads_, &tracer_, id,
                            whole.id(), counts_);
                if (!writeRendered((opt_.tmp_root / "stage_out").string(),
                                   rendered, &tracer_, id, whole.id(),
                                   &counts_))
                    throw std::runtime_error("cannot write result files");
                {
                    Span span(&tracer_, "store.close", "store", id, whole.id());
                    store.reset();
                }
                const std::uint64_t want =
                    k < hashes_.size()
                        ? hashes_[k]
                        : renderHash(
                              op(gen_.opSpec(k),
                                 adaptive_ ? store_
                                           : coldCache('r', k),
                                 nullptr, 0)
                                  .rendered);
                if (renderHash(rendered) != want)
                    out_.fail("stage op " + std::to_string(k) +
                              " differs from BatchRunner's output");
            } catch (const std::exception &err) {
                out_.fail("stage op " + std::to_string(k) + ": " + err.what());
            }
        }
    }

    void perLayer()
    {
        std::vector<Metric> &m = out_.per_layer;
        m = stageMetrics(tracer_, counts_, threads_);
        const auto run_ms = tracer_.durationsMs("batch.run", 1, kStageOpBase);
        m.push_back(
            {"batch.run_ms", percentile(run_ms, 50), "ms", run_ms.size()});
        double requested = 0, unique = 0, hits = 0;
        for (const auto &s : stats_) {
            requested += static_cast<double>(s.requested_sims);
            unique += static_cast<double>(s.unique_sims);
            hits += static_cast<double>(s.cache_hits);
        }
        m.push_back({"batch.dedup_ratio",
                     requested > 0 ? unique / requested : 0.0, "ratio",
                     stats_.size()});
        m.push_back({"batch.cache_hit_ratio", unique > 0 ? hits / unique : 0.0,
                     "ratio", stats_.size()});

        // Premise: phase 1 (sweep_cold) or replay (sweep_adaptive) is
        // most of the busy time the stage sample spent in lsim layers.
        double busy = 0.0, dominant = 0.0;
        for (const auto &[layer, ms] : tracer_.selfMsByLayer(kStageOpBase)) {
            if (layer == "bench")
                continue;
            busy += ms;
            if (layer == (adaptive_ ? "replay" : "harness"))
                dominant = ms;
        }
        const double share = busy > 0 ? dominant / busy : 0.0;
        m.push_back({"premise.share", share, "ratio", counts_.ops});
        out_.notes.push_back(premiseNote(
            adaptive_ ? "replay share of per-layer busy time"
                      : "sim (harness) share of per-layer busy time",
            share));
    }

    const Options &opt_;
    Outcome &out_;
    Generator gen_;
    unsigned threads_;
    bool adaptive_;
    fs::path store_; ///< sweep_adaptive's warm store
    Tracer tracer_;
    StageCounts counts_;
    std::vector<std::uint64_t> hashes_; ///< untraced pass, op order
    std::vector<api::BatchStats> stats_;
    Rendered first_;
};

} // namespace

Outcome
runSweep(const Options &options)
{
    Outcome out;
    SweepWorkload(options, out).run();
    return out;
}

} // namespace perfbench
