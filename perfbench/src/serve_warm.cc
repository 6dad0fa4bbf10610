/**
 * @file
 * serve_warm: a closed loop of socket clients against an in-process
 * daemon whose shared store holds every simulation the requests
 * name. Each client submits with wait=true and sends its next
 * request only after the terminal line, so a slower daemon receives
 * less load. Request specs are pairwise distinct (see the
 * generator), so coalescing never fires and every request executes.
 */

#include <atomic>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "api/parallel.hh"
#include "common/files.hh"
#include "common/json.hh"
#include "obs/metrics.hh"
#include "serve/daemon.hh"
#include "serve/socket.hh"
#include "serve/spec.hh"
#include "stages.hh"
#include "workloads.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace lsim;

namespace
{

constexpr unsigned kClients = 3;
constexpr std::size_t kWarmupRequests = 24;
constexpr std::size_t kStageOps = 64;
constexpr double kRequestTimeoutS = 60.0;

/** One request as its client saw it. */
struct Sample
{
    std::size_t index = 0; ///< op index in the generator's stream
    std::string name;
    double rtt_ms = 0.0;
    double total_ms = 0.0; ///< daemon: admission to terminal status
    double run_ms = 0.0;   ///< daemon: BatchRunner::run
    std::size_t sweeps = 0;
    api::BatchStats stats;
    std::uint64_t output_hash = 0; ///< renderHash of the result files
    std::uint64_t cells = 0;       ///< policy results delivered
    double end_s = 0.0;            ///< completion, seconds into the segment
    std::string error; ///< empty when the request completed "done"
};

/** The requests of one closed-loop stretch against one daemon. */
struct Segment
{
    double seconds = 0.0;
    std::vector<Sample> samples;
};

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse a terminal status line into @p s (error set on failure). */
void
readTerminal(const serve::ClientResult &res, Sample &s)
{
    if (!res.ok) {
        s.error = "transport: " + res.error;
        return;
    }
    if (res.lines.size() != 2) {
        s.error = "expected ack + terminal line, got " +
                  std::to_string(res.lines.size()) + " line(s)";
        return;
    }
    const JsonValue doc = parseJson(res.lines.back());
    const std::string state = doc.at("state").asString();
    if (state != "done") {
        const JsonValue *err = doc.find("error");
        s.error = "state " + state + (err ? ": " + err->asString() : "");
        return;
    }
    s.sweeps = doc.at("sweeps").asU64();
    s.total_ms = doc.at("total_ms").asNumber();
    s.run_ms = doc.at("run_ms").asNumber();
    const JsonValue &st = doc.at("stats");
    s.stats.requested_sims = st.at("requested_sims").asU64();
    s.stats.unique_sims = st.at("unique_sims").asU64();
    s.stats.cache_hits = st.at("cache_hits").asU64();
    s.stats.sims_run = st.at("sims_run").asU64();
}

class ServeWarm
{
  public:
    ServeWarm(const Options &options, Outcome &out)
        : opt_(options), out_(out), gen_(options.workload, options.seed),
          threads_(workerThreads())
    {
    }

    ~ServeWarm() { stopDaemon(); }

    void run()
    {
        // The timed pass is split across every setup's daemon, so one
        // daemon's thread placement cannot set a whole run's numbers.
        std::vector<Segment> untraced;
        for (int rep = 0; rep < kSetups; ++rep) {
            setup(rep);
            untraced.push_back(
                closedLoop(nullptr, "u", opt_.seconds / kSetups));
            if (rep + 1 < kSetups) {
                stopDaemon();
                fs::remove_all(root_);
            }
        }
        std::vector<Segment> traced;
        if (opt_.trace) {
            traced.push_back(closedLoop(&tracer_, "t", opt_.seconds));
            stopPump();
            stageReplay();
        }
        stopDaemon();
        if (final_stats_.failed != 0 || final_stats_.rejected != 0 ||
            final_stats_.coalesced != 0)
            out_.failRun(
                "daemon: " + std::to_string(final_stats_.failed) +
                " failed, " + std::to_string(final_stats_.rejected) +
                " rejected, " + std::to_string(final_stats_.coalesced) +
                " coalesced (all must be 0)");

        // Everything below is outside the timed region.
        checkOutputs(untraced);
        checkOutputs(traced);
        account(untraced, out_.untraced);
        account(traced, out_.traced);
        if (opt_.trace) {
            perLayer(traced);
            if (!opt_.trace_out.empty() && !tracer_.writeChrome(opt_.trace_out))
                out_.failRun("cannot write trace '" + opt_.trace_out + "'");
        }
    }

  private:
    void setup(int rep)
    {
        const Clock::time_point start = Clock::now();
        root_ = opt_.tmp_root / ("setup" + std::to_string(rep));
        cache_ = root_ / "store";
        fs::create_directories(root_);

        // Warm the store once, as `lsim batch --cache-dir` before
        // `lsim serve` would: all nine Table 3 simulations.
        {
            api::BatchConfig warm =
                serve::batchConfigFromJson(parseJson(gen_.warmSpec()));
            warm.cache_dir = cache_.string();
            warm.threads = threads_;
            const api::BatchResult res = api::BatchRunner(warm).run();
            if (res.stats.sims_run != res.stats.unique_sims)
                out_.failRun("setup: warm batch reused a stale store");
        }

        serve::ServeConfig cfg;
        cfg.spool_dir = (root_ / "spool").string();
        cfg.cache_dir = cache_.string();
        // Relative to the run's working directory: sun_path holds
        // only ~108 bytes, and the checkout may sit deep.
        cfg.socket_path = (root_ / "d.sock").string();
        cfg.threads = threads_;
        stop_.store(false);
        cfg.stop = [this] { return stop_.load(); };
        daemon_ = std::make_unique<serve::Daemon>(cfg);
        pump_ = std::thread([this] { daemon_->run(); });

        // Untimed requests: thread spin-up, first store loads, page
        // cache. Sequential, from a stream disjoint from the ops.
        for (std::size_t i = 0; i < kWarmupRequests; ++i) {
            Sample s;
            readTerminal(serve::socketSubmit(daemon_->socketPath(),
                                             "w" + std::to_string(i),
                                             gen_.warmupSpec(i), 0, true,
                                             kRequestTimeoutS),
                         s);
            if (!s.error.empty())
                out_.failRun("setup: warm-up request failed: " + s.error);
        }
        out_.setup_s.push_back(msBetween(start, Clock::now()) / 1e3);
    }

    void stopPump()
    {
        if (pump_.joinable()) {
            stop_.store(true);
            pump_.join();
        }
    }

    /** Pump first, then the daemon (and its store) — all before the
     * caller may remove the root the store flushes into. */
    void stopDaemon()
    {
        stopPump();
        if (daemon_) {
            const serve::ServeStats st = daemon_->stats();
            final_stats_.processed += st.processed;
            final_stats_.failed += st.failed;
            final_stats_.rejected += st.rejected;
            final_stats_.coalesced += st.coalesced;
        }
        daemon_.reset();
    }

    /** Run the clients against the current daemon for @p seconds. */
    Segment closedLoop(Tracer *tracer, const char *prefix, double seconds)
    {
        std::vector<std::vector<Sample>> per_client(kClients);
        const Clock::time_point start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                while (Clock::now() < deadline) {
                    Sample s;
                    s.index = next_.fetch_add(1);
                    s.name = prefix + std::to_string(s.index);
                    const std::string spec = gen_.opSpec(s.index);
                    serve::ClientResult res;
                    {
                        Span span(tracer, "serve.rtt", "serve", s.index + 1);
                        res = serve::socketSubmit(daemon_->socketPath(), s.name,
                                                  spec, 0, true,
                                                  kRequestTimeoutS);
                        s.rtt_ms = span.stop();
                    }
                    s.end_s = msBetween(start, Clock::now()) / 1e3;
                    try {
                        readTerminal(res, s);
                        if (s.error.empty())
                            consume(s);
                    } catch (const std::exception &err) {
                        s.error =
                            std::string("bad terminal line: ") + err.what();
                    }
                    per_client[c].push_back(std::move(s));
                }
            });
        }
        for (auto &t : clients)
            t.join();
        Segment segment;
        segment.seconds = msBetween(start, Clock::now()) / 1e3;
        for (auto &samples : per_client)
            for (auto &s : samples)
                segment.samples.push_back(std::move(s));
        return segment;
    }

    /**
     * The client consumes its results: hash the delivered files (the
     * output check compares the hash after the run) and remove the
     * request's result directory, so a run's disk footprint and
     * directory sizes stay bounded and its files are never written
     * back to the disk while timing.
     */
    void consume(Sample &s) const
    {
        const fs::path dir = resultsDir() / s.name;
        Rendered files;
        for (std::size_t k = 0; k < s.sweeps; ++k) {
            const std::string stem = "sweep_" + std::to_string(k);
            files.emplace_back(readFile(dir / (stem + ".csv")),
                               readFile(dir / (stem + ".json")));
        }
        s.output_hash = renderHash(files);
        fs::remove_all(dir);
    }

    fs::path resultsDir() const { return root_ / "spool" / "results"; }

    void account(const std::vector<Segment> &segments, TimedPass &pass)
    {
        for (const Segment &segment : segments) {
            Period &period = pass.periods.emplace_back();
            period.seconds = segment.seconds;
            for (const Sample &s : segment.samples) {
                ++out_.attempted;
                if (!s.error.empty()) {
                    out_.fail(s.name + ": " + s.error);
                    continue;
                }
                period.ops.push_back({s.end_s, s.rtt_ms, s.run_ms, s.cells});
                requested_ += static_cast<double>(s.stats.requested_sims);
                unique_ += static_cast<double>(s.stats.unique_sims);
                hits_ += static_cast<double>(s.stats.cache_hits);
                if (s.stats.sims_run != 0 ||
                    s.stats.cache_hits != s.stats.unique_sims)
                    out_.fail(s.name + ": not served from the warm store");
            }
        }
    }

    /**
     * Every completed request's result files must match an
     * in-process BatchRunner render of the same spec (FNV-1a over
     * every byte, hashed by the client before it removed them), and
     * no two specs may share a request fingerprint. Runs after the
     * daemon is gone, on its own store instance.
     */
    void checkOutputs(std::vector<Segment> &segments)
    {
        std::vector<Sample *> samples;
        for (Segment &segment : segments)
            for (Sample &s : segment.samples)
                samples.push_back(&s);
        store::ProfileStore store(cache_.string());
        std::vector<std::string> problems(samples.size());
        std::vector<std::string> fingerprints(samples.size());
        api::detail::parallelFor(samples.size(), threads_, [&](std::size_t i) {
            Sample &s = *samples[i];
            try {
                api::BatchConfig batch =
                    serve::batchConfigFromJson(parseJson(gen_.opSpec(s.index)));
                fingerprints[i] = api::batchFingerprint(batch);
                if (!s.error.empty())
                    return;
                batch.cache_dir = cache_.string();
                batch.threads = 1;
                api::BatchEnv env;
                env.store = &store;
                const api::BatchResult result =
                    api::BatchRunner(batch).run(env);
                if (renderHash(render(result)) != s.output_hash)
                    problems[i] =
                        "result files differ from BatchRunner's render";
                for (const auto &sweep : result.sweeps)
                    s.cells += sweep.cells.size() * sweep.policy_keys.size();
            } catch (const std::exception &err) {
                problems[i] = err.what();
            }
        });
        for (std::size_t i = 0; i < samples.size(); ++i)
            if (!problems[i].empty())
                samples[i]->error = problems[i];
        std::set<std::string> distinct;
        for (const std::string &f : fingerprints)
            if (!f.empty() && !distinct.insert(f).second)
                out_.failRun("two requests share fingerprint " + f);
    }

    /**
     * kStageOps fresh requests, one at a time with the pump stopped:
     * admit (Daemon::submitRequest) and drain (Daemon::drainOnce)
     * through the daemon, then the same spec stage by stage in
     * process — the calls a drain makes, each with its own span.
     * What the stages do not cover is serve.unattributed_ms.
     */
    void stageReplay()
    {
        const fs::path out_root = root_ / "stage";
        store::ProfileStore store(cache_.string());
        std::vector<double> mirror_ms;
        for (std::size_t k = 0; k < kStageOps; ++k) {
            const std::uint64_t id = kStageOpBase + k;
            const std::size_t index = next_.fetch_add(1);
            const std::string name = "s" + std::to_string(index);
            const std::string spec = gen_.opSpec(index);
            ++out_.attempted;
            try {
                Span whole(&tracer_, "op", "bench", id);
                std::string ack;
                {
                    Span span(&tracer_, "serve.admit", "serve", id, whole.id());
                    if (daemon_->submitRequest(name, spec, 0, &ack) ==
                        serve::SubmitResult::Rejected)
                        throw std::runtime_error("rejected: " + ack);
                }
                {
                    Span span(&tracer_, "serve.drain", "serve", id, whole.id());
                    if (daemon_->drainOnce() != 1)
                        throw std::runtime_error("drain did not execute it");
                }
                const std::string terminal = daemon_->waitFor(name, 1.0);

                // The drain's work, in process: status "running",
                // parse + load + replay + render, result files,
                // status "done", metrics export.
                const fs::path dir = out_root / name;
                fs::create_directories(dir);
                const std::string status = (dir / "status.json").string();
                const Clock::time_point t0 = Clock::now();
                writeStatus(status, ack, id, whole.id());
                const Rendered rendered =
                    stageOp(spec, store, threads_, &tracer_, id, whole.id(),
                            counts_);
                if (!writeRendered(dir.string(), rendered, &tracer_, id,
                                   whole.id(), &counts_))
                    throw std::runtime_error("cannot write result files");
                writeStatus(status, terminal, id, whole.id());
                {
                    Span span(&tracer_, "obs.export", "obs", id, whole.id());
                    obs::MetricsRegistry::instance().exportFile(
                        (out_root / "metrics.json").string());
                }
                mirror_ms.push_back(msBetween(t0, Clock::now()));
                // Admission's own "queued" status write.
                writeStatus(status, ack, id, whole.id());

                const fs::path served = resultsDir() / name;
                for (std::size_t i = 0; i < rendered.size(); ++i) {
                    const std::string stem = "sweep_" + std::to_string(i);
                    if (readFile(served / (stem + ".csv")) !=
                            rendered[i].first ||
                        readFile(served / (stem + ".json")) !=
                            rendered[i].second)
                        throw std::runtime_error(
                            stem + " differs from the stage render");
                }
            } catch (const std::exception &err) {
                out_.fail(name + ": " + err.what());
            }
        }
        mirror_ms_ = mean(mirror_ms);
    }

    void writeStatus(const std::string &path, const std::string &line,
                     std::uint64_t id, std::uint64_t parent)
    {
        Span span(&tracer_, "files.write", "common", id, parent);
        atomicWriteFile(path, line + "\n");
        ++counts_.file_writes;
    }

    void perLayer(const std::vector<Segment> &traced)
    {
        std::vector<Metric> &m = out_.per_layer;
        m = stageMetrics(tracer_, counts_, threads_);
        std::vector<double> rtt, overhead, socket, run;
        for (const Sample &s : traced.front().samples) {
            if (!s.error.empty())
                continue;
            rtt.push_back(s.rtt_ms);
            overhead.push_back(s.total_ms - s.run_ms);
            socket.push_back(s.rtt_ms - s.total_ms);
            run.push_back(s.run_ms);
        }
        const auto med = [](const char *name, const std::vector<double> &v) {
            return Metric{name, percentile(v, 50), "ms", v.size()};
        };
        m.push_back(med("serve.rtt_ms", rtt));
        m.push_back(med("serve.overhead_ms", overhead));
        m.push_back(med("serve.socket_ms", socket));
        m.push_back(med("batch.run_ms", run));
        const auto admit = tracer_.durationsMs("serve.admit", kStageOpBase);
        const auto drain = tracer_.durationsMs("serve.drain", kStageOpBase);
        m.push_back(med("serve.admit_ms", admit));
        m.push_back(med("serve.drain_ms", drain));
        m.push_back({"serve.unattributed_ms", mean(drain) - mirror_ms_, "ms",
                     drain.size()});
        const auto exports = tracer_.durationsMs("obs.export", kStageOpBase);
        m.push_back(med("obs.export_ms", exports));

        const serve::ServeStats stats = final_stats_;
        m.push_back({"serve.coalesced", static_cast<double>(stats.coalesced),
                     "count", stats.processed});
        m.push_back({"serve.rejected", static_cast<double>(stats.rejected),
                     "count", stats.processed});
        const std::size_t requests = out_.untraced.ops() + out_.traced.ops();
        m.push_back({"batch.dedup_ratio",
                     requested_ > 0 ? unique_ / requested_ : 0.0, "ratio",
                     requests});
        m.push_back({"batch.cache_hit_ratio",
                     unique_ > 0 ? hits_ / unique_ : 0.0, "ratio",
                     requests});
        // Premise: bookkeeping around the batch (daemon overhead plus
        // socket) is most of what a client waits for.
        const double share =
            mean(rtt) > 0 ? (mean(overhead) + mean(socket)) / mean(rtt) : 0.0;
        m.push_back({"premise.share", share, "ratio", rtt.size()});
        out_.notes.push_back(premiseNote(
            "(serve.overhead_ms + serve.socket_ms) share of the round trip",
            share));
    }

    const Options &opt_;
    Outcome &out_;
    Generator gen_;
    unsigned threads_;

    fs::path root_;
    fs::path cache_;
    std::atomic<bool> stop_{false};
    std::unique_ptr<serve::Daemon> daemon_;
    std::thread pump_;
    std::atomic<std::size_t> next_{0};

    Tracer tracer_;
    StageCounts counts_;
    double mirror_ms_ = 0.0;
    serve::ServeStats final_stats_; ///< summed over every daemon
    double requested_ = 0.0, unique_ = 0.0, hits_ = 0.0;
};

} // namespace

Outcome
runServeWarm(const Options &options)
{
    Outcome out;
    ServeWarm(options, out).run();
    return out;
}

} // namespace perfbench
