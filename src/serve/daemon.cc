#include "serve/daemon.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/batch.hh"
#include "common/fault.hh"
#include "common/files.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/socket.hh"
#include "serve/spec.hh"

namespace lsim::serve
{

namespace fs = std::filesystem;

namespace
{

constexpr const char *kWorkDir = "work";
constexpr const char *kDoneDir = "done";
constexpr const char *kFailedDir = "failed";
constexpr const char *kStatusFile = "status.json";
constexpr const char *kMetricsFile = "metrics.json";

/** Terminal status lines the completion board keeps (waiters get at
 * most this many lingering results; disk has the rest). */
constexpr std::size_t kBoardCapacity = 256;

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Request names become directory components; reject anything that
 * could escape the results dir or collide with reserved files. */
bool
validName(const std::string &name)
{
    if (name.empty() || name.size() > 128 || name == "." ||
        name == "..")
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Does this status text name a terminal state? (Cheap check for
 * waiters polling result dirs written by *other* daemons.) */
bool
terminalStatus(const std::string &text)
{
    return text.find("\"state\":\"done\"") != std::string::npos ||
           text.find("\"state\":\"error\"") !=
               std::string::npos ||
           text.find("\"state\":\"rejected\"") !=
               std::string::npos;
}

std::string
trimTrailingNewline(std::string text)
{
    while (!text.empty() &&
           (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
    return text;
}

} // namespace

/** How a request ends: the terminal state its status carries. */
enum class Daemon::Outcome
{
    Done,    ///< results delivered
    Error,   ///< admitted (or a spool spec consumed) but failed
    Rejected ///< refused at the door; never owned its name
};

/** One request's lifecycle state, shared by the status transitions
 * so every write carries everything known so far. */
struct Daemon::Request
{
    std::string spec_label; ///< "spec" field: filename or name
    std::string name;       ///< request name (results dir stem)
    Ingress ingress = Ingress::Socket;
    std::string spec_file;  ///< spool filename; empty for socket
    /** <results>/<name> once this request owns it; empty while it
     * owns none, and then nothing is written to disk for it. */
    std::string result_dir;
    std::size_t sweeps = 0; ///< result count, once known
    double run_ms = 0.0;    ///< BatchRunner::run wall time
    double total_ms = 0.0;  ///< admission-to-final wall time
    std::optional<api::BatchStats> stats;
    std::string coalesced_with; ///< primary name, for followers
    std::chrono::steady_clock::time_point admitted{};

    // Wall-clock ISO-8601 stamps, filled as the request advances so
    // per-request latency is reconstructable from the spool alone.
    std::string queued_at;
    std::string started_at;
    std::string finished_at;

    /**
     * Render the status.json document (one line per field, trailing
     * newline). @p state is one of "queued", "running", "done",
     * "error", "rejected"; @p error is the machine-readable failure
     * message for the error/rejected states.
     */
    std::string statusJson(const char *state,
                           const std::string &error = "") const
    {
        std::ostringstream ss;
        JsonWriter w(ss);
        w.beginObject();
        w.field("spec", spec_label);
        w.field("state", state);
        if (!error.empty())
            w.field("error", error);
        if (!coalesced_with.empty())
            w.field("coalesced_with", coalesced_with);
        if (sweeps > 0)
            w.field("sweeps", static_cast<std::uint64_t>(sweeps));
        w.field("run_ms", run_ms);
        w.field("total_ms", total_ms);
        if (!queued_at.empty())
            w.field("queued_at", queued_at);
        if (!started_at.empty())
            w.field("started_at", started_at);
        if (!finished_at.empty())
            w.field("finished_at", finished_at);
        if (stats) {
            w.beginObject("stats");
            w.field("requested_sims",
                    static_cast<std::uint64_t>(
                        stats->requested_sims));
            w.field("unique_sims",
                    static_cast<std::uint64_t>(stats->unique_sims));
            w.field("cache_hits",
                    static_cast<std::uint64_t>(stats->cache_hits));
            w.field("sims_run",
                    static_cast<std::uint64_t>(stats->sims_run));
            w.endObject();
        }
        w.endObject();
        ss << "\n";
        return ss.str();
    }

    /** Atomically (re)write <result_dir>/status.json when this
     * request owns a result dir; @return the document. A lost status
     * write (injected or real) is survivable: the in-process
     * completion board carries the same line to waiters, and disk
     * pollers see the previous state. */
    std::string writeStatus(const char *state,
                            const std::string &error = "") const
    {
        std::string doc = statusJson(state, error);
        if (!result_dir.empty() && !LSIM_FAULT("serve.status"))
            atomicWriteFile(
                (fs::path(result_dir) / kStatusFile).string(),
                doc);
        return doc;
    }
};

Daemon::Daemon(ServeConfig config)
    : config_(std::move(config)),
      results_dir_(config_.results_dir.empty()
                       ? (fs::path(config_.spool_dir) / "results")
                             .string()
                       : config_.results_dir),
      metrics_path_(
          (fs::path(config_.spool_dir) / kMetricsFile).string()),
      pool_(config_.threads), queue_(config_.max_queue)
{
    if (config_.spool_dir.empty())
        throw std::invalid_argument("serve: spool directory not set");
    for (const std::string &dir :
         {config_.spool_dir,
          (fs::path(config_.spool_dir) / kWorkDir).string(),
          (fs::path(config_.spool_dir) / kDoneDir).string(),
          (fs::path(config_.spool_dir) / kFailedDir).string(),
          results_dir_}) {
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec || !fs::is_directory(dir))
            throw std::invalid_argument("serve: directory '" + dir +
                                        "' cannot be created");
    }
    if (!config_.cache_dir.empty())
        store_.emplace(config_.cache_dir);
    recoverStale();
    // The socket comes up last so a connecting client never races
    // the spool layout or the store.
    if (!config_.socket_path.empty())
        socket_ =
            std::make_unique<SocketServer>(*this,
                                           config_.socket_path);
}

Daemon::~Daemon()
{
    // Unblock waiters first (their connection threads must be able
    // to finish for stop() to join them), then stop the front door,
    // then fail what was admitted but never ran.
    {
        MutexLock lock(board_mu_);
        shutting_down_ = true;
    }
    board_cv_.notify_all();
    if (socket_)
        socket_->stop();
    abandonQueued();
    socket_.reset();
}

void
Daemon::recoverStale()
{
    // Specs stranded in work/ mean a previous daemon died mid-
    // request; their results are suspect, so re-queue the specs and
    // let this instance redo them from scratch.
    const fs::path work = fs::path(config_.spool_dir) / kWorkDir;
    for (const auto &de : fs::directory_iterator(work)) {
        if (!de.is_regular_file() ||
            de.path().extension() != ".json")
            continue;
        const fs::path dest =
            fs::path(config_.spool_dir) / de.path().filename();
        std::error_code ec;
        if (fs::exists(dest, ec)) {
            // A same-named spec was submitted since the crash;
            // re-queueing would clobber it with the stale copy.
            // The fresh spec wins — park the stale one in failed/.
            warn("serve: stale spec '%s' shadowed by a newer "
                 "submission; moving it to %s/",
                 de.path().filename().string().c_str(), kFailedDir);
            fs::rename(de.path(),
                       fs::path(config_.spool_dir) / kFailedDir /
                           de.path().filename(),
                       ec);
            continue;
        }
        fs::rename(de.path(), dest, ec);
        if (ec) {
            warn("serve: cannot re-queue stale spec '%s': %s",
                 de.path().string().c_str(), ec.message().c_str());
            continue;
        }
        {
            MutexLock lock(stats_mu_);
            stats_.recovered += 1;
        }
        obs::counter("serve.requests_recovered").add();
        inform("serve: re-queued stale spec '%s'",
               de.path().filename().string().c_str());
    }
}

bool
Daemon::stopped() const
{
    return config_.stop && config_.stop();
}

std::string
Daemon::workPath(const std::string &spec_file) const
{
    return (fs::path(config_.spool_dir) / kWorkDir / spec_file)
        .string();
}

void
Daemon::publishFinal(const std::string &name,
                     const std::string &status_line)
{
    MutexLock lock(board_mu_);
    if (final_.insert_or_assign(name, status_line).second)
        final_order_.push_back(name);
    while (final_order_.size() > kBoardCapacity) {
        final_.erase(final_order_.front());
        final_order_.erase(final_order_.begin());
    }
    board_cv_.notify_all();
}

Daemon::Request
Daemon::requestState(const QueuedRequest &qr) const
{
    Request req;
    req.spec_label =
        qr.ingress == Ingress::Spool ? qr.spec_file : qr.name;
    req.name = qr.name;
    req.ingress = qr.ingress;
    req.spec_file = qr.spec_file;
    req.result_dir = (fs::path(results_dir_) / qr.name).string();
    req.coalesced_with = qr.coalesced_with;
    req.admitted = qr.admitted;
    req.queued_at = qr.queued_at;
    return req;
}

void
Daemon::admitSpool(const std::string &spec_file)
{
    QueuedRequest qr;
    qr.name = fs::path(spec_file).stem().string();
    qr.spec_file = spec_file;
    qr.ingress = Ingress::Spool;
    if (queue_.live(qr.name))
        return; // a live request owns this name; retry next drain
    // Claim by rename: with several daemons sharing one spool,
    // exactly one rename succeeds and the losers skip silently. An
    // injected lost claim leaves the spec for a later drain (or
    // another daemon), exactly like a lost race.
    if (LSIM_FAULT("serve.claim"))
        return;
    std::error_code ec;
    fs::rename(fs::path(config_.spool_dir) / spec_file,
               workPath(spec_file), ec);
    if (ec)
        return; // raced with another daemon, or vanished
    const std::string spec_text = readFileText(workPath(spec_file));
    admit(std::move(qr), spec_text, nullptr);
}

SubmitResult
Daemon::submitRequest(const std::string &name,
                      const std::string &spec_text, int priority,
                      std::string *response)
{
    QueuedRequest qr;
    qr.name = name;
    qr.priority = priority;
    qr.ingress = Ingress::Socket;
    return admit(std::move(qr), spec_text, response);
}

SubmitResult
Daemon::admit(QueuedRequest qr, const std::string &spec_text,
              std::string *ack)
{
    const bool spool = qr.ingress == Ingress::Spool;
    qr.admitted = std::chrono::steady_clock::now();
    Request req = requestState(qr);
    req.result_dir.clear(); // owned once created, below
    if (req.spec_label.empty())
        req.spec_label = "?";

    const auto refuse = [&](const std::string &message,
                            Outcome outcome) {
        const std::string line = conclude(req, outcome, message);
        if (ack)
            *ack = line;
        return SubmitResult::Rejected;
    };
    // A spec this ingress cannot admit: a socket client gets a
    // `rejected` ack, while a claimed spool spec is consumed as an
    // `error` into failed/ (the disk is its only reporting channel).
    const Outcome unadmitted =
        spool ? Outcome::Error : Outcome::Rejected;
    const std::string in_use =
        "request name '" + qr.name + "' is in use";

    if (!spool && !validName(qr.name))
        return refuse("invalid request name", Outcome::Rejected);
    if (queue_.live(qr.name))
        return refuse(in_use, Outcome::Rejected);
    if (!spool && LSIM_FAULT("serve.admit"))
        return refuse("injected admission fault", Outcome::Rejected);

    // The one parse of this spec: execute() runs the BatchConfig
    // carried on the queued request.
    std::string malformed;
    try {
        qr.batch = batchConfigFromJson(parseJson(spec_text));
        qr.fingerprint = api::batchFingerprint(qr.batch);
    } catch (const std::exception &err) {
        malformed = err.what();
    }
    // A malformed socket spec never touches the disk.
    if (!malformed.empty() && !spool)
        return refuse(malformed, unadmitted);

    {
        // A re-submitted name must not wait-match its old result,
        // and its old board row must not later evict the new one.
        MutexLock lock(board_mu_);
        if (final_.erase(qr.name) > 0)
            final_order_.erase(std::find(final_order_.begin(),
                                         final_order_.end(),
                                         qr.name));
    }
    {
        const std::string dir =
            (fs::path(results_dir_) / qr.name).string();
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec)
            return refuse("cannot create result dir '" + dir +
                              "': " + ec.message(),
                          unadmitted);
        req.result_dir = dir;
    }
    req.queued_at = qr.queued_at = obs::isoTimestampNow();
    // A malformed spool spec skips the transient `queued` write and
    // lands its `error` status straight away.
    if (!malformed.empty())
        return refuse(malformed, unadmitted);

    // The queued status lands on disk *before* the queue sees the
    // request, so the execution fan-out can never lose a race to
    // this write (its done status always comes later).
    req.writeStatus("queued");

    std::string primary;
    switch (queue_.submit(std::move(qr), &primary)) {
    case Admission::Enqueued:
        break;
    case Admission::Coalesced:
        // The identical in-flight request will fan its results out
        // to this one; no queue slot, no execution.
        req.coalesced_with = primary;
        inform("serve: %s coalesced with in-flight request '%s'",
               req.spec_label.c_str(), primary.c_str());
        break;
    case Admission::RejectedFull:
        if (spool) {
            // Backpressure: un-claim so the spec survives on disk
            // and a later drain (or another daemon) picks it up.
            std::error_code ec;
            fs::rename(workPath(req.spec_file),
                       fs::path(config_.spool_dir) / req.spec_file,
                       ec);
            return SubmitResult::Rejected;
        }
        return refuse("queue full (" +
                          std::to_string(config_.max_queue) +
                          " pending)",
                      Outcome::Rejected);
    case Admission::RejectedName:
        // Lost a race for the name: its result dir is the winner's.
        req.result_dir.clear();
        return refuse(in_use, Outcome::Rejected);
    }
    if (ack)
        *ack = trimTrailingNewline(req.statusJson("queued"));
    return req.coalesced_with.empty() ? SubmitResult::Queued
                                      : SubmitResult::Coalesced;
}

std::string
Daemon::conclude(Request &req, Outcome outcome,
                 const std::string &message)
{
    const bool spool = req.ingress == Ingress::Spool;
    req.total_ms = msSince(req.admitted);
    req.finished_at = obs::isoTimestampNow();
    if (outcome == Outcome::Error && !req.result_dir.empty()) {
        // `error` status guarantees no result files: remove anything
        // a partially delivered (or prior same-named) run left
        // behind, so a poller never pairs stale sweeps with a
        // failed status.
        std::error_code ec;
        for (const auto &de :
             fs::directory_iterator(req.result_dir, ec)) {
            if (de.path().filename().string().rfind("sweep_", 0) ==
                0)
                fs::remove(de.path(), ec);
        }
    }
    const char *state = outcome == Outcome::Done    ? "done"
                        : outcome == Outcome::Error ? "error"
                                                    : "rejected";
    const std::string line =
        trimTrailingNewline(req.writeStatus(state, message));
    // A rejected request never owned its name: waiters on that name
    // are someone else's.
    if (outcome != Outcome::Rejected)
        publishFinal(req.name, line);
    if (spool) {
        const fs::path to = fs::path(config_.spool_dir) /
                            (outcome == Outcome::Done ? kDoneDir
                                                      : kFailedDir) /
                            req.spec_file;
        std::error_code ec;
        fs::rename(workPath(req.spec_file), to, ec);
        if (ec)
            warn("serve: cannot move '%s' to %s: %s",
                 workPath(req.spec_file).c_str(), to.c_str(),
                 ec.message().c_str());
    }

    // ServeStats and the serve.requests_* counters move together. A
    // spool spec is consumed whatever its outcome; a rejected socket
    // submission was never admitted, so it is not "processed".
    const bool follower = !req.coalesced_with.empty();
    {
        MutexLock lock(stats_mu_);
        stats_.coalesced += follower ? 1 : 0;
        stats_.rejected += outcome == Outcome::Rejected ? 1 : 0;
        if (outcome == Outcome::Done)
            stats_.done += 1;
        else if (outcome == Outcome::Error || spool)
            stats_.failed += 1;
        if (outcome != Outcome::Rejected || spool)
            stats_.processed += 1;
    }
    if (follower)
        obs::counter("serve.requests_coalesced").add();
    switch (outcome) {
    case Outcome::Done:
        // The latency histogram counts successful requests only, so
        // its count stays equal to serve.requests_done (tested
        // invariant); followers count as requests in both.
        obs::counter("serve.requests_done").add();
        obs::histogram("serve.request_ms").observe(req.total_ms);
        if (!spool)
            obs::histogram("serve.socket_request_ms")
                .observe(req.total_ms);
        break;
    case Outcome::Error:
        obs::counter("serve.requests_failed").add();
        warn("serve: %s failed: %s", req.spec_label.c_str(),
             message.c_str());
        break;
    case Outcome::Rejected:
        obs::counter("serve.requests_rejected").add();
        if (spool)
            warn("serve: %s rejected: %s", req.spec_label.c_str(),
                 message.c_str());
        break;
    }
    return line;
}

std::string
Daemon::waitFor(const std::string &name, double timeout_s)
{
    const auto synth = [&](const std::string &message) {
        Request req;
        req.spec_label = name;
        req.name = name;
        return trimTrailingNewline(
            req.statusJson("error", message));
    };
    if (!validName(name))
        return synth("invalid request name");

    const std::string status_path =
        (fs::path(results_dir_) / name / kStatusFile).string();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    for (;;) {
        bool shutting_down = false;
        {
            MutexLock lock(board_mu_);
            const auto it = final_.find(name);
            if (it != final_.end())
                return it->second;
            shutting_down = shutting_down_;
        }
        // Fall back to disk: the request may have been served by
        // another daemon sharing this spool, or completed before
        // this daemon restarted.
        {
            const std::string text = readFileText(status_path);
            if (!text.empty() && terminalStatus(text))
                return trimTrailingNewline(text);
        }
        if (shutting_down)
            return synth("daemon stopping");
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return synth("wait timed out");
        const auto slice =
            std::min<std::chrono::steady_clock::duration>(
                std::chrono::milliseconds(100), deadline - now);
        MutexLock lock(board_mu_);
        board_cv_.wait_for(lock, slice);
    }
}

void
Daemon::execute(QueuedRequest qr)
{
    obs::TraceSpan span("serve.request", "serve");
    Request req = requestState(qr);

    // Non-empty once the primary failed; its followers then fail
    // with this message instead of receiving results.
    std::string failure;
    api::BatchResult result;
    try {
        // Execution parameters come from the daemon, not the spec:
        // every request shares the daemon's store and pool.
        qr.batch.cache_dir = config_.cache_dir;
        api::BatchRunner runner(std::move(qr.batch));

        req.started_at = obs::isoTimestampNow();
        req.writeStatus("running");
        const auto run_start = std::chrono::steady_clock::now();
        api::BatchEnv env;
        env.store = store_ ? &*store_ : nullptr;
        env.pool = &pool_;
        if (config_.request_timeout_s > 0.0) {
            // Per-request deadline: the batch layer polls this
            // between phases and at task boundaries, so an expired
            // request lands in `error` without tearing a task.
            const auto deadline =
                run_start +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        config_.request_timeout_s));
            env.cancel = [deadline] {
                return std::chrono::steady_clock::now() >= deadline;
            };
        }
        if (LSIM_FAULT("serve.execute"))
            throw std::runtime_error("injected execute fault");
        result = runner.run(env);
        req.run_ms = msSince(run_start);
    } catch (const api::CancelledError &) {
        obs::counter("serve.deadline_exceeded").add();
        failure = "deadline exceeded: request ran past " +
                  std::to_string(config_.request_timeout_s) + " s";
    } catch (const std::exception &err) {
        failure = err.what();
    }

    // Render once; the primary and every follower get these bytes.
    std::vector<std::pair<std::string, std::string>> rendered;
    rendered.reserve(result.sweeps.size());
    for (const auto &sweep : result.sweeps) {
        std::ostringstream csv, json;
        sweep.writeCsv(csv);
        sweep.writeJson(json);
        rendered.emplace_back(csv.str(), json.str());
    }
    const auto deliver = [&](Request &r) {
        for (std::size_t i = 0; i < rendered.size(); ++i) {
            const std::string stem_i =
                (fs::path(r.result_dir) /
                 ("sweep_" + std::to_string(i)))
                    .string();
            if (LSIM_FAULT("serve.deliver") ||
                !atomicWriteFile(stem_i + ".csv",
                                 rendered[i].first) ||
                !atomicWriteFile(stem_i + ".json",
                                 rendered[i].second)) {
                conclude(r, Outcome::Error,
                         "cannot write results under '" +
                             r.result_dir + "'");
                return false;
            }
        }
        conclude(r, Outcome::Done);
        return true;
    };

    if (!failure.empty()) {
        conclude(req, Outcome::Error, failure);
    } else {
        req.sweeps = result.sweeps.size();
        req.stats = result.stats;
        if (deliver(req)) {
            // Work counters tick once per *execution*; request
            // counters tick once per request, followers included.
            obs::counter("serve.requested_sims")
                .add(result.stats.requested_sims);
            obs::counter("serve.unique_sims")
                .add(result.stats.unique_sims);
            obs::counter("serve.cache_hits")
                .add(result.stats.cache_hits);
            obs::counter("serve.sims_run").add(result.stats.sims_run);
            inform("serve: %s done in %.1f ms (%zu sweep(s), %zu "
                   "cache hit(s), %zu simulated)",
                   req.spec_label.c_str(), req.total_ms, req.sweeps,
                   result.stats.cache_hits, result.stats.sims_run);
        } else {
            // The primary's failure fails its followers too — their
            // promise was "the primary's results".
            failure = "primary request '" + req.name +
                      "' failed to deliver results";
        }
    }

    // Fan out: byte-identical results (or the primary's failure) to
    // every coalesced follower.
    for (const QueuedRequest &f : queue_.finish(req.name)) {
        Request fr = requestState(f);
        fr.started_at = req.started_at;
        if (!failure.empty()) {
            conclude(fr, Outcome::Error, failure);
            continue;
        }
        fr.run_ms = req.run_ms;
        fr.sweeps = req.sweeps;
        fr.stats = req.stats;
        deliver(fr);
    }
}

void
Daemon::janitorSweep()
{
    if (config_.ttl_seconds > 0.0) {
        const auto now = fs::file_time_type::clock::now();
        const auto tooOld = [&](const fs::path &p) {
            std::error_code ec;
            const auto mtime = fs::last_write_time(p, ec);
            if (ec)
                return false; // age unknown is not "old"
            return std::chrono::duration<double>(now - mtime)
                       .count() > config_.ttl_seconds;
        };
        auto &removed = obs::counter("serve.janitor_removed");
        // Consumed specs first, then the result dirs they produced
        // (live requests are never pruned).
        for (const char *sub : {kDoneDir, kFailedDir}) {
            const fs::path dir = fs::path(config_.spool_dir) / sub;
            for (const auto &de : fs::directory_iterator(dir)) {
                if (!de.is_regular_file() ||
                    !tooOld(de.path()))
                    continue;
                std::error_code ec;
                if (fs::remove(de.path(), ec))
                    removed.add();
            }
        }
        for (const auto &de :
             fs::directory_iterator(results_dir_)) {
            if (!de.is_directory())
                continue;
            const std::string name =
                de.path().filename().string();
            if (queue_.live(name))
                continue;
            const fs::path status = de.path() / kStatusFile;
            std::error_code ec;
            const fs::path probe =
                fs::exists(status, ec) ? status : de.path();
            if (!tooOld(probe))
                continue;
            fs::remove_all(de.path(), ec);
            if (!ec)
                removed.add();
        }
    }
    if (config_.cache_ttl_seconds > 0.0 && store_) {
        store::ProfileStore::GcOptions gc;
        gc.max_age_seconds = config_.cache_ttl_seconds;
        const auto stats = store_->gc(gc);
        if (stats.removed > 0)
            inform("serve: cache ttl evicted %zu entr%s",
                   stats.removed,
                   stats.removed == 1 ? "y" : "ies");
    }
}

void
Daemon::abandonQueued()
{
    for (const QueuedRequest &qr : queue_.drainPending()) {
        // A claimed spool spec stays in work/: the next daemon's
        // crash recovery re-queues and re-executes it.
        if (qr.ingress == Ingress::Spool)
            continue;
        Request req = requestState(qr);
        conclude(req, Outcome::Error, "daemon stopping");
    }
}

std::size_t
Daemon::drainOnce()
{
    obs::TraceSpan span("serve.drain", "serve");
    std::vector<std::string> names;
    for (const auto &de :
         fs::directory_iterator(config_.spool_dir)) {
        if (!de.is_regular_file() ||
            de.path().extension() != ".json")
            continue;
        // The daemon's own metrics snapshot lives in the spool root;
        // it is never a spec (the name is reserved).
        if (de.path().filename() == kMetricsFile)
            continue;
        names.push_back(de.path().filename().string());
    }
    std::sort(names.begin(), names.end());

    const std::size_t before = stats().processed;
    for (const std::string &name : names) {
        if (queue_.full())
            break; // spool backpressure: leave the rest on disk
        admitSpool(name);
    }
    while (auto req = queue_.pop()) {
        execute(std::move(*req));
        if (stopped())
            break; // graceful: finish the request, not the queue
    }
    janitorSweep();
    std::size_t drained = 0;
    {
        MutexLock lock(stats_mu_);
        stats_.polls += 1;
        drained = stats_.processed - before;
    }
    obs::counter("serve.polls").add();

    // Publish the metrics snapshot every drain cycle so pollers (and
    // `lsim metrics`) always see a fresh, never-torn file.
    obs::MetricsRegistry::instance().exportFile(metrics_path_);
    auto &trace = obs::TraceSession::instance();
    if (trace.enabled())
        trace.flush();
    return drained;
}

ServeStats
Daemon::stats() const
{
    MutexLock lock(stats_mu_);
    return stats_;
}

ServeStats
Daemon::run()
{
    for (;;) {
        drainOnce();
        if (config_.once || stopped())
            break;
        // Sleep in short slices so a stop signal interrupts the
        // poll delay promptly; a socket submission wakes the loop
        // through the queue's condition variable.
        const auto wake = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(config_.poll_ms);
        while (std::chrono::steady_clock::now() < wake) {
            if (stopped())
                return stats();
            if (queue_.waitForWork(std::chrono::milliseconds(
                    std::min(50u, std::max(1u, config_.poll_ms)))))
                break;
        }
    }
    return stats();
}

} // namespace lsim::serve
