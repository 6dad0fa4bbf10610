/**
 * @file
 * perfbench: runs one benchmark workload and prints its metrics.
 *
 *   perfbench --workload serve_warm|sweep_cold|sweep_adaptive
 *             --seed N --seconds S --trace 0|1 --tmp-root DIR
 *             [--trace-out FILE] [--commit ID]
 *
 * Lines before the last are for people: an environment record, each
 * metric with unit and sample count, the error rate with its base,
 * and any failures. The last line is one JSON object: correct,
 * attempted, failed, and the metrics (end-to-end with --trace 0,
 * per-layer with --trace 1). perfbench/run.py builds and drives this.
 */

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "report.hh"
#include "stages.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;
namespace fs = std::filesystem;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --tmp-root DIR [--trace-out FILE] "
                 "[--commit ID]\n";
    std::exit(2);
}

std::string
jsonNumber(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

const char *
sanitizers()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "on";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return "on";
#else
    return "none";
#endif
#else
    return "none";
#endif
}

bool
optimized()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

void
printMetric(const char *kind, const Metric &m, const Metric *traced)
{
    std::cout << kind << " " << m.name << " " << jsonNumber(m.value) << " "
              << m.unit << " n=" << m.samples;
    if (traced)
        std::cout << "  | traced " << jsonNumber(traced->value) << " "
                  << traced->unit << " n=" << traced->samples;
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc)
            usage(std::string("bad argument '") + argv[i] + "'");
        args[argv[i] + 2] = argv[i + 1];
    }
    Options opt;
    try {
        const auto w = workloadByName(args.at("workload"));
        if (!w)
            usage("unknown workload '" + args.at("workload") + "'");
        opt.workload = *w;
        opt.seed = std::stoull(args.at("seed"));
        opt.seconds = std::stod(args.at("seconds"));
        opt.trace = args.at("trace") == "1";
        opt.tmp_root = args.at("tmp-root");
    } catch (const std::exception &) {
        usage("missing or malformed argument");
    }
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    if (args.count("trace-out"))
        opt.trace_out = args["trace-out"];

    // Numbers from a fault-armed, traced, Debug or sanitizer build
    // must never pass as a measurement.
    for (const char *var : {"LSIM_FAULTS", "LSIM_TRACE"})
        if (std::getenv(var)) {
            std::cerr << "perfbench: refusing to measure with " << var
                      << " set\n";
            return 2;
        }
    if (!optimized() || std::strcmp(sanitizers(), "none") != 0) {
        std::cerr << "perfbench: refusing to measure an unoptimized or "
                     "sanitizer build (" PERFBENCH_BUILD_TYPE ")\n";
        return 2;
    }
    lsim::setInformEnabled(false);

    std::error_code ec;
    if (fs::exists(opt.tmp_root, ec) && !fs::is_empty(opt.tmp_root, ec)) {
        std::cerr << "perfbench: temp root " << opt.tmp_root
                  << " already exists\n";
        return 2;
    }
    fs::create_directories(opt.tmp_root);

    Outcome out;
    try {
        out = opt.workload == Workload::ServeWarm ? runServeWarm(opt)
                                                  : runSweep(opt);
    } catch (const std::exception &err) {
        // Every daemon and store is gone once the workload returns or
        // unwinds; only then is the root removed.
        fs::remove_all(opt.tmp_root, ec);
        std::cerr << "perfbench: " << workloadName(opt.workload)
                  << " aborted: " << err.what() << "\n";
        return 1;
    }
    fs::remove_all(opt.tmp_root, ec);
    if (ec)
        out.failRun("cannot remove temp root: " + ec.message());
    const std::uint64_t warnings = storeWarnings();
    if (warnings != 0)
        out.failRun(std::to_string(warnings) + " store warning(s)");

    std::cout << "env {\"workload\": "
              << jsonString(std::string(workloadName(opt.workload)))
              << ", \"seed\": " << opt.seed << ", \"seconds\": "
              << jsonNumber(opt.seconds) << ", \"trace\": " << opt.trace
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
              << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
              << ", \"sanitizers\": " << jsonString(sanitizers())
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"threads\": " << workerThreads() << ", \"commit\": "
              << jsonString(args.count("commit") ? args["commit"] : "unknown")
              << "}\n";

    const std::vector<Metric> e2e = endToEnd(out, out.untraced);
    const std::vector<Metric> e2e_traced = endToEnd(out, out.traced);
    for (std::size_t i = 0; i < e2e.size(); ++i)
        printMetric("metric", e2e[i], opt.trace ? &e2e_traced[i] : nullptr);
    std::cout << "timed_ops " << out.untraced.ops()
              << " (timings from the quietest slice, n= above)\n";

    std::vector<Metric> layers;
    if (opt.trace) {
        std::map<std::string, Metric> measured;
        for (const Metric &m : out.per_layer)
            measured[m.name] = m;
        measured["store.warnings"] = {
            "store.warnings", static_cast<double>(warnings), "count", 1};
        const auto p50 = [](const std::vector<Metric> &metrics) {
            for (const Metric &m : metrics)
                if (m.name == "req_p50_ms")
                    return m.value;
            return 0.0;
        };
        measured["trace.overhead_ratio"] = {
            "trace.overhead_ratio",
            p50(e2e) > 0 ? p50(e2e_traced) / p50(e2e) : 0.0, "ratio",
            out.traced.ops()};
        // A layer the workload bypasses reports 0 with no samples.
        for (const auto &[name, unit] : perLayerCatalog()) {
            auto it = measured.find(name);
            if (it == measured.end()) {
                layers.push_back({name, 0.0, unit, 0});
                continue;
            }
            layers.push_back(it->second);
            measured.erase(it);
        }
        for (const auto &[name, m] : measured)
            out.failRun("metric '" + name + "' is missing from the catalog");
        for (const Metric &m : layers)
            printMetric("layer", m, nullptr);
        for (const std::string &note : out.notes)
            std::cout << note << "\n";
    }

    const double error_rate =
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 0.0;
    std::cout << "error_rate " << jsonNumber(error_rate) << " ("
              << out.failed << " of " << out.attempted << " ops failed)\n";
    for (const std::string &f : out.failures)
        std::cout << "failure " << f << "\n";

    const std::vector<Metric> &shown = opt.trace ? layers : e2e;
    std::string json = "{\"correct\": ";
    bool finite = true;
    std::string metrics;
    for (const Metric &m : shown) {
        finite = finite && std::isfinite(m.value);
        metrics += (metrics.empty() ? "" : ", ") + jsonString(m.name) +
                   ": {\"value\": " +
                   jsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
                   ", \"unit\": " + jsonString(m.unit) + "}";
    }
    const bool correct = out.correct() && finite && out.attempted > 0;
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted) +
            ", \"failed\": " + std::to_string(out.failed) +
            ", \"metrics\": {" + metrics + "}}";
    std::cout << json << std::endl;
    return 0;
}
