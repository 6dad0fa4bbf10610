/**
 * @file
 * What one benchmark run measures and how it is printed: metrics with
 * unit and sample count, op accounting, and the shared end-to-end
 * metric definitions every workload reports.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "generator.hh"

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0; ///< observations behind the value
};

/** Command-line options of one run. */
struct Options
{
    Workload workload = Workload::ServeWarm;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::filesystem::path tmp_root; ///< this run's scratch directory
    std::string trace_out;          ///< Chrome trace path (traced runs)
};

/** One completed op of a timed pass. */
struct OpSample
{
    double end_s = 0.0;      ///< completion, seconds into its period
    double req_ms = 0.0;     ///< as the user waits for it
    double batch_ms = 0.0;   ///< BatchRunner::run
    std::uint64_t cells = 0; ///< policy results delivered
};

/** Timed ops against one setup (one daemon, on serve_warm). */
struct Period
{
    double seconds = 0.0; ///< first submit to last completion
    std::vector<OpSample> ops;
};

struct TimedPass
{
    std::vector<Period> periods;

    std::size_t ops() const;
};

struct Outcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures; ///< first few messages
    bool run_ok = true; ///< false once a run-level check failed

    std::vector<double> setup_s; ///< one per setup repetition

    TimedPass untraced;
    TimedPass traced; ///< traced runs only

    std::vector<Metric> per_layer; ///< traced runs only
    std::vector<std::string> notes;

    /** Count an op as failed. */
    void fail(const std::string &message);

    /** Fail the run itself (teardown, store warnings, bad premise
     * of the setup) — the result is then not correct. */
    void failRun(const std::string &message);

    bool correct() const { return failed == 0 && run_ok; }
};

/** "premise: <what> = <share> (holds|FAILS: must exceed 0.5)". */
std::string premiseNote(const std::string &what, double share);

/** Linear-interpolated percentile (pct in [0, 100]); 0 when empty. */
double percentile(std::vector<double> values, double pct);

double mean(const std::vector<double> &values);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/**
 * The end-to-end metrics of @p pass (see BENCHMARK.json). Timings
 * come from the pass's quietest slice: each period is cut into equal
 * time slices (up to 12 in all, at least 100 ops each on average)
 * and the slice that completed ops fastest is measured — on a shared
 * host, another tenant's load slows whole seconds at a time, and the
 * quietest slice is what repeats from run to run.
 */
std::vector<Metric> endToEnd(const Outcome &outcome, const TimedPass &pass);

/** Names every metric the harness can print (checked by the tests). */
const std::vector<std::string> &endToEndNames();
/** Per-layer metric names with their units, in print order. */
const std::vector<std::pair<std::string, std::string>> &perLayerCatalog();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
