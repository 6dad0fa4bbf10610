/**
 * @file
 * An op replayed stage by stage through each layer's public calls,
 * for the traced run's per-layer accounting.
 *
 * BatchRunner::run is one opaque call from outside; the stage replay
 * re-enacts it — spec parse, per-simulation store load, timing
 * simulation and store save, multi-point replay per workload, render
 * and result writes — with a span around every call, so each layer's
 * time and counts are measured where the work happens. Its rendered
 * output must be byte-identical to BatchRunner's for the same spec
 * (the callers check), which is what keeps the re-enactment honest.
 */

#ifndef PERFBENCH_STAGES_HH
#define PERFBENCH_STAGES_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/batch.hh"
#include "report.hh"
#include "spans.hh"
#include "store/profile_store.hh"

namespace perfbench
{

/** Op ids at or above this belong to the stage replay. */
constexpr std::uint64_t kStageOpBase = 1'000'000'000;

/** Per-op work counts, summed over the stage sample. */
struct StageCounts
{
    std::uint64_t ops = 0;
    std::uint64_t sims = 0;
    std::uint64_t loads = 0;
    std::uint64_t hits = 0;
    std::uint64_t saves = 0;
    std::uint64_t units = 0;
    std::uint64_t kernel_units = 0;
    std::uint64_t tasks = 0;
    std::uint64_t chunks = 0;
    std::uint64_t intervals = 0;
    std::uint64_t render_bytes = 0;
    std::uint64_t file_writes = 0;
    double sim_insts = 0.0;  ///< committed instructions simulated
    double sim_cycles = 0.0; ///< cycles simulated
};

/** Rendered output of one sweep: CSV then JSON. */
using Rendered = std::vector<std::pair<std::string, std::string>>;

/** SweepResult::writeCsv + writeJson of every sweep in @p result. */
Rendered render(const lsim::api::BatchResult &result);

/** FNV-1a over every rendered document, in order. */
std::uint64_t renderHash(const Rendered &rendered);

/** Write @p rendered as <dir>/sweep_<i>.{csv,json}; false on error. */
bool writeRendered(const std::string &dir, const Rendered &rendered,
                   Tracer *tracer, std::uint64_t op, std::uint64_t parent,
                   StageCounts *counts);

/**
 * Run @p spec stage by stage against @p store (which the caller
 * opened on the op's cache dir) with @p threads workers, recording
 * spans under @p parent. @return the rendered sweeps.
 */
Rendered stageOp(const std::string &spec,
                 const lsim::store::ProfileStore &store, unsigned threads,
                 Tracer *tracer, std::uint64_t op, std::uint64_t parent,
                 StageCounts &counts);

/**
 * Per-layer metrics the stage sample determines: per-call medians of
 * each stage, per-op counts and ratios, per-op self time by layer,
 * and the fan-out cost of the sample's replay task count.
 */
std::vector<Metric> stageMetrics(const Tracer &tracer,
                                 const StageCounts &counts,
                                 unsigned threads);

/** store.warnings: lock timeouts, write retries, quarantines and a
 * degraded store, from the process-wide obs registry. */
std::uint64_t storeWarnings();

} // namespace perfbench

#endif // PERFBENCH_STAGES_HH
