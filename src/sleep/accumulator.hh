/**
 * @file
 * Energy accounting harness tying busy/idle streams, sleep
 * controllers and the analytical energy model together.
 *
 * The simulator (or a synthetic interval source) feeds run-length
 * encoded busy/idle runs; every registered controller sees the same
 * stream and accumulates its own operating-category counts; results
 * are normalized per the paper's E_base (energy if the unit computed
 * on 100% of cycles, eq. 9) to reproduce Figures 8 and 9.
 */

#ifndef LSIM_SLEEP_ACCUMULATOR_HH
#define LSIM_SLEEP_ACCUMULATOR_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "energy/model.hh"
#include "sleep/controllers.hh"
#include "sleep/idle_stats.hh"

namespace lsim::sleep
{

/** Run-length encoded busy/idle stream of one functional unit. */
struct RunLengthTrace
{
    /** One maximal run of consecutive same-state cycles. */
    struct Run
    {
        bool busy;
        Cycle len;
    };

    std::vector<Run> runs;

    /** Append a run, merging with the previous run if same state. */
    void append(bool busy, Cycle len);

    /** Total cycles covered. */
    Cycle totalCycles() const;

    /** Total busy cycles. */
    Cycle busyCycles() const;

    /** Build from a per-cycle busy bit vector. */
    static RunLengthTrace fromBits(const std::vector<bool> &bits);
};

/** Per-policy outcome of one evaluation. */
struct PolicyResult
{
    std::string name;
    energy::CycleCounts counts;
    energy::EnergyBreakdown breakdown; ///< normalized to E_A
    double energy = 0.0;               ///< normalized total (E_A units)
    double relative_to_base = 0.0;     ///< energy / E_base (Fig. 8 axis)
    double leakage_fraction = 0.0;     ///< Fig. 9b axis
};

/**
 * Evaluates a set of controllers against busy/idle streams under one
 * ModelParams technology point.
 */
class PolicyEvaluator
{
  public:
    /**
     * @param params Technology/application parameters.
     * @param controllers Policies to evaluate (takes ownership).
     */
    PolicyEvaluator(const energy::ModelParams &params,
                    ControllerSet controllers);

    /** Convenience: the paper's four policies. */
    static PolicyEvaluator paperPolicies(const energy::ModelParams &p);

    /**
     * Feed one maximal run to every controller (and the idle
     * recorder). An idle run is a complete interval: consecutive
     * idle feedRun calls count as separate intervals.
     */
    void feedRun(bool busy, Cycle len);

    /**
     * Feed @p count separate idle runs of length @p len (bulk path
     * for replaying stored interval histograms).
     */
    void feedRuns(Cycle idle_len, std::uint64_t count);

    /** Feed a whole trace. */
    void feedTrace(const RunLengthTrace &trace);

    /** Total cycles fed so far. */
    Cycle totalCycles() const { return total_; }

    /** Idle statistics across the fed stream. */
    const IdleIntervalRecorder &idleStats() const { return idle_; }

    /**
     * E_base in normalized units: activeCycleEnergy() * totalCycles
     * (the unit computing on every cycle).
     */
    double baseEnergy() const;

    /** Results for every controller, in registration order. */
    std::vector<PolicyResult> results() const;

    /** Result for the controller named @p name; throws
     * std::invalid_argument if absent. */
    PolicyResult resultFor(const std::string &name) const;

    const energy::EnergyModel &model() const { return model_; }

  private:
    energy::EnergyModel model_;
    ControllerSet controllers_;
    IdleIntervalRecorder idle_;
    Cycle total_ = 0;
};

} // namespace lsim::sleep

#endif // LSIM_SLEEP_ACCUMULATOR_HH
