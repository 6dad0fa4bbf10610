/**
 * @file
 * Controller self-classification for batch replay kernels.
 *
 * A history-free sleep policy's contribution to CycleCounts is a
 * pure function of each idle interval's length, fully determined by
 * a handful of closed-form parameters (slice schedule, timeout,
 * breakeven threshold). KernelSpec is a controller's own statement
 * of those parameters: every built-in history-free controller
 * overrides SleepController::kernelSpec() to describe itself, so
 * the replay engine can
 *
 *  - deduplicate accumulators structurally (two controllers with
 *    equal specs accumulate bit-identical counts),
 *  - replay whole interval arrays through branch-regular batch
 *    kernels (replay/kernels.hh) instead of one virtual dispatch
 *    per interval length, and
 *  - reconstruct fresh controller instances for chunk-sharded
 *    replay without dynamic_cast chains.
 *
 * History-dependent policies (Adaptive) and externally registered
 * controllers that do not override kernelSpec() report Kind::None
 * and transparently take the virtual-dispatch fallback path — the
 * registry remains the single source of policy truth, and an
 * unclassified policy is never silently kernelized.
 */

#ifndef LSIM_SLEEP_KERNEL_SPEC_HH
#define LSIM_SLEEP_KERNEL_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace lsim::sleep
{

class SleepController;

/**
 * Closed-form parameters of a history-free policy, as reported by
 * SleepController::kernelSpec(). Only the fields of the reported
 * kind are meaningful; the rest stay value-initialized so the
 * defaulted equality compares whole configurations.
 */
struct KernelSpec
{
    enum class Kind : std::uint8_t
    {
        None,            ///< no closed form (history/unknown): fallback
        AlwaysActive,    ///< all idle uncontrolled
        MaxSleep,        ///< sleep from the first idle cycle
        NoOverhead,      ///< MaxSleep with free transitions
        Gradual,         ///< equal slices; uses `slices`
        WeightedGradual, ///< unequal slices; uses `weights`
        Timeout,         ///< sleep past a timeout; uses `timeout`
        Oracle,          ///< sleep iff len >= threshold; uses `breakeven`
    };

    Kind kind = Kind::None;
    unsigned slices = 0;          ///< Gradual slice count (>= 1)
    Cycle timeout = 0;            ///< Timeout threshold, cycles
    double breakeven = 0.0;       ///< Oracle threshold, cycles
    std::vector<double> weights;  ///< WeightedGradual slice fractions

    /** True when a batch kernel (and chunk sharding) applies. */
    bool historyFree() const { return kind != Kind::None; }

    bool operator==(const KernelSpec &) const = default;

    /** Short diagnostic key, e.g. "gradual:12", "timeout:64". */
    std::string key() const;

    /**
     * A fresh controller with exactly this configuration — the
     * chunk-replay counterpart of the prototype controller. Throws
     * std::logic_error on Kind::None (fallback policies cannot be
     * reconstructed).
     */
    std::unique_ptr<SleepController> makeController() const;
};

} // namespace lsim::sleep

#endif // LSIM_SLEEP_KERNEL_SPEC_HH
