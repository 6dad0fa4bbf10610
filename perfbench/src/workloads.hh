/**
 * @file
 * The benchmark's workloads. Each runs its setup several times (the
 * median is setup_s), one untimed-checked timed pass, and — on a
 * traced run — a traced pass plus a stage replay of a fixed op
 * sample. Every daemon and ProfileStore a workload creates is
 * destroyed before the function returns, so the caller can remove
 * the run's temp root without a store flushing into it.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "report.hh"

namespace perfbench
{

/** Setup repetitions per run; setup_s is their median. */
constexpr int kSetups = 3;

Outcome runServeWarm(const Options &options);

/** sweep_cold and sweep_adaptive. */
Outcome runSweep(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
