/**
 * @file
 * Seeded input generator for the benchmark's three workloads.
 *
 * The workload seed is a harness argument; the program under test
 * only ever sees what this generator produces: batch-spec JSON texts
 * (the `lsim batch` / `lsim serve` request format) whose sim seeds,
 * workload mixes and technology grids are drawn from that seed.
 * Every draw is a pure function of (workload, seed, op index), so
 * concurrent clients pulling op indices in any order still submit
 * the identical stream.
 */

#ifndef PERFBENCH_GENERATOR_HH
#define PERFBENCH_GENERATOR_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

enum class Workload
{
    ServeWarm,     ///< closed-loop socket clients, warm daemon store
    SweepCold,     ///< one-shot batches into an empty store
    SweepAdaptive, ///< one-shot batches replaying long warm profiles
};

const std::vector<Workload> &allWorkloads();
std::string_view workloadName(Workload w);
std::optional<Workload> workloadByName(std::string_view name);

/** One phase-1 simulation the generated specs ask for. */
struct SimInput
{
    std::string benchmark;
    std::uint64_t insts = 0;
    std::uint64_t seed = 0;

    bool operator==(const SimInput &) const = default;
};

/** Spec generator for one (workload, seed) pair. */
class Generator
{
  public:
    Generator(Workload workload, std::uint64_t seed);

    Workload workload() const { return workload_; }

    /**
     * The spec setup runs once to warm the store: all nine Table 3
     * benchmarks for serve_warm, four long simulations for
     * sweep_adaptive. Empty for sweep_cold, whose store starts
     * empty on every op.
     */
    std::string warmSpec() const;

    /** The @p i-th op's spec text. */
    std::string opSpec(std::size_t i) const;

    /**
     * Untimed requests that prime the daemon's code paths before
     * timing starts; disjoint from the op stream.
     */
    std::string warmupSpec(std::size_t i) const;

    /**
     * The simulations the warm spec and ops [0, @p ops) request, in
     * spec order (duplicates kept): the stream of idle profiles the
     * program is asked to produce or load.
     */
    std::vector<SimInput> profileStream(std::size_t ops) const;

  private:
    std::string spec(std::size_t i, bool warmup) const;

    Workload workload_;
    std::uint64_t seed_;
    std::uint64_t sim_seed_;
};

/** Worker count every workload passes to the program explicitly:
 * min(4, hardware threads), never 0 ("hardware"). */
unsigned workerThreads();

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_HH
