#include "generator.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/json.hh"
#include "common/random.hh"
#include "serve/spec.hh"

namespace perfbench
{

namespace
{

// The nine Table 3 benchmarks, in the paper's order.
const std::vector<std::string> kSuite = {
    "health", "mst",    "gcc",    "gzip", "mcf",
    "parser", "twolf",  "vortex", "vpr"};

// serve_warm: every request hits the store the setup warmed.
constexpr std::uint64_t kServeInsts = 200'000;

// sweep_cold: the suite split into two sweeps sharing mcf and
// parser, so phase-1 dedup turns 11 requested sims into 9.
const std::vector<std::string> kColdSweepA = {"health", "mst", "gcc",
                                              "gzip", "mcf", "parser"};
const std::vector<std::string> kColdSweepB = {"mcf", "parser", "twolf",
                                              "vortex", "vpr"};
constexpr std::uint64_t kColdInsts = 60'000;

// sweep_adaptive: long profiles, so replay (not bookkeeping) is the
// work, and `adaptive` takes the sequential fallback path.
const std::vector<std::string> kAdaptiveSuite = {"health", "mst", "gcc",
                                                 "twolf"};
constexpr std::uint64_t kAdaptiveInsts = 2'000'000;
const std::vector<std::string> kAdaptivePolicies = {
    "max-sleep", "gradual", "always-active", "no-overhead", "adaptive"};

constexpr unsigned kSweepPoints = 20;

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    lsim::Rng rng(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull));
    return rng.next();
}

std::string
quoted(const std::vector<std::string> &names)
{
    std::string out = "[";
    for (std::size_t i = 0; i < names.size(); ++i)
        out += (i ? ", \"" : "\"") + names[i] + "\"";
    return out + "]";
}

std::string
number(double v)
{
    // Full precision: distinct drawn values must stay distinct in
    // the parsed spec (request identity is the parsed config).
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct PRange
{
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * The i-th op's leakage-factor range. The low end walks a Weyl
 * sequence (golden-ratio rotation, offset by the seed), which never
 * repeats, so no two ops of one stream share a grid and request
 * fingerprints are pairwise distinct by construction.
 */
PRange
drawRange(lsim::Rng &rng, std::uint64_t seed, std::size_t i)
{
    constexpr double kGolden = 0.6180339887498949;
    const double offset =
        static_cast<double>(mix(seed, 0) >> 11) * 0x1.0p-53;
    double frac = offset + static_cast<double>(i) * kGolden;
    frac -= std::floor(frac);
    PRange r;
    r.lo = 0.02 + 0.38 * frac;
    r.hi = r.lo + 0.1 + (0.98 - 0.1 - r.lo) * rng.uniform();
    return r;
}

std::string
sweepJson(const std::vector<std::string> &benchmarks, unsigned steps,
          PRange range, std::uint64_t insts, std::uint64_t seed,
          const std::vector<std::string> &policies)
{
    std::string s = "{\"benchmarks\": " + quoted(benchmarks) +
                    ", \"steps\": " + std::to_string(steps) +
                    ", \"p_min\": " + number(range.lo) +
                    ", \"p_max\": " + number(range.hi) +
                    ", \"insts\": " + std::to_string(insts) +
                    ", \"seed\": " + std::to_string(seed);
    if (!policies.empty())
        s += ", \"policies\": " + quoted(policies);
    return s + "}";
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {
        Workload::ServeWarm, Workload::SweepCold,
        Workload::SweepAdaptive};
    return all;
}

std::string_view
workloadName(Workload w)
{
    switch (w) {
    case Workload::ServeWarm:
        return "serve_warm";
    case Workload::SweepCold:
        return "sweep_cold";
    case Workload::SweepAdaptive:
        return "sweep_adaptive";
    }
    return "?";
}

std::optional<Workload>
workloadByName(std::string_view name)
{
    for (Workload w : allWorkloads())
        if (workloadName(w) == name)
            return w;
    return std::nullopt;
}

unsigned
workerThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

Generator::Generator(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed),
      // Sim seeds stay below 2^31: spec numbers travel as JSON
      // doubles, which are exact only up to 2^53.
      sim_seed_(1 + (mix(seed, 1) >> 33))
{
}

std::string
Generator::warmSpec() const
{
    switch (workload_) {
    case Workload::ServeWarm:
        return "{\"sweeps\": [" +
               sweepJson(kSuite, 1, {0.1, 0.1}, kServeInsts, sim_seed_,
                         {}) +
               "]}";
    case Workload::SweepAdaptive:
        return "{\"sweeps\": [" +
               sweepJson(kAdaptiveSuite, 1, {0.1, 0.1}, kAdaptiveInsts,
                         sim_seed_, {}) +
               "]}";
    case Workload::SweepCold:
        break;
    }
    return "";
}

std::string
Generator::opSpec(std::size_t i) const
{
    return spec(i, false);
}

std::string
Generator::warmupSpec(std::size_t i) const
{
    return spec(i, true);
}

std::string
Generator::spec(std::size_t i, bool warmup) const
{
    // Warm-up draws come from a disjoint index range of the same
    // sequences, so they never coincide with a timed op.
    const std::size_t index = warmup ? (std::size_t{1} << 40) + i : i;
    lsim::Rng rng(mix(seed_, index + 2));
    const PRange range = drawRange(rng, seed_, index);
    switch (workload_) {
    case Workload::ServeWarm: {
        // 1-4 distinct benchmarks, 1-20 points, the paper's policies.
        std::vector<std::string> pool = kSuite;
        const std::size_t count = 1 + rng.below(4);
        std::vector<std::string> chosen;
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t pick = k + rng.below(pool.size() - k);
            std::swap(pool[k], pool[pick]);
            chosen.push_back(pool[k]);
        }
        const auto steps = static_cast<unsigned>(1 + rng.below(20));
        return "{\"sweeps\": [" +
               sweepJson(chosen, steps, range, kServeInsts, sim_seed_,
                         {}) +
               "]}";
    }
    case Workload::SweepCold: {
        // A fresh sim seed per op: nothing in any store can match.
        const std::uint64_t seed = sim_seed_ + index;
        return "{\"sweeps\": [" +
               sweepJson(kColdSweepA, kSweepPoints, range, kColdInsts,
                         seed, {}) +
               ", " +
               sweepJson(kColdSweepB, kSweepPoints, range, kColdInsts,
                         seed, {}) +
               "]}";
    }
    case Workload::SweepAdaptive:
        return "{\"sweeps\": [" +
               sweepJson(kAdaptiveSuite, kSweepPoints, range,
                         kAdaptiveInsts, sim_seed_, kAdaptivePolicies) +
               "]}";
    }
    return "";
}

std::vector<SimInput>
Generator::profileStream(std::size_t ops) const
{
    std::vector<std::string> specs;
    if (const std::string warm = warmSpec(); !warm.empty())
        specs.push_back(warm);
    for (std::size_t i = 0; i < ops; ++i)
        specs.push_back(opSpec(i));
    std::vector<SimInput> out;
    for (const std::string &text : specs) {
        const lsim::api::BatchConfig batch =
            lsim::serve::batchConfigFromJson(lsim::parseJson(text));
        for (const auto &sweep : batch.sweeps)
            for (const std::string &name : sweep.workloads)
                out.push_back({name, sweep.insts, sweep.seed});
    }
    return out;
}

} // namespace perfbench
