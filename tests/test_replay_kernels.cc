/**
 * @file
 * Property tests for the batched replay kernels: across randomized
 * interval multisets, the kernel path must be bit-identical — not
 * merely close — to the virtual-dispatch controllers for every
 * registry policy spec, including argument variants; unknown and
 * history-dependent policies must transparently fall back; and a
 * moved-from engine must refuse to replay.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/experiment.hh"
#include "api/sweep.hh"
#include "energy/breakeven.hh"
#include "expect_throw.hh"
#include "harness/experiment.hh"
#include "replay/engine.hh"
#include "sleep/controllers.hh"
#include "sleep/kernel_spec.hh"
#include "sleep/policy_registry.hh"

namespace
{

using namespace lsim;
using lsim::energy::ModelParams;

/** Every registered policy key plus explicit-argument variants. */
std::vector<std::string>
allPolicySpecs()
{
    auto specs = sleep::PolicyRegistry::instance().keys();
    specs.push_back("gradual:1");
    specs.push_back("gradual:7");
    specs.push_back("timeout:1");
    specs.push_back("timeout:64");
    specs.push_back("adaptive:0.5");
    specs.push_back("weighted-gradual:0.5,0.3,0.2");
    return specs;
}

/**
 * allPolicySpecs() minus adaptive: the history-dependent policy
 * takes the identical fallback code in both engine modes (covered
 * by the fallback and scalar tests), and its O(total intervals)
 * per-interval replay would dominate the randomized sweep for zero
 * kernel coverage.
 */
std::vector<std::string>
kernelPolicySpecs()
{
    std::vector<std::string> specs;
    for (auto &spec : allPolicySpecs())
        if (spec.rfind("adaptive", 0) != 0)
            specs.push_back(std::move(spec));
    return specs;
}

/** Points spanning small and large breakeven intervals. */
std::vector<ModelParams>
somePoints()
{
    auto points = api::pSweep(0.05, 1.0, 5);
    points.push_back(api::analysisPoint(0.3, 0.25));
    points.push_back(api::analysisPoint(0.7, 0.9));
    return points;
}

void
expectBitExact(const std::vector<sleep::PolicyResult> &a,
               const std::vector<sleep::PolicyResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].counts.active, b[i].counts.active);
        EXPECT_EQ(a[i].counts.unctrl_idle, b[i].counts.unctrl_idle);
        EXPECT_EQ(a[i].counts.sleep, b[i].counts.sleep);
        EXPECT_EQ(a[i].counts.transitions, b[i].counts.transitions);
        EXPECT_EQ(a[i].energy, b[i].energy);
        EXPECT_EQ(a[i].relative_to_base, b[i].relative_to_base);
        EXPECT_EQ(a[i].leakage_fraction, b[i].leakage_fraction);
    }
}

/**
 * The property under test: for any interval multiset, the kernel
 * engine (default) and the virtual-dispatch engine
 * (use_kernels = false) agree to the last bit at every point under
 * every policy spec.
 */
void
expectKernelMatchesVirtual(const harness::IdleProfile &idle,
                           const std::vector<ModelParams> &points,
                           const std::vector<std::string> &specs)
{
    replay::ReplayOptions virt;
    virt.use_kernels = false;
    const auto kernel = replay::replayProfile(idle, points, specs);
    const auto virtual_path =
        replay::replayProfile(idle, points, specs, virt);
    ASSERT_EQ(kernel.size(), points.size());
    for (std::size_t t = 0; t < points.size(); ++t) {
        SCOPED_TRACE("point " + std::to_string(t));
        expectBitExact(kernel[t], virtual_path[t]);
    }
}

/**
 * A randomized multiset: lengths drawn from mixed scales (short
 * runs, mid-range, log-uniform tails) plus values straddling the
 * breakeven-derived thresholds of the points under test, so the
 * timeout/oracle partition points and the gradual saturation
 * boundary all land inside the array.
 */
harness::IdleProfile
randomProfile(std::uint64_t seed,
              const std::vector<ModelParams> &points)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<Cycle> shortlen(1, 50);
    std::uniform_int_distribution<Cycle> midlen(51, 4000);
    std::uniform_real_distribution<double> logtail(2.0, 17.0);
    std::uniform_int_distribution<std::uint64_t> cnt(1, 1'000'000);
    std::uniform_int_distribution<int> coin(0, 3);

    std::set<Cycle> lengths;
    const std::size_t distinct = 20 + seed % 180;
    while (lengths.size() < distinct) {
        switch (coin(rng)) {
        case 0:
            lengths.insert(shortlen(rng));
            break;
        case 1:
            lengths.insert(midlen(rng));
            break;
        default:
            lengths.insert(static_cast<Cycle>(
                std::exp2(logtail(rng))));
            break;
        }
    }
    // Straddle every threshold a policy in the suite could use:
    // breakeven (oracle/timeout defaults, gradual slice counts) and
    // the explicit timeout:64 variant.
    for (const auto &mp : points) {
        const double be = energy::breakevenInterval(mp);
        if (be >= 2.0 && be < 1e6) {
            const auto b = static_cast<Cycle>(be);
            lengths.insert(b - 1);
            lengths.insert(b);
            lengths.insert(b + 1);
        }
    }
    for (Cycle edge : {Cycle{63}, Cycle{64}, Cycle{65}})
        lengths.insert(edge);

    harness::IdleProfile idle;
    idle.num_fus = 2;
    idle.active_cycles = coin(rng) == 0 ? 0 : cnt(rng);
    for (Cycle len : lengths) {
        const std::uint64_t count = cnt(rng);
        idle.intervals[len] = count;
        idle.idle_cycles += len * count;
    }
    return idle;
}

TEST(ReplayKernels, RandomizedSetsMatchVirtualBitExactly)
{
    const auto points = somePoints();
    const auto specs = kernelPolicySpecs();
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectKernelMatchesVirtual(randomProfile(seed, points),
                                   points, specs);
    }
}

TEST(ReplayKernels, RandomizedSetsMatchScalarBitExactly)
{
    // Transitivity guard: the virtual engine is itself checked
    // against the scalar path elsewhere; spot-check the kernel
    // engine against the scalar path directly too.
    const auto points = somePoints();
    const auto specs = allPolicySpecs();
    const auto idle = randomProfile(7, points);
    const auto kernel = replay::replayProfile(idle, points, specs);
    for (std::size_t t = 0; t < points.size(); ++t) {
        SCOPED_TRACE("point " + std::to_string(t));
        expectBitExact(kernel[t],
                       api::evaluateProfile(idle, points[t], specs));
    }
}

TEST(ReplayKernels, EmptyAndDegenerateSets)
{
    const auto points = somePoints();
    const auto specs = allPolicySpecs(); // adaptive included: cheap

    harness::IdleProfile empty;
    expectKernelMatchesVirtual(empty, points, specs);

    harness::IdleProfile active_only;
    active_only.addRun(true, 4096);
    expectKernelMatchesVirtual(active_only, points, specs);

    // Single-interval sets at boundary-sensitive lengths: 1, the
    // explicit timeout, one past it, and deep saturation.
    for (Cycle len : {Cycle{1}, Cycle{64}, Cycle{65}, Cycle{8192}}) {
        SCOPED_TRACE("len " + std::to_string(len));
        harness::IdleProfile one;
        one.addRun(true, 1000);
        one.addRun(false, len);
        expectKernelMatchesVirtual(one, points, specs);
    }
}

TEST(ReplayKernels, OracleLookaheadStraddlesBreakeven)
{
    // The oracle's per-interval choice flips exactly at the
    // breakeven threshold; a dense ladder across it exercises both
    // sides and the equality edge of the partition search.
    const auto points = somePoints();
    harness::IdleProfile idle;
    idle.num_fus = 1;
    idle.addRun(true, 5000);
    for (const auto &mp : points) {
        const double be = energy::breakevenInterval(mp);
        if (!(be >= 2.0) || be >= 1e6)
            continue;
        const auto b = static_cast<Cycle>(be);
        for (Cycle len = b > 3 ? b - 3 : 1; len <= b + 3; ++len)
            idle.intervals[len] += 10;
    }
    for (const auto &[len, count] : idle.intervals)
        idle.idle_cycles += len * count;
    expectKernelMatchesVirtual(idle, points,
                               {"oracle", "timeout", "gradual"});
}

TEST(ReplayKernels, PaperPoliciesFullyKernelize)
{
    const auto idle = randomProfile(3, somePoints());
    replay::MultiPointReplay engine(
        replay::IntervalSet::fromProfile(idle),
        api::pSweep(0.05, 1.0, 20), {});
    // max-sleep, gradual, always-active, no-overhead: one kernel
    // group per kind, every unit on the kernel path.
    EXPECT_EQ(engine.numKernelGroups(), 4u);
    EXPECT_EQ(engine.numKernelUnits(), engine.numUnits());
}

/** A controller the engine knows nothing about: accounting happens
 * to match AlwaysActive, but it does not override kernelSpec(). */
class OpaqueController : public sleep::SleepController
{
  public:
    std::string name() const override { return "Opaque"; }

  protected:
    void doIdleRun(Cycle len) override
    {
        counts_.unctrl_idle += static_cast<double>(len);
    }
};

TEST(ReplayKernels, UnknownAndHistoryPoliciesFallBack)
{
    sleep::PolicyRegistry::instance().add(
        "opaque-test", "unclassified test policy",
        sleep::PolicyRegistry::Factory(
            [](const ModelParams &, const std::string &) {
                return std::make_unique<OpaqueController>();
            }));

    const auto points = api::pSweep(0.05, 1.0, 6);
    const std::vector<std::string> specs = {"opaque-test", "adaptive",
                                            "max-sleep"};
    const auto idle = randomProfile(11, points);
    replay::MultiPointReplay engine(
        replay::IntervalSet::fromProfile(idle), points, specs);

    // Only max-sleep kernelizes (one deduplicated unit in one
    // group); the unclassified policy cannot dedup across points.
    EXPECT_EQ(engine.numKernelGroups(), 1u);
    EXPECT_EQ(engine.numKernelUnits(), 1u);
    EXPECT_GE(engine.numUnits(), 1u + 1u + points.size());

    // And the fallback path still reproduces the scalar results bit
    // for bit, adaptive's interval-order history included.
    engine.runAll();
    const auto results = engine.finalize();
    for (std::size_t t = 0; t < points.size(); ++t) {
        SCOPED_TRACE("point " + std::to_string(t));
        expectBitExact(results[t],
                       api::evaluateProfile(idle, points[t], specs));
    }
}

TEST(ReplayKernels, KernelSpecRoundTripsThroughControllers)
{
    // Every built-in history-free controller's self-classification
    // reconstructs an equivalent controller.
    const auto mp = api::analysisPoint(0.2);
    const auto &registry = sleep::PolicyRegistry::instance();
    for (const char *spec :
         {"always-active", "max-sleep", "no-overhead", "gradual:9",
          "weighted-gradual:0.5,0.25,0.25", "timeout:42", "oracle"}) {
        SCOPED_TRACE(spec);
        const auto ctrl = registry.make(spec, mp);
        const auto kspec = ctrl->kernelSpec();
        ASSERT_TRUE(kspec.historyFree());
        const auto rebuilt = kspec.makeController();
        EXPECT_EQ(rebuilt->name(), ctrl->name());
        EXPECT_TRUE(rebuilt->kernelSpec() == kspec);
    }
    // History-dependent and base-class defaults classify as None.
    EXPECT_FALSE(registry.make("adaptive", mp)
                     ->kernelSpec()
                     .historyFree());
    EXPECT_FALSE(OpaqueController().kernelSpec().historyFree());
}

TEST(ReplayKernels, MovedFromEngineRefusesToReplay)
{
    const auto points = api::pSweep(0.05, 1.0, 3);
    const auto idle = randomProfile(5, points);

    replay::MultiPointReplay source(
        replay::IntervalSet::fromProfile(idle), points, {});
    replay::MultiPointReplay engine(std::move(source));

    // The destination owns the replay end to end...
    engine.runAll();
    const auto results = engine.finalize();
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t t = 0; t < points.size(); ++t)
        expectBitExact(results[t],
                       api::evaluateProfile(idle, points[t]));

    // ...and the moved-from shell refuses every entry point instead
    // of silently replaying emptied vectors.
    EXPECT_THROW_WITH(source.runTask(0), std::logic_error,
                      "moved from");
    EXPECT_THROW_WITH(source.runAll(), std::logic_error, "moved from");
    EXPECT_THROW_WITH((void)source.finalize(), std::logic_error,
                      "moved from");

    // Move assignment leaves the right-hand side equally inert.
    replay::MultiPointReplay other(
        replay::IntervalSet::fromProfile(idle), points, {});
    replay::MultiPointReplay target(
        replay::IntervalSet::fromProfile(idle), points, {});
    target = std::move(other);
    EXPECT_THROW_WITH(other.runAll(), std::logic_error, "moved from");
    target.runAll();
    (void)target.finalize();
}

} // namespace
