/**
 * @file
 * Unit tests for the run-length trace and PolicyEvaluator harness.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "energy/policy_model.hh"
#include "expect_throw.hh"
#include "sleep/accumulator.hh"

namespace
{

using lsim::Cycle;
using lsim::energy::ModelParams;
using lsim::energy::Policy;
using lsim::energy::PolicyModel;
using lsim::energy::WorkloadPoint;
using lsim::sleep::PolicyEvaluator;
using lsim::sleep::RunLengthTrace;

ModelParams
params(double p = 0.05)
{
    ModelParams mp;
    mp.p = p;
    mp.k = 0.001;
    mp.s = 0.01;
    mp.alpha = 0.5;
    return mp;
}

TEST(RunLengthTrace, AppendMergesSameState)
{
    RunLengthTrace t;
    t.append(true, 3);
    t.append(true, 2);
    t.append(false, 1);
    t.append(false, 0); // ignored
    EXPECT_EQ(t.runs.size(), 2u);
    EXPECT_EQ(t.runs[0].len, 5u);
    EXPECT_EQ(t.totalCycles(), 6u);
    EXPECT_EQ(t.busyCycles(), 5u);
}

TEST(RunLengthTrace, FromBits)
{
    const auto t = RunLengthTrace::fromBits(
        {true, true, false, false, false, true});
    ASSERT_EQ(t.runs.size(), 3u);
    EXPECT_TRUE(t.runs[0].busy);
    EXPECT_EQ(t.runs[0].len, 2u);
    EXPECT_FALSE(t.runs[1].busy);
    EXPECT_EQ(t.runs[1].len, 3u);
    EXPECT_EQ(t.totalCycles(), 6u);
}

TEST(PolicyEvaluator, ResultsForPeriodicTraceMatchClosedForm)
{
    // A perfectly periodic workload (5 active, 10 idle) must
    // reproduce the closed-form PolicyModel with usage 1/3 and
    // L_idle = 10 for all run-local policies.
    const ModelParams mp = params(0.5);
    auto eval = PolicyEvaluator::paperPolicies(mp);
    const int periods = 1000;
    for (int i = 0; i < periods; ++i) {
        eval.feedRun(true, 5);
        eval.feedRun(false, 10);
    }
    WorkloadPoint w;
    w.usage = 5.0 / 15.0;
    w.idle_interval = 10;
    w.total_cycles = periods * 15.0;
    PolicyModel closed(mp, w);

    EXPECT_NEAR(eval.resultFor("MaxSleep").energy,
                closed.energy(Policy::MaxSleep), 1e-6);
    EXPECT_NEAR(eval.resultFor("AlwaysActive").energy,
                closed.energy(Policy::AlwaysActive), 1e-6);
    EXPECT_NEAR(eval.resultFor("NoOverhead").energy,
                closed.energy(Policy::NoOverhead), 1e-6);
    EXPECT_NEAR(eval.baseEnergy(),
                closed.baseEnergy(), 1e-6);
}

TEST(PolicyEvaluator, FeedTraceEqualsFeedRuns)
{
    const ModelParams mp = params();
    auto a = PolicyEvaluator::paperPolicies(mp);
    auto b = PolicyEvaluator::paperPolicies(mp);
    RunLengthTrace t;
    t.append(true, 4);
    t.append(false, 6);
    t.append(true, 1);
    t.append(false, 30);
    a.feedTrace(t);
    for (const auto &run : t.runs)
        b.feedRun(run.busy, run.len);
    const auto ra = a.results();
    const auto rb = b.results();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_DOUBLE_EQ(ra[i].energy, rb[i].energy);
}

TEST(PolicyEvaluator, BulkFeedRunsEqualsLoop)
{
    const ModelParams mp = params();
    auto bulk = PolicyEvaluator::paperPolicies(mp);
    auto loop = PolicyEvaluator::paperPolicies(mp);
    bulk.feedRun(true, 100);
    loop.feedRun(true, 100);
    bulk.feedRuns(12, 50);
    for (int i = 0; i < 50; ++i)
        loop.feedRun(false, 12);
    EXPECT_EQ(bulk.totalCycles(), loop.totalCycles());
    const auto rb = bulk.results();
    const auto rl = loop.results();
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_NEAR(rb[i].energy, rl[i].energy, 1e-9);
    EXPECT_EQ(bulk.idleStats().numIntervals(),
              loop.idleStats().numIntervals());
}

TEST(PolicyEvaluator, IdleStatsTrackFeed)
{
    auto eval = PolicyEvaluator::paperPolicies(params());
    eval.feedRun(true, 10);
    eval.feedRun(false, 5);
    eval.feedRun(true, 1);
    EXPECT_EQ(eval.totalCycles(), 16u);
    EXPECT_EQ(eval.idleStats().numIntervals(), 1u);
    EXPECT_DOUBLE_EQ(eval.idleStats().meanInterval(), 5.0);
}

TEST(PolicyEvaluator, LeakageFractionGrowsWithP)
{
    auto lo = PolicyEvaluator::paperPolicies(params(0.05));
    auto hi = PolicyEvaluator::paperPolicies(params(0.5));
    for (auto *e : {&lo, &hi}) {
        e->feedRun(true, 100);
        e->feedRuns(10, 20);
    }
    EXPECT_LT(lo.resultFor("AlwaysActive").leakage_fraction,
              hi.resultFor("AlwaysActive").leakage_fraction);
}

TEST(PolicyEvaluatorDeath, EmptyControllerSet)
{
    EXPECT_THROW_WITH(PolicyEvaluator(params(), {}),
                      std::invalid_argument, "no controllers");
}

TEST(PolicyEvaluatorDeath, UnknownName)
{
    auto eval = PolicyEvaluator::paperPolicies(params());
    EXPECT_THROW_WITH((void)eval.resultFor("Nonexistent"),
                      std::invalid_argument, "no controller named");
}

} // namespace
