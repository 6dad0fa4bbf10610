/**
 * @file
 * Tests for the benchmark's input generator and metric catalog.
 */

#include <regex>
#include <set>

#include <gtest/gtest.h>

#include "api/batch.hh"
#include "common/json.hh"
#include "generator.hh"
#include "report.hh"
#include "serve/spec.hh"

namespace perfbench
{
namespace
{

lsim::api::BatchConfig
parse(const std::string &spec)
{
    return lsim::serve::batchConfigFromJson(lsim::parseJson(spec));
}

TEST(Generator, SameSeedGivesIdenticalStreams)
{
    for (Workload w : allWorkloads()) {
        const Generator a(w, 42), b(w, 42);
        EXPECT_EQ(a.warmSpec(), b.warmSpec()) << workloadName(w);
        for (std::size_t i = 0; i < 50; ++i) {
            EXPECT_EQ(a.opSpec(i), b.opSpec(i)) << workloadName(w);
            EXPECT_EQ(a.warmupSpec(i), b.warmupSpec(i)) << workloadName(w);
        }
        EXPECT_EQ(a.profileStream(20), b.profileStream(20)) << workloadName(w);
    }
}

TEST(Generator, DifferentSeedGivesDifferentStreams)
{
    for (Workload w : allWorkloads()) {
        const Generator a(w, 42), b(w, 43);
        std::size_t same = 0;
        for (std::size_t i = 0; i < 50; ++i)
            same += a.opSpec(i) == b.opSpec(i) ? 1 : 0;
        EXPECT_EQ(same, 0u) << workloadName(w);
        EXPECT_NE(a.profileStream(20), b.profileStream(20)) << workloadName(w);
    }
}

TEST(Generator, ServeWarmFingerprintsArePairwiseDistinct)
{
    const Generator gen(Workload::ServeWarm, 7);
    std::set<std::string> seen;
    constexpr std::size_t kOps = 4000;
    for (std::size_t i = 0; i < kOps; ++i)
        EXPECT_TRUE(
            seen.insert(lsim::api::batchFingerprint(parse(gen.opSpec(i))))
                .second)
            << "op " << i;
    for (std::size_t i = 0; i < 24; ++i)
        EXPECT_TRUE(
            seen.insert(lsim::api::batchFingerprint(parse(gen.warmupSpec(i))))
                .second)
            << "warm-up " << i;
}

TEST(Generator, ServeWarmSpecsStayInTheDrawnRanges)
{
    const Generator gen(Workload::ServeWarm, 11);
    for (std::size_t i = 0; i < 500; ++i) {
        const auto batch = parse(gen.opSpec(i));
        ASSERT_EQ(batch.sweeps.size(), 1u);
        const auto &sweep = batch.sweeps.front();
        EXPECT_GE(sweep.workloads.size(), 1u);
        EXPECT_LE(sweep.workloads.size(), 4u);
        EXPECT_GE(sweep.technologies.size(), 1u);
        EXPECT_LE(sweep.technologies.size(), 20u);
        EXPECT_TRUE(sweep.policies.empty()); // the paper's four
        EXPECT_NO_THROW(lsim::api::BatchRunner{batch});
    }
}

/** Warm workloads only ask for what setup simulated; sweep_cold
 * never asks for the same simulation twice across ops. */
TEST(Generator, ProfileStreamMatchesEachPremise)
{
    for (Workload w : {Workload::ServeWarm, Workload::SweepAdaptive}) {
        const Generator gen(w, 5);
        const auto warm = gen.profileStream(0);
        ASSERT_FALSE(warm.empty());
        for (const SimInput &in : gen.profileStream(200))
            EXPECT_NE(std::find(warm.begin(), warm.end(), in), warm.end())
                << workloadName(w) << " asks for an unwarmed " << in.benchmark;
    }
    const Generator cold(Workload::SweepCold, 5);
    EXPECT_TRUE(cold.warmSpec().empty());
    std::set<std::pair<std::string, std::uint64_t>> sims;
    for (std::size_t i = 0; i < 50; ++i) {
        std::set<std::pair<std::string, std::uint64_t>> op;
        const auto batch = parse(cold.opSpec(i));
        ASSERT_EQ(batch.sweeps.size(), 2u);
        std::size_t requested = 0;
        for (const auto &sweep : batch.sweeps)
            for (const auto &name : sweep.workloads) {
                op.insert({name, sweep.seed});
                ++requested;
            }
        EXPECT_EQ(op.size(), 9u);
        EXPECT_LT(op.size(), requested); // the two sweeps overlap
        for (const auto &key : op)
            EXPECT_TRUE(sims.insert(key).second) << key.first;
    }
}

TEST(Catalog, MetricNamesAndUnitsAreWellFormed)
{
    const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> seen;
    for (const std::string &n : endToEndNames()) {
        EXPECT_TRUE(std::regex_match(n, name)) << n;
        EXPECT_TRUE(seen.insert(n).second) << n;
    }
    for (const auto &[n, u] : perLayerCatalog()) {
        EXPECT_TRUE(std::regex_match(n, name)) << n;
        EXPECT_TRUE(std::regex_match(u, unit)) << n << " " << u;
        EXPECT_TRUE(seen.insert(n).second) << n;
    }
}

/** BENCHMARK.json and the harness must list the same metrics. */
TEST(Catalog, MatchesBenchmarkJson)
{
    const lsim::JsonValue doc = lsim::parseJsonFile(PERFBENCH_BENCHMARK_JSON);
    std::vector<std::string> e2e;
    for (const auto &m : doc.at("end_to_end").items())
        e2e.push_back(m.at("name").asString());
    EXPECT_EQ(e2e, endToEndNames());
    std::vector<std::pair<std::string, std::string>> layers;
    for (const auto &m : doc.at("per_layer").items())
        layers.emplace_back(m.at("name").asString(), m.at("unit").asString());
    EXPECT_EQ(layers, perLayerCatalog());
    std::vector<std::string> workloads;
    for (const auto &w : doc.at("workloads").items())
        workloads.push_back(w.at("name").asString());
    std::vector<std::string> ours;
    for (Workload w : allWorkloads())
        ours.emplace_back(workloadName(w));
    EXPECT_EQ(workloads, ours);
}

} // namespace
} // namespace perfbench
