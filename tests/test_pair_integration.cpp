#include <gtest/gtest.h>

#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/determinism.hpp"
#include "workload/traffic.hpp"

namespace st::sys {
namespace {

const wl::TrafficKernel& traffic_of(Soc& soc, std::size_t sb) {
    return dynamic_cast<const wl::TrafficKernel&>(
        soc.wrapper(sb).block().kernel());
}

TEST(PairSoc, ElaboratesWithExpectedStructure) {
    Soc soc(make_pair_spec());
    EXPECT_EQ(soc.num_sbs(), 2u);
    EXPECT_EQ(soc.num_rings(), 1u);
    EXPECT_EQ(soc.num_channels(), 2u);
    EXPECT_EQ(soc.wrapper(0).num_nodes(), 1u);
    EXPECT_EQ(soc.wrapper(0).num_inputs(), 1u);
    EXPECT_EQ(soc.wrapper(0).num_outputs(), 1u);
}

TEST(PairSoc, SymmetricNominalRunsWithoutClockStops) {
    Soc soc(make_pair_spec());
    ASSERT_TRUE(soc.run_cycles(400, sim::us(10)));
    // Exact schedule: the token is never late, so neither clock ever stops.
    EXPECT_EQ(soc.wrapper(0).clock().stop_events(), 0u);
    EXPECT_EQ(soc.wrapper(1).clock().stop_events(), 0u);
    EXPECT_EQ(soc.ring_node(0, 0).late_arrivals(), 0u);
    EXPECT_EQ(soc.ring_node(0, 1).late_arrivals(), 0u);
}

TEST(PairSoc, DataFlowsBothDirections) {
    Soc soc(make_pair_spec());
    ASSERT_TRUE(soc.run_cycles(400, sim::us(10)));
    EXPECT_GT(traffic_of(soc, 0).words_emitted(), 50u);
    EXPECT_GT(traffic_of(soc, 0).words_consumed(), 50u);
    EXPECT_GT(traffic_of(soc, 1).words_emitted(), 50u);
    EXPECT_GT(traffic_of(soc, 1).words_consumed(), 50u);
    // Conservation: every word alpha emitted was consumed by beta or is
    // still in flight (FIFO + latch + staged).
    const auto emitted = traffic_of(soc, 0).words_emitted();
    const auto consumed = traffic_of(soc, 1).words_consumed();
    EXPECT_LE(consumed, emitted);
    EXPECT_LE(emitted - consumed, 8u);
}

TEST(PairSoc, ThroughputMatchesHoldOverHoldPlusRecycle) {
    PairOptions opt;
    opt.hold = 4;  // symmetric: R = H + 2 = 6
    Soc soc(make_pair_spec(opt));
    ASSERT_TRUE(soc.run_cycles(1000, sim::us(20)));
    const double cycles = static_cast<double>(soc.wrapper(0).clock().cycles());
    const double words = static_cast<double>(traffic_of(soc, 0).words_emitted());
    const double expected = 4.0 / (4.0 + 6.0);
    EXPECT_NEAR(words / cycles, expected, 0.02);
}

TEST(PairSoc, TimingAuditPassesAtNominal) {
    Soc soc(make_pair_spec());
    soc.run_cycles(100, sim::us(10));
    const auto report = soc.audit_timing();
    EXPECT_TRUE(report.all_pass()) << report.summary();
}

TEST(PairSoc, TracesAreBitIdenticalAcrossReruns) {
    const auto run = [] {
        Soc soc(make_pair_spec());
        soc.run_cycles(300, sim::us(10));
        return soc.traces();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_TRUE(verify::diff_traces(a, b).identical);
    EXPECT_EQ(verify::fingerprint(a), verify::fingerprint(b));
}

/// The heart of the paper: perturbing every analog delay leaves the
/// cycle-indexed I/O sequences untouched.
class PairDeterminism
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, unsigned>> {
};

TEST_P(PairDeterminism, PerturbedDelaysReproduceNominalSequences) {
    const auto [fifo_pct, ring_pct, clock_pct] = GetParam();
    const SocSpec nominal = make_pair_spec();

    const auto runner = [&](const DelayConfig& cfg, verify::RunCapture& cap) {
        Soc soc(apply(nominal, cfg), &cap);
        soc.run_cycles(150, sim::us(40));
    };
    verify::DeterminismHarness<DelayConfig> harness(
        runner, DelayConfig::nominal(nominal), 100);

    DelayConfig cfg = DelayConfig::nominal(nominal);
    cfg.fifo_pct.assign(cfg.fifo_pct.size(), fifo_pct);
    cfg.ring_ab_pct.assign(cfg.ring_ab_pct.size(), ring_pct);
    cfg.ring_ba_pct.assign(cfg.ring_ba_pct.size(), ring_pct);
    // Perturb only SB1's clock so the pair becomes plesiochronous.
    cfg.clock_pct.back() = clock_pct;

    const auto diff = harness.check(cfg);
    EXPECT_TRUE(diff.identical) << diff.first_mismatch;
}

INSTANTIATE_TEST_SUITE_P(
    PaperPercentages, PairDeterminism,
    ::testing::Combine(::testing::Values(50u, 75u, 100u, 150u, 200u),
                       ::testing::Values(50u, 75u, 100u, 150u, 200u),
                       ::testing::Values(75u, 100u, 150u)));

}  // namespace
}  // namespace st::sys
