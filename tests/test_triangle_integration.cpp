#include <gtest/gtest.h>

#include "deadlock/stall.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/determinism.hpp"
#include "workload/traffic.hpp"

namespace st::sys {
namespace {

TEST(TriangleSoc, ElaboratesThePaperTestCase) {
    // Paper §5: "a system composed of three SBs and six FIFOs".
    Soc soc(make_triangle_spec());
    EXPECT_EQ(soc.num_sbs(), 3u);
    EXPECT_EQ(soc.num_rings(), 3u);
    EXPECT_EQ(soc.num_channels(), 6u);
    // Each SB sits on two rings: two nodes, two inputs, two outputs.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(soc.wrapper(i).num_nodes(), 2u);
        EXPECT_EQ(soc.wrapper(i).num_inputs(), 2u);
        EXPECT_EQ(soc.wrapper(i).num_outputs(), 2u);
    }
}

TEST(TriangleSoc, HeterogeneousClocksExchangeDataEverywhere) {
    Soc soc(make_triangle_spec());
    ASSERT_TRUE(soc.run_cycles(600, sim::ms(1)));
    for (std::size_t i = 0; i < 3; ++i) {
        const auto& k = dynamic_cast<const wl::TrafficKernel&>(
            soc.wrapper(i).block().kernel());
        EXPECT_GT(k.words_emitted(), 50u) << soc.wrapper(i).name();
        EXPECT_GT(k.words_consumed(), 50u) << soc.wrapper(i).name();
    }
}

TEST(TriangleSoc, ClocksActuallyStopAndRestart) {
    // With 1000/1250/1600 ps clocks the token schedules drift: this is a
    // genuinely GALS system in which the escapement mechanism is exercised.
    Soc soc(make_triangle_spec());
    ASSERT_TRUE(soc.run_cycles(600, sim::ms(1)));
    std::uint64_t total_stops = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        total_stops += soc.wrapper(i).clock().stop_events();
    }
    EXPECT_GT(total_stops, 10u);
    EXPECT_FALSE(soc.deadlocked());
}

TEST(TriangleSoc, PassesStaticDeadlockRules) {
    EXPECT_TRUE(
        dl::solve_stalls(dl::build_stall_model(make_triangle_spec()))
            .converged);
}

TEST(TriangleSoc, TimingAuditPasses) {
    Soc soc(make_triangle_spec());
    soc.run_cycles(100, sim::ms(1));
    const auto report = soc.audit_timing();
    EXPECT_TRUE(report.all_pass()) << report.summary();
}

TEST(TriangleSoc, ReproducibleAcrossReruns) {
    const auto run = [] {
        Soc soc(make_triangle_spec());
        soc.run_cycles(300, sim::ms(1));
        return soc.traces();
    };
    EXPECT_TRUE(verify::diff_traces(run(), run()).identical);
}

/// Paper §5 determinism experiment (condensed; the full >16000-run sweep
/// lives in bench_determinism): every perturbed run must reproduce the
/// nominal cycle-indexed I/O sequences over the first 100 local cycles.
class TriangleDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(TriangleDeterminism, PerturbedRunMatchesNominal) {
    const SocSpec nominal = make_triangle_spec();
    const auto runner = [&](const DelayConfig& cfg, verify::RunCapture& cap) {
        Soc soc(apply(nominal, cfg), &cap);
        soc.run_cycles(150, sim::ms(2));
    };
    verify::DeterminismHarness<DelayConfig> harness(
        runner, DelayConfig::nominal(nominal), 100);

    // Deterministically derived perturbation: parameter k gets one of the
    // paper's percentages based on the test index.
    const unsigned percents[5] = {50, 75, 100, 150, 200};
    DelayConfig cfg = DelayConfig::nominal(nominal);
    const int salt = GetParam();
    for (std::size_t d = 0; d < cfg.dimensions(); ++d) {
        const bool is_clock = d >= cfg.dimensions() - cfg.clock_pct.size();
        const unsigned pct =
            percents[(d * 7 + static_cast<std::size_t>(salt) * 13) % 5];
        // Clock-period perturbations below 100% tighten the FIFO timing
        // constraints; keep them within the audited envelope.
        cfg.set(d, is_clock ? std::max(75u, pct) : pct);
    }
    const auto diff = harness.check(cfg);
    EXPECT_TRUE(diff.identical) << diff.first_mismatch;
}

INSTANTIATE_TEST_SUITE_P(Salts, TriangleDeterminism, ::testing::Range(0, 25));

}  // namespace
}  // namespace st::sys
