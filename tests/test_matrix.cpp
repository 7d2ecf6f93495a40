#include <gtest/gtest.h>

#include "async/link.hpp"
#include "sim/random.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/determinism.hpp"

namespace st::sys {
namespace {

/// Methodology matrix: one determinism check for every combination of
/// topology x handshake protocol x perturbation class. This is the broad
/// regression net over the whole stack: any semantic slip anywhere (kernel
/// ordering, link FSM, node schedule, wrapper gating) shows up as a trace
/// divergence in at least one cell.

enum class Topology { kPair, kTriangle, kChain, kWide };
enum class PerturbClass { kFifo, kRing, kClocks, kJointRandom };

SocSpec topo_spec(Topology t) {
    switch (t) {
        case Topology::kPair:
            return make_pair_spec();
        case Topology::kTriangle:
            return make_triangle_spec();
        case Topology::kChain: {
            ChainOptions opt;
            opt.length = 5;
            return make_chain_spec(opt);
        }
        case Topology::kWide:
            return make_wide_pair_spec();
    }
    return make_pair_spec();
}

const char* topo_name(Topology t) {
    switch (t) {
        case Topology::kPair: return "pair";
        case Topology::kTriangle: return "triangle";
        case Topology::kChain: return "chain";
        case Topology::kWide: return "wide";
    }
    return "?";
}

DelayConfig perturb(const SocSpec& spec, PerturbClass pc, std::uint64_t seed) {
    auto cfg = DelayConfig::nominal(spec);
    sim::Rng rng(seed);
    const unsigned percents[4] = {50, 75, 150, 200};
    switch (pc) {
        case PerturbClass::kFifo:
            for (auto& p : cfg.fifo_pct) p = percents[rng.next_below(4)];
            break;
        case PerturbClass::kRing:
            for (auto& p : cfg.ring_ab_pct) p = percents[rng.next_below(4)];
            for (auto& p : cfg.ring_ba_pct) p = percents[rng.next_below(4)];
            break;
        case PerturbClass::kClocks:
            // Stay inside the audited envelope: >= 75 %.
            for (auto& p : cfg.clock_pct) {
                p = 75 + static_cast<unsigned>(rng.next_below(100));
            }
            break;
        case PerturbClass::kJointRandom:
            for (std::size_t d = 0; d < cfg.dimensions(); ++d) {
                const bool is_clock =
                    d >= cfg.dimensions() - cfg.clock_pct.size();
                const unsigned pct = percents[rng.next_below(4)];
                cfg.set(d, is_clock ? std::max(75u, pct) : pct);
            }
            break;
    }
    return cfg;
}

using MatrixParam =
    std::tuple<Topology, achan::LinkProtocol, PerturbClass, std::uint64_t>;

class MethodologyMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(MethodologyMatrix, DeterminismHoldsInEveryCell) {
    const auto [topo, proto, pclass, seed] = GetParam();
    SocSpec spec = topo_spec(topo);
    for (auto& c : spec.channels) {
        c.tail_link.protocol = proto;
        c.fifo.head_protocol = proto;
    }

    const auto run = [&](const DelayConfig& cfg, verify::RunCapture& cap) {
        Soc soc(apply(spec, cfg), &cap);
        soc.run_cycles(130, sim::ms(8));
    };
    verify::DeterminismHarness<DelayConfig> harness(
        run, DelayConfig::nominal(spec), 90);
    const auto diff = harness.check(perturb(spec, pclass, seed));
    EXPECT_TRUE(diff.identical)
        << topo_name(topo) << ": " << diff.first_mismatch;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, MethodologyMatrix,
    ::testing::Combine(
        ::testing::Values(Topology::kPair, Topology::kTriangle,
                          Topology::kChain, Topology::kWide),
        ::testing::Values(achan::LinkProtocol::kFourPhase,
                          achan::LinkProtocol::kTwoPhase),
        ::testing::Values(PerturbClass::kFifo, PerturbClass::kRing,
                          PerturbClass::kClocks, PerturbClass::kJointRandom),
        ::testing::Values<std::uint64_t>(1, 2)));

// The same matrix sweep fanned out on the st::runner engine must produce the
// same aggregate as the serial path — matrix cells are exactly the
// independent-run shape the engine parallelizes, so this pins the
// jobs-invariance contract at the methodology level.
TEST(MethodologyMatrixParallel, SweepResultMatchesSerialRun) {
    const SocSpec spec = topo_spec(Topology::kTriangle);
    const auto run = [&spec](const DelayConfig& cfg,
                             verify::RunCapture& cap) {
        Soc soc(apply(spec, cfg), &cap);
        soc.run_cycles(130, sim::ms(8));
    };

    std::vector<DelayConfig> sweep;
    for (const PerturbClass pc :
         {PerturbClass::kFifo, PerturbClass::kRing, PerturbClass::kClocks,
          PerturbClass::kJointRandom}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            sweep.push_back(perturb(spec, pc, seed));
        }
    }

    verify::DeterminismHarness<DelayConfig> serial(
        run, DelayConfig::nominal(spec), 90);
    verify::DeterminismHarness<DelayConfig> parallel(
        run, DelayConfig::nominal(spec), 90);
    const auto r1 = serial.sweep(sweep, 1);
    const auto r4 = parallel.sweep(sweep, 4);

    EXPECT_EQ(r1.runs, sweep.size());
    EXPECT_EQ(r1.runs, r4.runs);
    EXPECT_EQ(r1.matches, r4.matches);
    EXPECT_EQ(r1.mismatches, r4.mismatches);
    EXPECT_EQ(r1.examples, r4.examples);
    EXPECT_TRUE(r1.all_match());
}

}  // namespace
}  // namespace st::sys
