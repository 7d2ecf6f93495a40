#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "deadlock/stall.hpp"
#include "deadlock/waitfor.hpp"
#include "lint/fixtures.hpp"
#include "lint/lint.hpp"
#include "sva/fixtures.hpp"
#include "sva/graph.hpp"
#include "sva/passes.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"
#include "workload/traffic.hpp"

namespace st::dl {
namespace {

/// Three SBs in a directed cycle of rings, each holding one token and
/// waiting `recycle` cycles for the next (bench_deadlock's geometry: H = 4,
/// 900 ps wires, 1 ns clocks, so the nominal token absence is 6.8 ns).
sys::SocSpec cyclic_spec(std::uint32_t recycle) {
    sys::SocSpec spec;
    for (int i = 0; i < 3; ++i) {
        sys::SbSpec sb;
        sb.name = "sb" + std::to_string(i);
        sb.clock.base_period = 1000;
        sb.clock.restart_delay = 200;
        sb.make_kernel = [i] {
            return std::make_unique<wl::TrafficKernel>(
                0x1000u + static_cast<unsigned>(i));
        };
        spec.sbs.push_back(sb);
    }
    for (std::size_t i = 0; i < 3; ++i) {
        sys::RingSpec ring;
        ring.name = "ring" + std::to_string(i);
        ring.sb_a = i;
        ring.sb_b = (i + 1) % 3;
        ring.node_a.hold = 4;
        ring.node_a.recycle = recycle;
        ring.node_a.initial_holder = true;
        ring.node_b.hold = 4;
        ring.node_b.recycle = recycle;
        ring.node_b.initial_holder = false;
        ring.delay_ab = 900;
        ring.delay_ba = 900;
        spec.rings.push_back(ring);
    }
    return spec;
}

/// Recycle registers hopelessly under-provisioned: a guaranteed cyclic
/// wait.
sys::SocSpec starved_cycle_spec() { return cyclic_spec(1); }

/// A stall verdict: whether the transitive-stall recurrence converges and,
/// if it does, each SB's worst stall bound (ps).
struct StallVerdict {
    bool converged = true;
    std::vector<sim::Time> sb_stall;
};

StallVerdict model_verdict(const sys::SocSpec& spec) {
    const StallModel model = build_stall_model(spec);
    const StallFixpoint fp = solve_stalls(model);
    StallVerdict v;
    v.converged = fp.converged;
    v.sb_stall.assign(spec.sbs.size(), 0);
    for (std::size_t i = 0; i < model.stations.size(); ++i) {
        auto& worst = v.sb_stall[model.stations[i].sb];
        worst = std::max(worst, fp.stall[i]);
    }
    return v;
}

/// Independent reference for the stall model: the DESIGN.md §6 recurrence
/// written directly over SocSpec fields, the way the retired rule checker
/// computed it — one node per ring endpoint and per (member, other member)
/// pair of a multi-ring, an all-pairs coupling scan each round, and Jacobi
/// rounds. Without a positive-deficit cycle the least fixpoint is reached
/// within |nodes| + 1 rounds, so 2 (|nodes| + 2) rounds decide the verdict.
StallVerdict reference_verdict(const sys::SocSpec& spec) {
    struct Node {
        std::size_t ring;
        std::size_t sb;
        std::size_t peer_sb;
        sim::Time provisioned;
        sim::Time away;
    };
    const auto period = [&](std::size_t sb) {
        return spec.sbs[sb].clock.base_period * spec.sbs[sb].clock.divider;
    };
    std::vector<Node> nodes;
    for (std::size_t r = 0; r < spec.rings.size(); ++r) {
        const auto& ring = spec.rings[r];
        const sim::Time round_trip = ring.delay_ab + ring.delay_ba;
        nodes.push_back({r, ring.sb_a, ring.sb_b,
                         ring.node_a.recycle * period(ring.sb_a),
                         round_trip + (ring.node_b.hold + 1ull) *
                                          period(ring.sb_b)});
        nodes.push_back({r, ring.sb_b, ring.sb_a,
                         ring.node_b.recycle * period(ring.sb_b),
                         round_trip + (ring.node_a.hold + 1ull) *
                                          period(ring.sb_a)});
    }
    for (std::size_t r = 0; r < spec.multi_rings.size(); ++r) {
        const auto& members = spec.multi_rings[r].members;
        sim::Time hops = 0;
        for (const auto& m : members) hops += m.hop_delay;
        for (std::size_t i = 0; i < members.size(); ++i) {
            sim::Time others = 0;
            for (std::size_t j = 0; j < members.size(); ++j) {
                if (j != i) {
                    others += (members[j].node.hold + 1ull) *
                              period(members[j].sb);
                }
            }
            for (std::size_t j = 0; j < members.size(); ++j) {
                if (j == i) continue;
                nodes.push_back({spec.rings.size() + r, members[i].sb,
                                 members[j].sb,
                                 members[i].node.recycle *
                                     period(members[i].sb),
                                 hops + others});
            }
        }
    }

    std::vector<sim::Time> stall(nodes.size(), 0);
    StallVerdict v;
    v.converged = false;
    for (std::size_t round = 0; round < 2 * (nodes.size() + 2); ++round) {
        std::vector<sim::Time> next(nodes.size(), 0);
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            sim::Time cross = 0;
            for (std::size_t m = 0; m < nodes.size(); ++m) {
                if (nodes[m].sb == nodes[n].peer_sb &&
                    nodes[m].ring != nodes[n].ring) {
                    cross = std::max(cross, stall[m]);
                }
            }
            const sim::Time pressure = nodes[n].away + cross;
            next[n] = pressure > nodes[n].provisioned
                          ? pressure - nodes[n].provisioned
                          : 0;
        }
        const bool fixed = next == stall;
        stall = std::move(next);
        if (fixed) {
            v.converged = true;
            break;
        }
    }
    v.sb_stall.assign(spec.sbs.size(), 0);
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        v.sb_stall[nodes[n].sb] = std::max(v.sb_stall[nodes[n].sb], stall[n]);
    }
    return v;
}

/// Every recycle register set to 2: far below every generated ring's
/// token absence.
sva::SpecDoc starved(sva::SpecDoc doc) {
    for (auto& r : doc.rings) {
        r.node_a.recycle = 2;
        r.node_b.recycle = 2;
    }
    for (auto& m : doc.multi_rings) {
        for (auto& mem : m.members) mem.node.recycle = 2;
    }
    return doc;
}

sva::SpecDoc generated(topo::Shape shape, std::size_t sbs) {
    topo::Options opt;
    opt.shape = shape;
    opt.sbs = sbs;
    opt.seed = 1;
    return topo::generate(opt);
}

/// Three SBs on one multi-ring, every member at recycle 2.
sys::SocSpec starved_multi_ring_spec() {
    auto spec = sys::make_bus_spec({.size = 3});
    for (auto& m : spec.multi_rings.at(0).members) m.node.recycle = 2;
    return spec;
}

const std::vector<std::uint32_t> kCyclicRecycles = {1, 4, 8, 12, 16, 24, 40};

TEST(DeadlockRules, WellProvisionedConfigsPass) {
    EXPECT_TRUE(model_verdict(sys::make_pair_spec()).converged);
    EXPECT_TRUE(model_verdict(sys::make_triangle_spec()).converged);
    EXPECT_TRUE(model_verdict(sys::make_chain_spec()).converged);
}

TEST(DeadlockRules, StarvedCycleIsRejected) {
    const StallModel model = build_stall_model(starved_cycle_spec());
    const StallFixpoint fp = solve_stalls(model);
    EXPECT_FALSE(fp.converged);
    EXPECT_EQ(fp.rounds, model.stations.size() + 2);
    // Some station still grew in the last round, with a predecessor to walk.
    bool grew_with_pred = false;
    for (std::size_t i = 0; i < fp.grew.size(); ++i) {
        grew_with_pred |= fp.grew[i] && fp.pred[i] != kNoStation;
    }
    EXPECT_TRUE(grew_with_pred);
}

TEST(DeadlockRules, SlackRestoresSafety) {
    EXPECT_TRUE(model_verdict(cyclic_spec(40)).converged);
}

TEST(DeadlockRules, PairStallBoundsAreSmallAndBounded) {
    // A single-ring pair can never deadlock; the conservative alignment
    // term may report up to ~one clock period of possible stall per token
    // round trip, but the bound must converge and stay below a period.
    const auto v = model_verdict(sys::make_pair_spec());
    ASSERT_EQ(v.sb_stall.size(), 2u);
    EXPECT_TRUE(v.converged);
    EXPECT_LE(v.sb_stall[0], 1000u);
    EXPECT_LE(v.sb_stall[1], 1000u);
}

// Station layout: one per two-node ring endpoint, one per (member, other
// member) pair of a multi-ring, loci in lint's wording, coupling never
// through the station's own ring.
TEST(StallModel, StationsAndCouplingFollowTheRings) {
    const auto model = build_stall_model(sys::make_triangle_spec());
    ASSERT_EQ(model.stations.size(), 6u);
    EXPECT_EQ(model.stations[0].locus.rfind("ring '", 0), 0u);
    EXPECT_NE(model.stations[0].locus.find("' node in SB '"),
              std::string::npos);
    for (std::size_t n = 0; n < model.stations.size(); ++n) {
        for (const std::size_t j : model.coupling[n]) {
            EXPECT_EQ(model.stations[j].sb, model.stations[n].peer_sb);
            EXPECT_NE(model.stations[j].ring, model.stations[n].ring);
        }
    }

    const auto bus = build_stall_model(starved_multi_ring_spec());
    ASSERT_EQ(bus.stations.size(), 6u);  // 3 members x 2 others
    EXPECT_EQ(bus.stations[0].locus, "multi-ring 'bus' node in SB 'node0'");
    // 3 hops of 600 ps + two other members' (3+1) cycles of 1120/1240 ps.
    EXPECT_EQ(bus.stations[0].away, 1800u + 4u * 1120u + 4u * 1240u);
    EXPECT_EQ(bus.stations[0].provisioned, 2000u);
    EXPECT_EQ(bus.stations[0].min_recycle(), 12u);
    // A lone multi-ring couples into nothing: it cannot deadlock itself.
    for (const auto& c : bus.coupling) EXPECT_TRUE(c.empty());
}

// The model against the independent reference: the same verdict on every
// spec, and, where the recurrence converges, the same worst stall per SB.
TEST(StallModel, AgreesWithNaiveReference) {
    std::vector<std::pair<std::string, sys::SocSpec>> corpus;
    for (const auto& name : sys::named_specs()) {
        corpus.emplace_back(name, sys::make_named_spec(name));
    }
    for (const auto& f : lint::fixture_catalog()) {
        corpus.emplace_back(std::string("lint:") + f.name,
                            lint::make_fixture(f.name));
    }
    for (const auto& f : sva::fixture_catalog()) {
        corpus.emplace_back(std::string("sva:") + f.name,
                            sva::make_fixture(f.name));
    }
    for (const auto shape : {topo::Shape::kMesh, topo::Shape::kTorus,
                             topo::Shape::kStar, topo::Shape::kHierRing}) {
        const auto doc = generated(shape, 64);
        const std::string name = std::string(topo::shape_name(shape)) + "64";
        corpus.emplace_back(name, sva::to_spec(doc));
        corpus.emplace_back("starved-" + name, sva::to_spec(starved(doc)));
    }
    corpus.emplace_back("starved-multi-ring", starved_multi_ring_spec());
    for (const std::uint32_t r : kCyclicRecycles) {
        corpus.emplace_back("cyclic-r" + std::to_string(r), cyclic_spec(r));
    }

    std::size_t diverged = 0;
    for (const auto& [name, spec] : corpus) {
        SCOPED_TRACE(name);
        const auto model = model_verdict(spec);
        const auto ref = reference_verdict(spec);
        ASSERT_EQ(model.converged, ref.converged);
        if (model.converged) {
            EXPECT_EQ(model.sb_stall, ref.sb_stall);
        }
        diverged += model.converged ? 0 : 1;
    }
    // Both verdicts occur: the starved 64-SB mesh, torus and ring-of-rings
    // diverge, and so do the cyclic fixtures.
    EXPECT_GE(diverged, 5u);
    EXPECT_LT(diverged, corpus.size());
}

// Conservativeness: every cyclic recycle value that deadlocks in simulation
// is flagged by the model.
TEST(StallModel, FlagsEveryCyclicConfigThatDeadlocks) {
    std::size_t deadlocks = 0;
    for (const std::uint32_t r : kCyclicRecycles) {
        SCOPED_TRACE(r);
        const auto spec = cyclic_spec(r);
        sys::Soc soc(spec);
        soc.run_cycles(400, sim::ms(4));
        if (!soc.deadlocked()) continue;
        ++deadlocks;
        EXPECT_FALSE(model_verdict(spec).converged);
    }
    EXPECT_GE(deadlocks, 1u);  // the check is not vacuous
}

// A starved 256-SB mesh: lint reports the diverging fixpoint and sva's
// deadlock obligation is PLAUSIBLE, in milliseconds (the quadratic rule
// checker this model replaced took minutes).
TEST(StallModel, StarvedMesh256IsFlaggedByLintAndSva) {
    const auto spec =
        sva::to_spec(starved(generated(topo::Shape::kMesh, 256)));
    EXPECT_TRUE(lint::lint(spec).has_error("deadlock-fixpoint"));
    const auto obs = sva::pass_deadlock(sva::lower(spec));
    ASSERT_EQ(obs.size(), 1u);
    EXPECT_EQ(obs[0].verdict, sva::Verdict::kPlausible);
}

TEST(DeadlockRuntime, StarvedCycleActuallyDeadlocks) {
    sys::Soc soc(starved_cycle_spec());
    EXPECT_FALSE(soc.run_cycles(100, sim::ms(1)));  // goal never reached
    EXPECT_TRUE(soc.deadlocked());
    const auto diag = diagnose(soc);
    EXPECT_TRUE(diag.deadlocked);
    EXPECT_EQ(diag.cycle.size(), 3u);
    EXPECT_FALSE(diag.edges.empty());
    EXPECT_NE(diag.summary().find("DEADLOCK"), std::string::npos);
}

TEST(DeadlockRuntime, HealthySystemDiagnosesClean) {
    sys::Soc soc(sys::make_triangle_spec());
    soc.run_cycles(200, sim::ms(1));
    EXPECT_FALSE(soc.deadlocked());
    EXPECT_FALSE(diagnose(soc).deadlocked);
    EXPECT_EQ(diagnose(soc).summary(), "no deadlock");
}

/// Paper §5: "Whether or not deadlock occurs is deterministic; thus, no
/// detection or recovery methodology is needed." The same configuration
/// deadlocks identically — at the same local cycle counts — under every
/// delay perturbation.
TEST(DeadlockRuntime, DeadlockIsDeterministicAcrossPerturbations) {
    const auto spec = starved_cycle_spec();
    std::vector<std::uint64_t> nominal_cycles;
    {
        sys::Soc soc(spec);
        soc.run_cycles(100, sim::ms(1));
        ASSERT_TRUE(soc.deadlocked());
        for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
            nominal_cycles.push_back(soc.wrapper(i).clock().cycles());
        }
    }
    for (const unsigned pct : {50u, 75u, 150u, 200u}) {
        auto cfg = sys::DelayConfig::nominal(spec);
        cfg.ring_ab_pct.assign(cfg.ring_ab_pct.size(), pct);
        cfg.ring_ba_pct.assign(cfg.ring_ba_pct.size(), pct);
        sys::Soc soc(sys::apply(spec, cfg));
        soc.run_cycles(100, sim::ms(1));
        EXPECT_TRUE(soc.deadlocked()) << pct;
        for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
            EXPECT_EQ(soc.wrapper(i).clock().cycles(), nominal_cycles[i])
                << "SB " << i << " at " << pct << "%";
        }
    }
}

}  // namespace
}  // namespace st::dl
