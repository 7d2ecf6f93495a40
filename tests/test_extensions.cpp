#include <gtest/gtest.h>

#include <memory>

#include "clock/stoppable_clock.hpp"
#include "deadlock/stall.hpp"
#include "sb/kernels/transforms.hpp"
#include "sim/scheduler.hpp"
#include "synchro/token_node.hpp"
#include "synchro/token_ring.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/io_trace.hpp"
#include "workload/host_port.hpp"
#include "workload/traffic.hpp"

namespace st {
namespace {

// ---------------------------------------------------------------------------
// Mesh ("larger system" future-work item)
// ---------------------------------------------------------------------------

TEST(Mesh, ThreeByThreeRunsLiveAndEverywhereActive) {
    sys::MeshOptions opt;  // 3x3, 12 rings, 24 channels
    sys::Soc soc(sys::make_mesh_spec(opt));
    EXPECT_EQ(soc.num_sbs(), 9u);
    EXPECT_EQ(soc.num_rings(), 12u);
    EXPECT_EQ(soc.num_channels(), 24u);
    ASSERT_TRUE(soc.run_cycles(400, sim::ms(8)));
    EXPECT_FALSE(soc.deadlocked());
    for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
        const auto& k = dynamic_cast<const wl::TrafficKernel&>(
            soc.wrapper(i).block().kernel());
        EXPECT_GT(k.words_consumed(), 10u) << soc.wrapper(i).name();
    }
}

TEST(Mesh, PassesDeadlockRulesAndTimingAudit) {
    const auto spec = sys::make_mesh_spec();
    EXPECT_TRUE(dl::solve_stalls(dl::build_stall_model(spec)).converged);
    sys::Soc soc(spec);
    soc.run_cycles(100, sim::ms(8));
    EXPECT_TRUE(soc.audit_timing().all_pass());
}

TEST(Mesh, DeterministicUnderPerturbation) {
    sys::MeshOptions opt;
    opt.width = 2;
    opt.height = 2;
    const auto spec = sys::make_mesh_spec(opt);
    const auto run = [&](const sys::DelayConfig& cfg) {
        sys::Soc soc(sys::apply(spec, cfg));
        soc.run_cycles(140, sim::ms(4));
        return verify::truncated(soc.traces(), 100);
    };
    const auto nominal = run(sys::DelayConfig::nominal(spec));
    auto cfg = sys::DelayConfig::nominal(spec);
    for (std::size_t d = 0; d < cfg.dimensions() - cfg.clock_pct.size(); ++d) {
        cfg.set(d, d % 2 ? 150 : 75);
    }
    const auto diff = verify::diff_traces(nominal, run(cfg));
    EXPECT_TRUE(diff.identical) << diff.first_mismatch;
}

// ---------------------------------------------------------------------------
// N-node token rings (round-robin generalization)
// ---------------------------------------------------------------------------

class MultiNodeRing : public ::testing::Test {
  protected:
    struct Station {
        std::unique_ptr<clk::StoppableClock> clock;
        std::unique_ptr<core::TokenNode> node;
        std::vector<int> enables;  // sb_en per local cycle
        std::unique_ptr<clk::ClockSink> recorder;
    };

    void build(std::size_t n, std::uint32_t hold, std::uint32_t recycle) {
        ring = std::make_unique<core::TokenRing>(sched, "multi");
        for (std::size_t i = 0; i < n; ++i) {
            auto st = std::make_unique<Station>();
            clk::StoppableClock::Params cp;
            cp.base_period = 1000 + 37 * static_cast<sim::Time>(i);
            cp.restart_delay = 100;
            st->clock = std::make_unique<clk::StoppableClock>(
                sched, "clk" + std::to_string(i), cp);
            core::TokenNode::Params np;
            np.hold = hold;
            np.recycle = recycle;
            np.initial_holder = (i == 0);
            st->node = std::make_unique<core::TokenNode>(
                "n" + std::to_string(i), np);
            struct Rec final : clk::ClockSink {
                Station* s = nullptr;
                void sample(std::uint64_t) override {
                    s->enables.push_back(s->node->sb_en() ? 1 : 0);
                }
                void commit(std::uint64_t) override {}
            };
            auto rec = std::make_unique<Rec>();
            rec->s = st.get();
            st->clock->add_sink(st->node.get());
            st->clock->add_sink(rec.get());
            st->recorder = std::move(rec);
            auto* node_ptr = st->node.get();
            auto* clock_ptr = st->clock.get();
            st->clock->set_enable_fn(
                [node_ptr] { return node_ptr->clken(); });
            ring->add_node(node_ptr, 600);
            stations.push_back(std::move(st));
            // Restart duty: watch arrivals per node.
            (void)clock_ptr;
        }
        ring->finalize();
        // Wrap arrivals with clock restarts (normally the wrapper's job).
        ring->on_arrive([this](std::size_t i, sim::Time) {
            arrivals.push_back(i);
        });
        for (auto& st : stations) st->clock->start();
    }

    void post_arrive_restart() {
        // After each event burst, restart any clock whose node recovered.
        for (auto& st : stations) {
            if (st->node->clken()) st->clock->async_restart();
        }
    }

    sim::Scheduler sched;
    std::unique_ptr<core::TokenRing> ring;
    std::vector<std::unique_ptr<Station>> stations;
    std::vector<std::size_t> arrivals;
};

TEST_F(MultiNodeRing, TokenCirculatesRoundRobinWithMutualExclusion) {
    build(4, 3, 40);
    // Pump the simulation; do restart duty between chunks.
    for (int chunk = 0; chunk < 400; ++chunk) {
        sched.run_until(sched.now() + 500);
        post_arrive_restart();
    }
    // Every station received the token several times, in ring order.
    ASSERT_GT(arrivals.size(), 12u);
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        EXPECT_EQ(arrivals[i], (arrivals[i - 1] + 1) % 4)
            << "arrival " << i << " out of ring order";
    }
    for (const auto& st : stations) {
        EXPECT_GT(st->node->tokens_received(), 2u);
        EXPECT_EQ(st->node->protocol_errors(), 0u);
    }
    // Mutual exclusion of the *hold phases* in cycle-schedule terms: each
    // node is enabled for exactly `hold` cycles per token visit.
    for (const auto& st : stations) {
        int run_len = 0;
        int max_run = 0;
        for (const int e : st->enables) {
            run_len = e ? run_len + 1 : 0;
            max_run = std::max(max_run, run_len);
        }
        EXPECT_LE(max_run, 3);
    }
}

TEST_F(MultiNodeRing, SingleTokenInvariant) {
    build(3, 2, 30);
    for (int chunk = 0; chunk < 200; ++chunk) {
        sched.run_until(sched.now() + 500);
        post_arrive_restart();
        int holders = 0;
        for (const auto& st : stations) {
            if (st->node->phase() == core::TokenNode::Phase::kHolding) {
                ++holders;
            }
        }
        EXPECT_LE(holders, 1);
    }
}

// ---------------------------------------------------------------------------
// I/O SB: host <-> SoC bridge
// ---------------------------------------------------------------------------

TEST(HostPort, RoundTripThroughTheSocIsDeterministic) {
    const auto run = [](const std::vector<Word>& cmds) {
        auto spec = sys::make_pair_spec();
        spec.sbs[0].make_kernel = [] {
            return std::make_unique<wl::HostPortKernel>();
        };
        spec.sbs[1].make_kernel = [] {
            return std::make_unique<sb::TransformKernel>(
                [](Word w) { return w * 3 + 1; });
        };
        sys::Soc soc(spec);
        soc.start();
        auto& host = dynamic_cast<wl::HostPortKernel&>(
            soc.wrapper(0).block().kernel());
        for (const Word c : cmds) host.host_send(c);
        soc.run_cycles(400, sim::ms(4));
        std::vector<Word> got;
        while (auto w = host.host_recv()) got.push_back(*w);
        return got;
    };
    const std::vector<Word> cmds{5, 10, 0, 42, 7};
    const auto a = run(cmds);
    const auto b = run(cmds);
    ASSERT_EQ(a.size(), cmds.size());
    for (std::size_t i = 0; i < cmds.size(); ++i) {
        EXPECT_EQ(a[i], cmds[i] * 3 + 1);
    }
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Failure injection: the timing audit flags configurations whose bundling
// constraints break — the preconditions of the determinism theorem.
// ---------------------------------------------------------------------------

TEST(FailureInjection, SlowHandshakeWiresFailTheAudit) {
    auto spec = sys::make_pair_spec();
    for (auto& c : spec.channels) {
        c.tail_link.req_delay = 400;  // 2*(400+400) > 1000 ps cycle
        c.tail_link.ack_delay = 400;
    }
    sys::Soc soc(spec);
    soc.run_cycles(50, sim::ms(1));
    const auto report = soc.audit_timing();
    EXPECT_FALSE(report.all_pass());
    EXPECT_NE(report.summary().find("tail_handshake"), std::string::npos);
}

TEST(FailureInjection, SlowFifoVersusShortTokenPathFailsHeadVisibility) {
    sys::PairOptions opt;
    opt.stage_delay = 700;  // traversal 3*700 >> token path 900 + 1000
    auto spec = sys::make_pair_spec(opt);
    sys::Soc soc(spec);
    soc.run_cycles(50, sim::ms(1));
    const auto report = soc.audit_timing();
    EXPECT_FALSE(report.all_pass());
    EXPECT_NE(report.summary().find("head_visibility"), std::string::npos);
}

TEST(FailureInjection, InsufficientRestartDelayIsFlagged) {
    auto spec = sys::make_pair_spec();
    for (auto& sb : spec.sbs) sb.clock.restart_delay = 10;
    sys::Soc soc(spec);
    soc.run_cycles(50, sim::ms(1));
    const auto report = soc.audit_timing();
    EXPECT_FALSE(report.all_pass());
    EXPECT_NE(report.summary().find("restart_vs_pending"), std::string::npos);
}

TEST(FailureInjection, AuditedEnvelopeIsHonestAboutDeterminism) {
    // A configuration *passing* the audit stays deterministic at the
    // extreme perturbation corner (regression companion to the failing
    // cases above).
    const auto spec = sys::make_pair_spec();
    sys::Soc probe(spec);
    probe.run_cycles(10, sim::ms(1));
    ASSERT_TRUE(probe.audit_timing().all_pass());
    const auto run = [&](unsigned fifo_pct) {
        auto cfg = sys::DelayConfig::nominal(spec);
        cfg.fifo_pct.assign(cfg.fifo_pct.size(), fifo_pct);
        sys::Soc soc(sys::apply(spec, cfg));
        soc.run_cycles(140, sim::ms(2));
        return verify::truncated(soc.traces(), 100);
    };
    EXPECT_TRUE(verify::diff_traces(run(100), run(200)).identical);
}

}  // namespace
}  // namespace st
