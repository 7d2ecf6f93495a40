// Experiment §5 deadlock claim: "A synchro-tokens system may deadlock if
// there is a cyclic dependency among a set of SBs in which each has stopped
// its clock to wait for a late token. Whether or not deadlock occurs is
// deterministic; thus, no detection or recovery methodology is needed. A
// set of deadlock-preventing design rules ... has been formally derived."
//
// This bench (a) shows a deliberately under-provisioned cyclic system
// deadlocking at identical local cycle counts under every delay
// perturbation, (b) shows the derived design rules rejecting exactly the
// configurations that deadlock, and (c) sweeps recycle slack to locate the
// rule boundary.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "deadlock/stall.hpp"
#include "deadlock/waitfor.hpp"
#include "runner/runner.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace st;

sys::SocSpec cyclic_spec(std::uint32_t recycle) {
    sys::SocSpec spec;
    for (int i = 0; i < 3; ++i) {
        sys::SbSpec sb;
        sb.name = "sb" + std::to_string(i);
        sb.clock.base_period = 1000;
        sb.clock.restart_delay = 200;
        sb.make_kernel = [i] {
            return std::make_unique<wl::TrafficKernel>(
                0x2000u + static_cast<unsigned>(i));
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
        ring.delay_ab = 900;
        ring.delay_ba = 900;
        spec.rings.push_back(ring);
    }
    return spec;
}

/// The static rule: the stall model's fixpoint converges.
bool safe(const sys::SocSpec& spec) {
    return dl::solve_stalls(dl::build_stall_model(spec)).converged;
}

struct Outcome {
    bool deadlocked = false;
    std::uint64_t cycles[3] = {0, 0, 0};
};

Outcome run_config(const sys::SocSpec& spec, const sys::DelayConfig& cfg) {
    sys::Soc soc(sys::apply(spec, cfg));
    soc.run_cycles(400, sim::ms(4));
    Outcome o;
    o.deadlocked = soc.deadlocked();
    for (std::size_t i = 0; i < 3; ++i) {
        o.cycles[i] = soc.wrapper(i).clock().cycles();
    }
    return o;
}

void run_experiment() {
    bench::banner("Deadlock determinism under delay perturbation");
    std::printf("3-SB cyclic ring topology, H=4, recycle=1 (starved)\n");
    const auto spec = cyclic_spec(1);
    const auto nominal = run_config(spec, sys::DelayConfig::nominal(spec));
    std::printf("%-14s | %9s | cycles at halt\n", "perturbation", "deadlock");
    std::printf("%-14s | %9s | %llu %llu %llu\n", "nominal",
                nominal.deadlocked ? "yes" : "no",
                static_cast<unsigned long long>(nominal.cycles[0]),
                static_cast<unsigned long long>(nominal.cycles[1]),
                static_cast<unsigned long long>(nominal.cycles[2]));
    // Independent perturbed runs, fanned out on the st::runner engine and
    // reduced (printed, compared) in sweep order.
    const std::size_t jobs = runner::hardware_jobs();
    const std::vector<unsigned> pcts = {50u, 75u, 150u, 200u};
    bool all_identical = true;
    runner::sweep(
        pcts.size(), jobs,
        [&](std::size_t i) {
            auto cfg = sys::DelayConfig::nominal(spec);
            cfg.ring_ab_pct.assign(cfg.ring_ab_pct.size(), pcts[i]);
            cfg.ring_ba_pct.assign(cfg.ring_ba_pct.size(), pcts[i]);
            cfg.fifo_pct.assign(cfg.fifo_pct.size(), pcts[i]);
            return run_config(spec, cfg);
        },
        [&](std::size_t i, Outcome&& o) {
            char label[32];
            std::snprintf(label, sizeof label, "delays %u%%", pcts[i]);
            std::printf("%-14s | %9s | %llu %llu %llu\n", label,
                        o.deadlocked ? "yes" : "no",
                        static_cast<unsigned long long>(o.cycles[0]),
                        static_cast<unsigned long long>(o.cycles[1]),
                        static_cast<unsigned long long>(o.cycles[2]));
            all_identical &= o.deadlocked == nominal.deadlocked &&
                             o.cycles[0] == nominal.cycles[0] &&
                             o.cycles[1] == nominal.cycles[1] &&
                             o.cycles[2] == nominal.cycles[2];
        });
    std::printf("=> deadlock behaviour %s across perturbations (paper: "
                "deterministic)\n",
                all_identical ? "IDENTICAL" : "DIVERGED");

    {
        sys::Soc soc(spec);
        soc.run_cycles(400, sim::ms(4));
        std::printf("\nruntime diagnosis: %s\n",
                    dl::diagnose(soc).summary().c_str());
    }

    bench::banner("Design-rule boundary: recycle slack sweep");
    std::printf("%8s | %12s | %10s\n", "recycle", "rule check", "simulated");
    const std::vector<std::uint32_t> recycles = {1u,  4u,  8u, 12u,
                                                 16u, 24u, 40u};
    struct BoundaryRow {
        bool rules_ok = false;
        bool deadlocked = false;
    };
    runner::sweep(
        recycles.size(), jobs,
        [&](std::size_t i) {
            const auto s = cyclic_spec(recycles[i]);
            BoundaryRow row;
            row.rules_ok = safe(s);
            row.deadlocked =
                run_config(s, sys::DelayConfig::nominal(s)).deadlocked;
            return row;
        },
        [&](std::size_t i, BoundaryRow&& row) {
            std::printf("%8u | %12s | %10s\n", recycles[i],
                        row.rules_ok ? "safe" : "RISK",
                        row.deadlocked ? "DEADLOCK" : "live");
        });
    std::printf("(the static rule must be conservative: every simulated "
                "deadlock must sit in a RISK row)\n");
}

void BM_RuleCheckTriangle(benchmark::State& state) {
    const auto spec = sys::make_triangle_spec();
    for (auto _ : state) {
        benchmark::DoNotOptimize(safe(spec));
    }
}
BENCHMARK(BM_RuleCheckTriangle);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
