// Experiment §5 (the paper's headline result): determinism of the
// synchro-tokens system under delay perturbation.
//
// Paper: a system of three SBs and six FIFOs was simulated with FIFO delays,
// token-ring delays and local clock frequencies perturbed to 50/75/150/200 %
// of nominal; in all >16,000 simulations the data sequences observed at each
// SB's I/Os over the first 100 local clock cycles matched the nominal run
// exactly — and with the synchro-tokens control logic bypassed (interfaces
// and clocks forced always-enabled) the sequences were nondeterministic.
//
// This bench reruns exactly that experiment shape: single-parameter sweeps
// plus seeded random multi-parameter combinations totalling >16,000 runs for
// the synchro-tokens SoC, and a (smaller) control sweep for the bypassed
// two-flop baseline. Set ST_QUICK=1 for a reduced run count.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "baselines/baseline_soc.hpp"
#include "bench_util.hpp"
#include "runner/runner.hpp"
#include "sim/random.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/determinism.hpp"

namespace {

using namespace st;

constexpr unsigned kPercents[] = {50, 75, 100, 150, 200};

/// Clock periods shrink the datapath timing budget; keep them inside the
/// envelope the timing audit certifies (>= 75 % of nominal).
unsigned clamp_clock(unsigned pct) { return pct < 75 ? 75 : pct; }

std::vector<sys::DelayConfig> build_sweep(const sys::SocSpec& spec,
                                          std::size_t total_runs) {
    const auto nominal = sys::DelayConfig::nominal(spec);
    std::vector<sys::DelayConfig> sweep;
    // (a) every parameter alone at each non-nominal percentage,
    for (std::size_t d = 0; d < nominal.dimensions(); ++d) {
        const bool is_clock = d >= nominal.dimensions() - nominal.clock_pct.size();
        for (const unsigned pct : kPercents) {
            if (pct == 100) continue;
            auto cfg = nominal;
            cfg.set(d, is_clock ? clamp_clock(pct) : pct);
            sweep.push_back(cfg);
        }
    }
    // (b) seeded random joint assignments until the target count.
    sim::Rng rng(0x5eed);
    while (sweep.size() < total_runs) {
        auto cfg = nominal;
        for (std::size_t d = 0; d < nominal.dimensions(); ++d) {
            const bool is_clock =
                d >= nominal.dimensions() - nominal.clock_pct.size();
            const unsigned pct = kPercents[rng.next_below(5)];
            cfg.set(d, is_clock ? clamp_clock(pct) : pct);
        }
        sweep.push_back(cfg);
    }
    return sweep;
}

void run_experiment() {
    const std::size_t target = bench::quick_mode() ? 600 : 16200;
    const std::size_t jobs = runner::hardware_jobs();
    const sys::SocSpec spec = sys::make_triangle_spec();
    const auto sweep = build_sweep(spec, target);

    bench::banner("Paper §5 determinism experiment (3 SBs, 6 FIFOs)");
    std::printf("perturbing %zu delay parameters to {50,75,100,150,200}%% "
                "(clocks clamped to >=75%%), %zu runs, first 100 local "
                "cycles per SB, %zu parallel job(s)\n",
                sys::DelayConfig::nominal(spec).dimensions(), sweep.size(),
                jobs);

    // --- synchro-tokens arm ---
    // Each perturbation elaborates its own Soc; the st::runner engine fans
    // the sweep out across hardware threads with a jobs-invariant result.
    verify::DeterminismHarness<sys::DelayConfig> st_harness(
        [&](const sys::DelayConfig& cfg, verify::RunCapture& cap) {
            sys::Soc soc(sys::apply(spec, cfg), &cap);
            soc.run_cycles(140, sim::ms(2));
        },
        sys::DelayConfig::nominal(spec), 100);
    const auto st_result = st_harness.sweep(sweep, jobs);

    // --- bypassed control arm (two-flop synchronizers, free clocks) ---
    const std::size_t control_runs =
        bench::quick_mode() ? 100 : std::min<std::size_t>(sweep.size(), 2000);
    verify::DeterminismHarness<sys::DelayConfig> ctl_harness(
        [&](const sys::DelayConfig& cfg, verify::RunCapture& cap) {
            baseline::BaselineSoc soc(sys::apply(spec, cfg),
                                      baseline::BaselineSoc::Kind::kTwoFlop,
                                      &cap);
            soc.run_cycles(140, sim::ms(2));
        },
        sys::DelayConfig::nominal(spec), 100);
    const auto ctl_result = ctl_harness.sweep(
        std::vector<sys::DelayConfig>(sweep.begin(),
                                      sweep.begin() + static_cast<std::ptrdiff_t>(control_runs)),
        jobs);

    std::printf("\n%-28s | %10s | %10s | %10s\n", "configuration", "runs",
                "match", "mismatch");
    std::printf("-----------------------------+------------+------------+-----------\n");
    std::printf("%-28s | %10llu | %10llu | %10llu\n", "synchro-tokens",
                static_cast<unsigned long long>(st_result.runs),
                static_cast<unsigned long long>(st_result.matches),
                static_cast<unsigned long long>(st_result.mismatches));
    std::printf("%-28s | %10llu | %10llu | %10llu\n",
                "bypassed (two-flop sync)",
                static_cast<unsigned long long>(ctl_result.runs),
                static_cast<unsigned long long>(ctl_result.matches),
                static_cast<unsigned long long>(ctl_result.mismatches));

    std::printf("\npaper: all >16,000 synchro-tokens runs matched exactly; "
                "bypassed logic was nondeterministic.\n");
    std::printf("ours : %s / control mismatch rate %.1f%%\n",
                st_result.all_match() ? "ALL MATCH" : "MISMATCHES PRESENT",
                100.0 * static_cast<double>(ctl_result.mismatches) /
                    static_cast<double>(ctl_result.runs ? ctl_result.runs : 1));
    if (!st_result.all_match()) {
        for (const auto& e : st_result.examples) {
            std::printf("  example: run %llu: %s\n",
                        static_cast<unsigned long long>(e.index),
                        e.locus.c_str());
        }
    }
}

void BM_OnePerturbationRun(benchmark::State& state) {
    const auto spec = sys::make_triangle_spec();
    auto cfg = sys::DelayConfig::nominal(spec);
    cfg.fifo_pct.assign(cfg.fifo_pct.size(), 150);
    for (auto _ : state) {
        sys::Soc soc(sys::apply(spec, cfg));
        soc.run_cycles(140, sim::ms(2));
        benchmark::DoNotOptimize(verify::fingerprint(soc.traces()));
    }
}
BENCHMARK(BM_OnePerturbationRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
