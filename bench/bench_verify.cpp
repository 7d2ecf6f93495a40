// Streaming golden-trace verification: wall-clock of the online
// StreamingChecker pipeline (rolling per-SB digests, cooperative early exit,
// arena-backed capture).
//
// Three workload mixes, matching how the pipeline is used:
//  - deterministic-heavy: the paper's §5 sweep on the synchro-tokens
//    triangle — every run matches and ends with an O(#SBs) verdict over an
//    allocation-free capture;
//  - window stop: the same sweep with a runner that over-runs the 100-cycle
//    window to 140 cycles (as bench_determinism does), so the early exit
//    ends every run once all SBs have left the window; timed against the
//    same checker with early exit off;
//  - divergent-heavy: the two-flop-synchronizer baseline on a plesiochronous
//    pair — most runs diverge within a few cycles, so the early exit skips
//    almost the whole remaining simulation; timed against the same checker
//    with early exit off.
//
// The last two mixes re-check the early-exit contract — early-exit and
// full-run SweepResults bit-identical (verdicts, counts, retained example
// loci) — and the bench exits non-zero if it ever breaks. Numbers land in
// BENCH_verify.json (docs/PERF.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "baselines/baseline_soc.hpp"
#include "bench_util.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/determinism.hpp"

namespace {

using namespace st;

using Harness = verify::DeterminismHarness<sys::DelayConfig>;

std::vector<sys::DelayConfig> grid(const sys::SocSpec& spec,
                                   std::size_t target_runs) {
    std::vector<sys::DelayConfig> out;
    const auto nominal = sys::DelayConfig::nominal(spec);
    out.push_back(nominal);
    while (out.size() < target_runs) {
        for (std::size_t dim = 0;
             dim < nominal.dimensions() && out.size() < target_runs; ++dim) {
            for (unsigned pct : {50u, 75u, 150u, 200u}) {
                if (out.size() >= target_runs) break;
                auto cfg = nominal;
                cfg.set(dim, pct);
                out.push_back(cfg);
            }
        }
    }
    return out;
}

double timed_sweep(Harness& h, const std::vector<sys::DelayConfig>& ps,
                   verify::SweepResult& out) {
    const auto t0 = std::chrono::steady_clock::now();
    out = h.sweep(ps);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

void require_identical(const verify::SweepResult& a,
                       const verify::SweepResult& b, const char* what) {
    if (a == b) return;
    std::fprintf(stderr,
                 "bench_verify: %s sweep diverged from the early-exit result "
                 "— early exit changed a verdict\n",
                 what);
    std::exit(1);
}

double rate(std::size_t runs, double secs) {
    return static_cast<double>(runs) / (secs > 0 ? secs : 1e-9);
}

/// The §5 sweep's runner: elaborate the perturbed triangle, run `horizon`
/// cycles.
Harness::LiveRunner triangle_runner(const sys::SocSpec& spec,
                                    std::uint64_t horizon) {
    return [&spec, horizon](const sys::DelayConfig& cfg,
                            verify::RunCapture& cap) {
        sys::Soc soc(sys::apply(spec, cfg), &cap);
        soc.run_cycles(horizon, sim::ms(1));
    };
}

void run_experiment() {
    const std::size_t runs = bench::quick_mode() ? 48 : 240;
    bench::JsonReport report("BENCH_verify.json");

    // ---- deterministic-heavy: synchro-tokens triangle, all runs match ----
    bench::banner("streaming verification — deterministic-heavy (triangle)");
    {
        const auto spec = sys::make_named_spec("triangle");
        const auto ps = grid(spec, runs);
        Harness stream{triangle_runner(spec, 100),
                       sys::DelayConfig::nominal(spec), 100};

        verify::SweepResult rs;
        const double ts = timed_sweep(stream, ps, rs);
        if (!rs.all_match()) {
            std::fprintf(stderr,
                         "bench_verify: triangle sweep found mismatches — "
                         "determinism regression\n");
            std::exit(1);
        }
        std::printf("%10s | %9s | %9s\n", "mode", "seconds", "runs/s");
        std::printf("%10s | %9.3f | %9.1f\n", "streaming", ts,
                    rate(ps.size(), ts));
        report.add("verify_stream_runs_per_sec", rate(ps.size(), ts),
                   "runs/s", 1);
    }

    // ---- window stop: triangle runner over-runs the 100-cycle window ----
    bench::banner("streaming verification — window stop (triangle, 140-cycle "
                  "runner, 100-cycle window)");
    {
        const auto spec = sys::make_named_spec("triangle");
        const auto ps = grid(spec, runs);
        const auto nominal = sys::DelayConfig::nominal(spec);
        Harness early{triangle_runner(spec, 140), nominal, 100};
        Harness full{triangle_runner(spec, 140), nominal, 100};
        full.set_early_exit(false);
        early.capture_nominal();
        full.capture_nominal();

        // One sweep pair lasts ~0.1 s, shorter than the slow and fast
        // phases of a shared host, so alternate five pairs and keep the
        // median ratio.
        std::vector<double> te, tf, speedups;
        for (int rep = 0; rep < 5; ++rep) {
            verify::SweepResult re, rf;
            te.push_back(timed_sweep(early, ps, re));
            tf.push_back(timed_sweep(full, ps, rf));
            require_identical(re, rf, "window full-run");
            if (!re.all_match()) {
                std::fprintf(stderr,
                             "bench_verify: over-running triangle sweep found "
                             "mismatches — determinism regression\n");
                std::exit(1);
            }
            speedups.push_back(tf.back() / (te.back() > 0 ? te.back() : 1e-9));
        }
        const auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v[v.size() / 2];
        };
        const double speedup = median(speedups);
        std::printf("%12s | %9s | %9s | %s\n", "mode", "seconds", "runs/s",
                    "result vs early-exit");
        std::printf("%12s | %9.3f | %9.1f | (baseline)\n", "early-exit",
                    median(te), rate(ps.size(), median(te)));
        std::printf("%12s | %9.3f | %9.1f | bit-identical\n", "full-run",
                    median(tf), rate(ps.size(), median(tf)));
        std::printf("window-stop speedup vs full run: %.2fx (median of %zu "
                    "alternating pairs)\n",
                    speedup, speedups.size());
        report.add("verify_window_exit_speedup", speedup, "x", 1);
    }

    // ---- divergent-heavy: two-flop baseline, early exit dominates ----
    bench::banner(
        "streaming verification — divergent-heavy (two-flop baseline)");
    {
        sys::PairOptions opt;
        opt.period_b = 1009;  // plesiochronous: the baseline diverges early
        const auto spec = sys::make_pair_spec(opt);
        const auto live = [&spec](const sys::DelayConfig& cfg,
                                  verify::RunCapture& cap) {
            baseline::BaselineSoc soc(sys::apply(spec, cfg),
                                      baseline::BaselineSoc::Kind::kTwoFlop,
                                      &cap);
            soc.run_cycles(150, sim::ms(1));
        };
        const auto ps = grid(spec, runs);
        const auto nominal = sys::DelayConfig::nominal(spec);

        Harness early{Harness::LiveRunner(live), nominal, 100};
        Harness full{Harness::LiveRunner(live), nominal, 100};
        full.set_early_exit(false);

        verify::SweepResult re, rf;
        const double te = timed_sweep(early, ps, re);
        const double tf = timed_sweep(full, ps, rf);
        require_identical(re, rf, "full-run");
        if (re.mismatches == 0) {
            std::fprintf(stderr,
                         "bench_verify: divergent-heavy mix produced no "
                         "mismatches — the workload is mislabelled\n");
            std::exit(1);
        }
        const double speedup = tf / (te > 0 ? te : 1e-9);
        std::printf("divergent runs: %llu / %llu\n",
                    static_cast<unsigned long long>(re.mismatches),
                    static_cast<unsigned long long>(re.runs));
        std::printf("%12s | %9s | %9s | %s\n", "mode", "seconds", "runs/s",
                    "result vs early-exit");
        std::printf("%12s | %9.3f | %9.1f | (baseline)\n", "early-exit", te,
                    rate(ps.size(), te));
        std::printf("%12s | %9.3f | %9.1f | bit-identical\n", "full-run", tf,
                    rate(ps.size(), tf));
        std::printf("early-exit speedup vs full run: %.2fx\n", speedup);
        report.add("verify_stream_div_runs_per_sec", rate(ps.size(), te),
                   "runs/s", 1);
        report.add("verify_early_exit_speedup", speedup, "x", 1);
    }

    report.write();
}

void BM_SweepTriangle(benchmark::State& state) {
    const auto spec = sys::make_named_spec("triangle");
    Harness h{triangle_runner(spec, 100), sys::DelayConfig::nominal(spec),
              100};
    const auto ps = grid(spec, 8);
    h.capture_nominal();
    for (auto _ : state) {
        const auto r = h.sweep(ps);
        benchmark::DoNotOptimize(r.runs);
    }
}
BENCHMARK(BM_SweepTriangle)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
