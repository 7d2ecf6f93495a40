// sva static-verifier wall-clock: lower + all five proof-obligation passes
// (no witness cross-check — shipped and generated specs are PROVEN, so the
// dynamic tier never runs on them anyway) over the shipped testbenches and
// the generated ring-of-rings stress geometries.
//
// The interesting scaling axis is station count: the deadlock fixpoint is
// the dominant pass and runs Bellman-Ford-style rounds bounded by |stations|
// (multi-ring buses contribute M*(M-1) stations each), so the 256-SB
// geometry exercises ~4k stations. The acceptance bound for the full
// `st_lint --verify` tier on the 256-SB spec is 10 s single-threaded;
// numbers land in BENCH_sva.json (docs/PERF.md).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "sva/graph.hpp"
#include "sva/spec_text.hpp"
#include "sva/verify.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"

namespace {

using namespace st;

sys::SocSpec ring_of_rings(std::size_t n) {
    topo::RingOfRingsOptions opt;
    opt.clusters = n;
    opt.members = n;
    return sva::to_spec(topo::make_ring_of_rings(opt));
}

double timed_verify(const sys::SocSpec& spec, std::size_t jobs,
                    std::size_t reps) {
    sva::VerifyOptions opt;
    opt.cross_check = false;  // static tier only; nothing to replay anyway
    opt.jobs = jobs;
    double best = 1e9;
    for (std::size_t r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto vr = sva::verify(spec, opt);
        const auto t1 = std::chrono::steady_clock::now();
        if (!vr.clean()) {
            std::fprintf(stderr, "bench_sva: spec not proven: %s\n",
                         vr.summary().c_str());
            std::exit(1);
        }
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (s < best) best = s;
    }
    return best;
}

void run_experiment() {
    const std::size_t reps = bench::quick_mode() ? 5 : 20;
    bench::JsonReport report("BENCH_sva.json");

    bench::banner("sva static verifier — lower + 5 passes, proven specs");
    std::printf("%18s | %9s | %9s | %10s\n", "spec", "stations",
                "jobs", "seconds");
    const auto row = [&](const char* name, const sys::SocSpec& spec,
                         std::size_t jobs) {
        const auto g = sva::lower(spec);
        const double s = timed_verify(spec, jobs, reps);
        std::printf("%18s | %9zu | %9zu | %10.6f\n", name,
                    g.stall.stations.size(), jobs, s);
        report.add(std::string("verify_") + name + "_j" +
                       std::to_string(jobs),
                   s * 1e3, "ms", jobs);
    };

    for (const auto& name : sys::named_specs()) {
        row(name.c_str(), sys::make_named_spec(name), 1);
    }
    const auto r64 = ring_of_rings(8);
    const auto r256 = ring_of_rings(16);
    row("ring_of_rings_64", r64, 1);
    row("ring_of_rings_256", r256, 1);
    // Pass-level fan-out: 5 independent passes, so parallel speedup tops
    // out at the slowest pass (the deadlock fixpoint). Report jobs=2/4 for
    // the scaling record in docs/PERF.md.
    row("ring_of_rings_256", r256, 2);
    row("ring_of_rings_256", r256, 4);

    report.write();
}

void BM_Verify256(benchmark::State& state) {
    const auto spec = ring_of_rings(16);
    sva::VerifyOptions opt;
    opt.cross_check = false;
    opt.jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sva::verify(spec, opt));
    }
}
BENCHMARK(BM_Verify256)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
