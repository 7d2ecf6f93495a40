// Paper future work: "the implementation of a larger system for further
// performance studies". This bench scales the methodology up — pipelines to
// 16 stages, meshes to 4x4 (16 clock domains, 24 rings, 48 channels) — and
// reports simulation speed, traffic, stall behaviour and rule-check status,
// plus a determinism spot-check per topology.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "deadlock/stall.hpp"
#include "runner/runner.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/determinism.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace st;

struct Row {
    std::string name;
    sys::SocSpec spec;
};

void run_experiment() {
    std::vector<Row> rows;
    for (const std::size_t len : {4u, 8u, 16u}) {
        sys::ChainOptions opt;
        opt.length = len;
        rows.push_back({"chain-" + std::to_string(len),
                        sys::make_chain_spec(opt)});
    }
    for (const std::size_t n : {4u, 8u}) {
        sys::BusOptions opt;
        opt.size = n;
        rows.push_back({"bus-" + std::to_string(n), sys::make_bus_spec(opt)});
    }
    for (const std::size_t dim : {2u, 3u, 4u}) {
        sys::MeshOptions opt;
        opt.width = dim;
        opt.height = dim;
        rows.push_back({"mesh-" + std::to_string(dim) + "x" +
                            std::to_string(dim),
                        sys::make_mesh_spec(opt)});
    }

    bench::banner("Scaling study (paper future work: larger systems)");

    // Phase 1 (serial): timed runs. Wall-clock events/s numbers must not
    // contend with each other, so these stay on one thread.
    struct Measured {
        bool rules_ok = false;
        std::uint64_t events = 0;
        double events_per_sec = 0.0;
        std::uint64_t stops = 0;
    };
    std::vector<Measured> measured(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        auto& row = rows[i];
        auto& m = measured[i];
        m.rules_ok =
            dl::solve_stalls(dl::build_stall_model(row.spec)).converged;
        const auto t0 = std::chrono::steady_clock::now();
        sys::Soc soc(row.spec);
        soc.run_cycles(400, sim::ms(20));
        const auto t1 = std::chrono::steady_clock::now();
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        for (std::size_t s = 0; s < soc.num_sbs(); ++s) {
            m.stops += soc.wrapper(s).clock().stop_events();
        }
        m.events = soc.scheduler().events_executed();
        m.events_per_sec =
            static_cast<double>(m.events) / (secs > 0 ? secs : 1e-9);
    }

    // Phase 2 (parallel): determinism spot-checks — one aggressive joint
    // perturbation per topology, two full simulations each. Independent runs,
    // fanned out across topologies on the st::runner engine.
    const std::size_t jobs = runner::hardware_jobs();
    std::vector<verify::TraceDiff> diffs(rows.size());
    runner::sweep(
        rows.size(), jobs,
        [&](std::size_t i) {
            const auto& spec = rows[i].spec;
            verify::DeterminismHarness<sys::DelayConfig> harness(
                [&spec](const sys::DelayConfig& cfg, verify::RunCapture& cap) {
                    sys::Soc s(sys::apply(spec, cfg), &cap);
                    s.run_cycles(140, sim::ms(20));
                },
                sys::DelayConfig::nominal(spec), 100);
            auto cfg = sys::DelayConfig::nominal(spec);
            for (std::size_t d = 0;
                 d < cfg.dimensions() - cfg.clock_pct.size(); ++d) {
                cfg.set(d, d % 2 ? 200 : 50);
            }
            return harness.check(cfg);
        },
        [&](std::size_t i, verify::TraceDiff&& d) { diffs[i] = std::move(d); });

    std::printf("spot-checks fanned out over %zu job(s)\n", jobs);
    std::printf("%-10s | %4s %5s %5s | %8s | %9s | %7s | %6s | %s\n",
                "system", "SBs", "rings", "chans", "events", "events/s",
                "stops", "rules", "determinism spot-check");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& row = rows[i];
        const auto& m = measured[i];
        std::printf("%-10s | %4zu %5zu %5zu | %8llu | %9.0f | %7llu | %6s | %s\n",
                    row.name.c_str(), row.spec.sbs.size(),
                    row.spec.rings.size(), row.spec.channels.size(),
                    static_cast<unsigned long long>(m.events),
                    m.events_per_sec,
                    static_cast<unsigned long long>(m.stops),
                    m.rules_ok ? "safe" : "RISK",
                    diffs[i].identical ? "match" : "MISMATCH");
    }
}

void BM_Mesh4x4Run(benchmark::State& state) {
    sys::MeshOptions opt;
    opt.width = 4;
    opt.height = 4;
    const auto spec = sys::make_mesh_spec(opt);
    for (auto _ : state) {
        sys::Soc soc(spec);
        soc.run_cycles(100, sim::ms(20));
        benchmark::DoNotOptimize(soc.scheduler().events_executed());
    }
}
BENCHMARK(BM_Mesh4x4Run)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
