// Scheduler hot-path microbench: raw event throughput of the deterministic
// discrete-event kernel, the multiplier under every workload in the repo
// (every fuzz case, determinism sweep and bench run is millions of
// schedule/dispatch pairs).
//
// The kernel — slab-pooled event records holding their small-buffer
// callbacks, linked into a (time, priority, seq)-ordered timing wheel — is
// measured on synthetic queues and on two real SoCs; the numbers land in
// BENCH_scheduler.json (docs/PERF.md "The kernel hot path").

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "sim/scheduler.hpp"
#include "sva/spec_text.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"

namespace {

using namespace st;

/// Self-rescheduling event chain: the pure schedule+dispatch cycle with a
/// minimal capture ([&sched, &left] — two pointers), queue depth 1. This is
/// the upper bound on kernel event rate.
double chain_events_per_sec(std::uint64_t n_events) {
    sim::Scheduler sched;
    std::uint64_t left = n_events;
    const auto t0 = std::chrono::steady_clock::now();
    struct Hop {
        sim::Scheduler* s;
        std::uint64_t* left;
        void operator()() const {
            if (--*left > 0) s->schedule_after(1, Hop{s, left});
        }
    };
    sched.schedule_after(1, Hop{&sched, &left});
    sched.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(n_events) / (secs > 0 ? secs : 1e-9);
}

/// Wide queue: `width` interleaved periodic event streams keep the heap at
/// depth `width`, exercising sift costs and pool reuse across a deep queue.
double wide_events_per_sec(std::size_t width, std::uint64_t rounds) {
    sim::Scheduler sched;
    std::uint64_t fired = 0;
    struct Tick {
        sim::Scheduler* s;
        std::uint64_t* fired;
        std::uint64_t left;
        void operator()() {
            ++*fired;
            if (left > 0) s->schedule_after(10, Tick{s, fired, left - 1});
        }
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < width; ++i) {
        sched.schedule_after(1 + i, Tick{&sched, &fired, rounds});
    }
    sched.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(fired) / (secs > 0 ? secs : 1e-9);
}

struct SocRate {
    double events_per_sec = 0;     ///< kernel throughput
    double sb_cycles_per_sec = 0;  ///< simulation throughput
};

/// End-to-end: one real SoC run, as events/s and as SB-cycles/s. The
/// second is the number every sweep workload actually multiplies; events/s
/// falls when two events merge into one heavier event even as the run gets
/// faster.
SocRate soc_rate(const sys::SocSpec& spec, std::uint64_t cycles) {
    sys::Soc soc(spec);
    const auto t0 = std::chrono::steady_clock::now();
    soc.run_cycles(cycles, sim::ms(60));
    const auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs <= 0) secs = 1e-9;
    std::uint64_t sb_cycles = 0;
    for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
        sb_cycles += soc.wrapper(i).clock().cycles();
    }
    return {static_cast<double>(soc.scheduler().events_executed()) / secs,
            static_cast<double>(sb_cycles) / secs};
}

void run_experiment() {
    const std::uint64_t chain_n = bench::quick_mode() ? 200'000 : 2'000'000;
    const std::uint64_t rounds = bench::quick_mode() ? 2'000 : 20'000;
    const std::uint64_t cycles = bench::quick_mode() ? 2'000 : 20'000;
    const std::uint64_t mesh_cycles = cycles / 4;

    bench::banner("Scheduler kernel event throughput");
    const double chain = chain_events_per_sec(chain_n);
    const double wide64 = wide_events_per_sec(64, rounds);
    const double wide1k = wide_events_per_sec(1024, rounds / 10);
    const SocRate soc = soc_rate(sys::make_pair_spec(), cycles);
    // The deep-queue shape: the generated mesh-64 the repo benchmark sweeps.
    const SocRate mesh64 = soc_rate(
        sva::to_spec(topo::generate(topo::Options{.seed = 7})), mesh_cycles);
    std::printf("%-32s | %12.0f events/s\n", "self-rescheduling chain", chain);
    std::printf("%-32s | %12.0f events/s\n", "64-wide periodic queue", wide64);
    std::printf("%-32s | %12.0f events/s\n", "1024-wide periodic queue",
                wide1k);
    std::printf("%-32s | %12.0f events/s | %10.0f SB-cycles/s\n",
                "pair SoC end-to-end", soc.events_per_sec,
                soc.sb_cycles_per_sec);
    std::printf("%-32s | %12.0f events/s | %10.0f SB-cycles/s\n",
                "mesh-64 SoC end-to-end", mesh64.events_per_sec,
                mesh64.sb_cycles_per_sec);

    bench::JsonReport report("BENCH_scheduler.json");
    report.add("scheduler_chain", chain, "events/s", 1);
    report.add("scheduler_wide64", wide64, "events/s", 1);
    report.add("scheduler_wide1024", wide1k, "events/s", 1);
    report.add("scheduler_soc_pair", soc.events_per_sec, "events/s", 1);
    report.add("scheduler_soc_mesh64", mesh64.events_per_sec, "events/s", 1);
    report.add("scheduler_soc_pair_cycles", soc.sb_cycles_per_sec,
               "SB-cycles/s", 1);
    report.add("scheduler_soc_mesh64_cycles", mesh64.sb_cycles_per_sec,
               "SB-cycles/s", 1);
    report.write();
}

void BM_ScheduleDispatchChain(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain_events_per_sec(100'000));
    }
}
BENCHMARK(BM_ScheduleDispatchChain)->Unit(benchmark::kMillisecond);

void BM_WideQueue(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            wide_events_per_sec(static_cast<std::size_t>(state.range(0)),
                                1'000));
    }
}
BENCHMARK(BM_WideQueue)->Arg(64)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
