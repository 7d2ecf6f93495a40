// Gang rewind microbench: the per-case reset cost of a persistent lane,
// strict full-image restore vs the shared-program plan path, across NoC
// sizes (64 / 256 / 1024 SBs, topo::generate meshes). Every row lands in
// BENCH_gang.json as a stats row (median/p95/stddev/CV over repeated
// samples) so docs/PERF.md and the CI scaling gate can tell a regression
// from noise.
//
// The equivalence contract is checked inline on every size: a lane rewound
// through the plan and run K cycles must reach the exact state digest of a
// lane rewound through the strict parse and run the same K cycles. A
// digest mismatch exits the process — the speedup is worthless if the
// trusted parse isn't bit-identical.
//
// Program sharing is measured too: one-time spec elaboration + pristine
// serialization (paid once per campaign) vs constructing a lane against
// the already-built gang::Program (paid once per worker).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gang/lane.hpp"
#include "gang/program.hpp"
#include "sva/spec_text.hpp"
#include "system/soc.hpp"
#include "topo/topo.hpp"

namespace {

using namespace st;

/// One benched size: a generated mesh with `sbs` switch-boxes.
void bench_size(std::size_t sbs, bench::JsonReport& report) {
    const bool quick = bench::quick_mode();
    const std::size_t warmup = 1;
    const std::size_t samples = quick ? 3 : 5;
    // Rewinds per timed sample: enough that one batch is well above timer
    // resolution at the small size without making the 1024-SB row crawl.
    const std::size_t reps = quick ? 4 : (sbs >= 1024 ? 8 : 24);
    const std::uint64_t cycles = 20;
    const sim::Time deadline = sim::ms(2000);
    const std::string tag = "sb" + std::to_string(sbs);

    topo::Options topt;
    topt.shape = topo::Shape::kMesh;
    topt.sbs = sbs;
    topt.seed = 7;
    const sys::SocSpec spec = sva::to_spec(topo::generate(topt));

    // One-time cost per program: elaborate the spec, start, serialize the
    // pristine image, build the plan.
    std::shared_ptr<const gang::Program> prog;
    const auto elab = bench::compute_stats(bench::measure_seconds(
        0, quick ? 1 : 3, [&] { prog = gang::Program::get(spec); }));
    report.add("gang_program_elaborate_" + tag, elab.median * 1e3, "ms", 1);
    report.add("gang_program_image_bytes_" + tag,
               static_cast<double>(prog->pristine().bytes().size()), "bytes",
               1);

    // Shared program: what each worker's lane actually pays.
    const auto ctor = bench::compute_stats(
        bench::measure_seconds(warmup, samples, [&] {
            gang::Lane lane(prog, {});
            benchmark::DoNotOptimize(&lane.soc());
        }));
    report.add("gang_lane_ctor_shared_" + tag, ctor.median * 1e3, "ms", 1);

    gang::Lane lane(prog, {});

    // Equivalence first: strict-rewound and plan-rewound continuations must
    // land on the same digest after the same run.
    const auto digest_after = [&](bool use_plan) {
        if (use_plan) {
            lane.rewind();
        } else {
            lane.soc().reset_from_image(prog->pristine());
        }
        lane.soc().run_cycles(cycles, deadline);
        lane.soc().settle();
        return lane.soc().save_snapshot().digest();
    };
    const std::uint64_t strict_digest = digest_after(false);
    const std::uint64_t plan_digest = digest_after(true);
    const bool identical = strict_digest == plan_digest;
    std::printf("%s: plan-rewound continuation %s strict baseline\n",
                tag.c_str(),
                identical ? "bit-identical to" : "DIVERGED from");
    if (!identical) {
        std::fprintf(stderr,
                     "bench_gang: %s plan rewind diverged from the strict "
                     "restore — the trusted parse is not equivalent\n",
                     tag.c_str());
        std::exit(1);
    }

    // Dirty the lane once so every timed rewind undoes real work, then time
    // batches of rewinds. After the first rewind each iteration restores
    // the same pristine state, so per-rewind work is steady within a batch.
    lane.soc().run_cycles(cycles, deadline);
    const auto time_rewind = [&](bool use_plan) {
        const auto xs = bench::measure_seconds(warmup, samples, [&] {
            for (std::size_t i = 0; i < reps; ++i) {
                if (use_plan) {
                    lane.rewind();
                } else {
                    lane.soc().reset_from_image(prog->pristine());
                }
            }
        });
        std::vector<double> per_us;
        per_us.reserve(xs.size());
        for (const double t : xs) {
            per_us.push_back(t * 1e6 / static_cast<double>(reps));
        }
        return bench::compute_stats(per_us);
    };
    const auto full = time_rewind(false);
    const auto delta = time_rewind(true);
    const double full_med = full.median > 0 ? full.median : 1e-9;
    const double delta_med = delta.median > 0 ? delta.median : 1e-9;
    report.add_stats("gang_rewind_full_" + tag, full, "us", 1);
    report.add_stats("gang_rewind_delta_" + tag, delta, "us", 1);
    report.add("gang_rewind_speedup_" + tag, full_med / delta_med, "x", 1);
    std::printf(
        "%-7s | %10.1f us full | %10.1f us plan | %6.2fx | cv %4.1f%%\n",
        tag.c_str(), full.median, delta.median, full_med / delta_med,
        100.0 * delta.cv);
}

void run_experiment() {
    bench::banner("gang per-case rewind: strict full restore vs plan path");
    bench::JsonReport report("BENCH_gang.json");
    for (const std::size_t sbs : {64, 256, 1024}) {
        bench_size(sbs, report);
    }
    report.write();
}

void BM_LaneRewind(benchmark::State& state) {
    topo::Options topt;
    topt.shape = topo::Shape::kMesh;
    topt.sbs = static_cast<std::size_t>(state.range(0));
    topt.seed = 7;
    gang::Lane lane(gang::Program::get(sva::to_spec(topo::generate(topt))),
                    {});
    lane.soc().run_cycles(20, sim::ms(2000));
    for (auto _ : state) {
        lane.rewind();
        benchmark::DoNotOptimize(lane.soc().scheduler());
    }
}
BENCHMARK(BM_LaneRewind)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
