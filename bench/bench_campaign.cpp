// Parallel run-execution engine: wall-clock scaling of st_fuzz campaigns
// over st::runner jobs, with the engine's core guarantee checked on every
// row — the CampaignSummary must be bit-identical at every jobs value, at
// every shard split, and at every resume point (case draws are
// jobs-independent, reduction is case-index-ordered).
//
// Measurement discipline: every scaling row is warmup + repeated samples,
// reported as median with p95/stddev/CV in BENCH_campaign.json
// (docs/PERF.md), so future PRs can tell a real regression from sampling
// noise. Two campaign shapes bracket the engine's regimes: the 2-SB pair
// spec (case setup dominates) and a generated 64-SB mesh (simulation
// dominates). On a 1-core host the speedup is honestly ~1.0x; the
// determinism checks are what must hold everywhere.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/checkpoint.hpp"
#include "runner/runner.hpp"
#include "sva/spec_text.hpp"
#include "topo/topo.hpp"

namespace {

using namespace st;

struct ScalingRow {
    std::size_t jobs = 0;
    bench::SampleStats stats;  ///< per-campaign wall-clock seconds
    bool identical = true;     ///< summary == jobs=1 summary
};

/// Time `runs` cases at each jobs value with warmup + repeated samples.
/// Exits the process if any summary deviates from the jobs=1 baseline.
std::vector<ScalingRow> scale_campaign(const fuzz::Campaign& campaign,
                                       const std::string& name,
                                       std::uint64_t runs, std::uint64_t seed,
                                       const std::vector<std::size_t>& axis,
                                       std::size_t warmup,
                                       std::size_t samples,
                                       bench::JsonReport& report) {
    std::vector<ScalingRow> rows;
    fuzz::CampaignSummary baseline;
    double median1 = 0.0;
    std::printf("%6s | %9s | %9s | %9s | %6s | %8s | %s\n", "jobs",
                "median s", "p95 s", "runs/s", "cv", "speedup",
                "summary vs jobs=1");
    for (const std::size_t jobs : axis) {
        fuzz::CampaignSummary s;
        const auto xs = bench::measure_seconds(
            warmup, samples, [&] { s = campaign.run(runs, seed, {}, jobs); });
        ScalingRow row;
        row.jobs = jobs;
        row.stats = bench::compute_stats(xs);
        if (jobs == axis.front()) {
            baseline = s;
            median1 = row.stats.median;
        }
        row.identical = s == baseline;
        const double med = row.stats.median > 0 ? row.stats.median : 1e-9;
        std::printf("%6zu | %9.3f | %9.3f | %9.1f | %5.1f%% | %7.2fx | %s\n",
                    jobs, row.stats.median, row.stats.p95,
                    static_cast<double>(runs) / med, 100.0 * row.stats.cv,
                    median1 / med,
                    row.identical ? "bit-identical" : "DIVERGED");
        std::vector<double> rates;
        rates.reserve(xs.size());
        for (const double t : xs) {
            rates.push_back(static_cast<double>(runs) / (t > 0 ? t : 1e-9));
        }
        report.add_stats("campaign_" + name + "_runs_per_sec",
                         bench::compute_stats(rates), "runs/s", jobs);
        report.add("campaign_" + name + "_speedup_vs_jobs1", median1 / med,
                   "x", jobs);
        if (!row.identical) {
            std::fprintf(stderr,
                         "bench_campaign: %s summary diverged at jobs=%zu — "
                         "the engine's determinism contract is broken\n",
                         name.c_str(), jobs);
            std::exit(1);
        }
        rows.push_back(row);
    }
    return rows;
}

/// The cross-process half of the contract: shard summaries merge to the
/// single-process summary, and a checkpointed stop + resume reproduces the
/// uninterrupted summary. Both checked byte-for-byte; exits on divergence.
void check_shards_and_resume(const fuzz::Campaign& campaign,
                             const std::string& name, std::uint64_t runs,
                             std::uint64_t seed) {
    const fuzz::CampaignSummary whole = campaign.run(runs, seed, {}, 2);

    std::vector<fuzz::CampaignSummary> parts;
    for (std::uint64_t idx = 0; idx < 2; ++idx) {
        fuzz::CampaignControl ctl;
        ctl.shard = runner::Shard{idx, 2};
        parts.push_back(campaign.run(runs, seed, {}, 2, ctl));
    }
    const bool shards_ok = fuzz::merge_shards(parts) == whole;

    const std::string path = "bench_campaign_" + name + ".ckpt";
    fuzz::CampaignControl stop;
    stop.checkpoint_path = path;
    stop.stop_after = runs / 2;
    campaign.run(runs, seed, {}, 2, stop);
    fuzz::CampaignControl resume;
    resume.checkpoint_path = path;
    resume.resume = true;
    const bool resume_ok = campaign.run(runs, seed, {}, 4, resume) == whole;
    std::remove(path.c_str());

    std::printf("%s: 2-shard merge %s, mid-campaign resume %s\n",
                name.c_str(), shards_ok ? "bit-identical" : "DIVERGED",
                resume_ok ? "bit-identical" : "DIVERGED");
    if (!shards_ok || !resume_ok) {
        std::fprintf(stderr,
                     "bench_campaign: %s shard/resume summary diverged from "
                     "the single-process run\n",
                     name.c_str());
        std::exit(1);
    }
}

void run_experiment() {
    const bool quick = bench::quick_mode();
    const std::uint64_t seed = 1;
    const std::size_t warmup = 1;
    const std::size_t samples = quick ? 3 : 5;

    std::vector<std::size_t> jobs_axis = {1, 2, 4};
    const std::size_t hw = runner::hardware_jobs();
    if (hw > 4) jobs_axis.push_back(hw);

    bench::JsonReport report("BENCH_campaign.json");
    report.add("campaign_hardware_threads", static_cast<double>(hw),
               "threads", 1);

    // --- pair: tiny spec, per-case cost dominated by elaboration/setup ---
    const std::uint64_t pair_runs = quick ? 60 : 200;
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 100;
    const fuzz::Campaign pair(cfg);

    bench::banner("st::runner campaign scaling (pair, fault-free)");
    std::printf("hardware threads: %zu (ST_JOBS overrides); %zu sample(s) "
                "per row after %zu warmup\n",
                hw, samples, warmup);
    scale_campaign(pair, "pair", pair_runs, seed, jobs_axis, warmup, samples,
                   report);
    check_shards_and_resume(pair, "pair", pair_runs, seed);

    // --- mesh64: generated 64-SB mesh (topo::generate), per-case cost
    // dominated by simulation — the regime where parallel workers matter ---
    topo::Options topt;
    topt.shape = topo::Shape::kMesh;
    topt.sbs = 64;
    topt.seed = 7;
    fuzz::CampaignConfig mcfg;
    mcfg.spec_name = "mesh64";
    mcfg.cycles = 60;
    const fuzz::Campaign mesh(mcfg, sva::to_spec(topo::generate(topt)));
    const std::uint64_t mesh_runs = quick ? 8 : 24;

    bench::banner("st::runner campaign scaling (generated mesh-64)");
    scale_campaign(mesh, "mesh64", mesh_runs, seed, jobs_axis, warmup,
                   samples, report);
    check_shards_and_resume(mesh, "mesh64", mesh_runs, seed);

    // --- scaling proof at campaign scale (full mode only): 10^5 cases.
    // One sample — at this size the run IS its own statistics — recorded as
    // a plain row. The nightly CI leg raises this to 10^6.
    if (!quick) {
        bench::banner("100k-run scaling proof (pair)");
        const std::uint64_t big = 100'000;
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            fuzz::CampaignSummary s;
            const auto xs = bench::measure_seconds(
                0, 1, [&] { s = pair.run(big, seed, {}, jobs); });
            std::printf("jobs=%zu: %.1fs (%.0f runs/s)\n", jobs, xs[0],
                        static_cast<double>(big) / xs[0]);
            report.add("campaign_pair_100k_runs_per_sec",
                       static_cast<double>(big) / xs[0], "runs/s", jobs);
        }
    }

    // --- warm-up fast-forward: every case forks from one snapshot of a
    // shared nominal prefix instead of simulating it. ---
    bench::banner("campaign warm-up fast-forward (pair, warmup=60/100)");
    fuzz::CampaignConfig wcfg;
    wcfg.spec_name = "pair";
    wcfg.cycles = 100;
    wcfg.warmup_cycles = 60;
    const fuzz::Campaign warm(wcfg);
    const auto fork_stats = bench::compute_stats(bench::measure_seconds(
        warmup, samples, [&] { warm.run(pair_runs, seed, {}, 1); }));
    const double fork_med = fork_stats.median > 0 ? fork_stats.median : 1e-9;
    std::printf("%10s | %9s | %9s\n", "prefix", "median s", "runs/s");
    std::printf("%10s | %9.3f | %9.1f\n", "snap-fork", fork_stats.median,
                static_cast<double>(pair_runs) / fork_med);
    report.add("campaign_pair_warmup_fork_runs_per_sec",
               static_cast<double>(pair_runs) / fork_med, "runs/s", 1);
    report.write();
}

void BM_CampaignRunJobs(benchmark::State& state) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 100;
    const fuzz::Campaign campaign(cfg);
    const auto jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        const auto s = campaign.run(20, 7, {}, jobs);
        benchmark::DoNotOptimize(s.runs);
    }
}
BENCHMARK(BM_CampaignRunJobs)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
