// Unit tests for the st::runner parallel sweep engine and its determinism
// contract — the reduction runs on the calling thread in strictly increasing
// case index order, so any aggregate built through it is bit-identical at
// every jobs value. The heavyweight consumers (fuzz campaigns, determinism
// sweeps, the methodology matrix) are each checked jobs=1 vs jobs=N here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "fuzz/campaign.hpp"
#include "runner/runner.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "verify/trace_arena.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/determinism.hpp"

namespace {

using namespace st;

// --- core engine ---

TEST(Runner, ResolveJobs) {
    EXPECT_EQ(runner::resolve_jobs(1), 1u);
    EXPECT_EQ(runner::resolve_jobs(3), 3u);
    EXPECT_EQ(runner::resolve_jobs(0), runner::hardware_jobs());
    EXPECT_GE(runner::hardware_jobs(), 1u);
}

TEST(Runner, ReducesInIndexOrderAtEveryJobsValue) {
    for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
        std::vector<std::size_t> order;
        runner::sweep(
            64, jobs, [](std::size_t i) { return i * i; },
            [&](std::size_t i, std::size_t&& sq) {
                EXPECT_EQ(sq, i * i);
                order.push_back(i);
            });
        ASSERT_EQ(order.size(), 64u) << "jobs=" << jobs;
        for (std::size_t i = 0; i < order.size(); ++i) {
            EXPECT_EQ(order[i], i) << "jobs=" << jobs;
        }
    }
}

TEST(Runner, SerialAndParallelAggregatesIdentical) {
    const auto run = [](std::size_t jobs) {
        std::uint64_t acc = 0;
        runner::sweep(
            100, jobs, [](std::size_t i) { return (i * 2654435761u) % 1000; },
            // Order-sensitive on purpose: a reduction that mixes indices
            // out of order produces a different value.
            [&](std::size_t i, std::uint64_t&& v) { acc = acc * 31 + v + i; });
        return acc;
    };
    const std::uint64_t serial = run(1);
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
}

TEST(Runner, ReductionRunsOnCallingThread) {
    const auto caller = std::this_thread::get_id();
    runner::sweep(
        16, 4, [](std::size_t i) { return i; },
        [&](std::size_t, std::size_t&&) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
        });
}

TEST(Runner, SupportsMoveOnlyResults) {
    std::size_t sum = 0;
    runner::sweep(
        8, 4, [](std::size_t i) { return std::make_unique<std::size_t>(i); },
        [&](std::size_t, std::unique_ptr<std::size_t>&& p) { sum += *p; });
    EXPECT_EQ(sum, 28u);
}

TEST(Runner, EmptySweepInvokesNothing) {
    bool touched = false;
    runner::sweep(
        0, 4,
        [&](std::size_t) {
            touched = true;
            return 0;
        },
        [&](std::size_t, int&&) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(Runner, WorkExceptionPropagatesToCaller) {
    EXPECT_THROW(
        runner::sweep(
            32, 4,
            [](std::size_t i) {
                if (i == 17) throw std::runtime_error("boom at 17");
                return i;
            },
            [](std::size_t, std::size_t&&) {}),
        std::runtime_error);
}

TEST(Runner, ForEachVisitsEveryIndexExactlyOnce) {
    std::vector<std::atomic<int>> counts(10);
    runner::for_each(10, 4,
                     [&](std::size_t i) { counts[i].fetch_add(1); });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Runner, PinnedTuningStillReducesInOrder) {
    // A tiny window forces the backpressure path: workers must park on
    // cv_space until the reducer frees slots, and the sweep must still
    // complete with an in-order reduction.
    for (const auto& [chunk, window] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1}, {1, 3}, {3, 3}, {5, 7}, {64, 64}}) {
        runner::Tuning tuning;
        tuning.chunk = chunk;
        tuning.window = window;
        std::vector<std::size_t> order;
        runner::sweep(
            97, 4, [](std::size_t i) { return i + 1; },
            [&](std::size_t i, std::size_t&& v) {
                EXPECT_EQ(v, i + 1);
                order.push_back(i);
            },
            tuning);
        ASSERT_EQ(order.size(), 97u) << "chunk=" << chunk;
        for (std::size_t i = 0; i < order.size(); ++i) {
            ASSERT_EQ(order[i], i) << "chunk=" << chunk;
        }
    }
}

TEST(Runner, ContextsAreReusedAcrossCases) {
    // Each worker gets exactly one context for the whole sweep; the
    // per-case work must never construct a new one.
    std::atomic<int> ctx_built{0};
    struct Ctx {
        std::atomic<int>* built;
        std::size_t cases = 0;
        explicit Ctx(std::atomic<int>* b) : built(b) { b->fetch_add(1); }
        Ctx(const Ctx&) = delete;
        Ctx& operator=(const Ctx&) = delete;
    };
    std::size_t total = 0;
    runner::sweep_ctx(
        200, 4, [&] { return Ctx(&ctx_built); },
        [](Ctx& ctx, std::size_t i) {
            ++ctx.cases;
            return i;
        },
        [&](std::size_t, std::size_t&&) { ++total; });
    EXPECT_EQ(total, 200u);
    EXPECT_LE(ctx_built.load(), 4);
    EXPECT_GE(ctx_built.load(), 1);
}

TEST(Runner, MakeCtxFailurePropagates) {
    EXPECT_THROW(
        runner::sweep_ctx(
            50, 4,
            []() -> int { throw std::runtime_error("no context"); },
            [](int&, std::size_t i) { return i; },
            [](std::size_t, std::size_t&&) {}),
        std::runtime_error);
}

TEST(Runner, WorkExceptionMidChunkPropagates) {
    runner::Tuning tuning;
    tuning.chunk = 8;
    EXPECT_THROW(
        runner::sweep(
            64, 3,
            [](std::size_t i) {
                if (i == 29) throw std::logic_error("mid-chunk");
                return i;
            },
            [](std::size_t, std::size_t&&) {}, tuning),
        std::logic_error);
}

// --- shards ---

TEST(RunnerShard, SelectionPartitionsIndices) {
    const std::uint64_t n = 103;
    for (const std::uint64_t count : {1u, 2u, 3u, 7u}) {
        std::uint64_t covered = 0;
        for (std::uint64_t idx = 0; idx < count; ++idx) {
            const runner::Shard s{idx, count};
            std::uint64_t mine = 0;
            for (std::uint64_t g = 0; g < n; ++g) mine += s.selects(g);
            EXPECT_EQ(mine, s.size_of(n)) << idx << "/" << count;
            covered += mine;
        }
        EXPECT_EQ(covered, n) << "count=" << count;
    }
}

TEST(RunnerShard, ParseShardAcceptsAndRejects) {
    const auto ok = runner::parse_shard("2/5");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->index, 2u);
    EXPECT_EQ(ok->count, 5u);
    EXPECT_FALSE(ok->is_full());
    EXPECT_TRUE((runner::Shard{0, 1}).is_full());
    for (const char* bad : {"", "/", "3", "3/", "/4", "5/5", "6/4", "a/b",
                            "1/2x", "-1/2"}) {
        EXPECT_FALSE(runner::parse_shard(bad).has_value()) << bad;
    }
}

// --- fuzz campaign: summary and callback stream are jobs-invariant ---

fuzz::CampaignConfig pair_config() {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 100;
    return cfg;
}

TEST(RunnerCampaign, FaultFreeSummaryBitIdenticalAcrossJobs) {
    const fuzz::Campaign campaign(pair_config());
    const fuzz::CampaignSummary s1 = campaign.run(16, 11, {}, 1);
    const fuzz::CampaignSummary s8 = campaign.run(16, 11, {}, 8);
    EXPECT_EQ(s1.runs, 16u);
    EXPECT_TRUE(s1 == s8);
}

TEST(RunnerCampaign, FaultySummaryBitIdenticalAcrossJobs) {
    fuzz::CampaignConfig cfg = pair_config();
    cfg.classes = {fuzz::FaultClass::kTokenDropWire};
    const fuzz::Campaign campaign(cfg);
    const fuzz::CampaignSummary s1 = campaign.run(12, 7, {}, 1);
    const fuzz::CampaignSummary s8 = campaign.run(12, 7, {}, 8);
    EXPECT_EQ(s1.runs, 12u);
    EXPECT_TRUE(s1 == s8);
    // The retained failing cases must be the same cases in the same order.
    ASSERT_EQ(s1.failures.size(), s8.failures.size());
    for (std::size_t i = 0; i < s1.failures.size(); ++i) {
        EXPECT_EQ(s1.failures[i].index, s8.failures[i].index);
        EXPECT_TRUE(s1.failures[i].c == s8.failures[i].c);
        EXPECT_TRUE(s1.failures[i].report == s8.failures[i].report);
    }
}

TEST(RunnerCampaign, OnRunCallbackStreamIsJobsInvariant) {
    const fuzz::Campaign campaign(pair_config());
    const auto collect = [&](std::size_t jobs) {
        std::vector<std::pair<std::size_t, fuzz::RunReport>> events;
        campaign.run(
            10, 3,
            [&](std::size_t i, const fuzz::FuzzCase&,
                const fuzz::RunReport& r) { events.emplace_back(i, r); },
            jobs);
        return events;
    };
    const auto e1 = collect(1);
    const auto e4 = collect(4);
    ASSERT_EQ(e1.size(), 10u);
    ASSERT_EQ(e1.size(), e4.size());
    for (std::size_t i = 0; i < e1.size(); ++i) {
        EXPECT_EQ(e1[i].first, i);
        EXPECT_EQ(e4[i].first, i);
        EXPECT_TRUE(e1[i].second == e4[i].second);
    }
}

// --- determinism sweeps: SweepResult is jobs-invariant ---

TEST(RunnerSweep, DeterminismSweepResultJobsInvariant) {
    const sys::SocSpec spec = sys::make_pair_spec();
    const auto run = [&spec](const sys::DelayConfig& cfg,
                             verify::RunCapture& cap) {
        sys::Soc soc(sys::apply(spec, cfg), &cap);
        soc.run_cycles(130, sim::ms(8));
    };

    std::vector<sys::DelayConfig> perturbations;
    sim::Rng rng(42);
    const unsigned percents[4] = {50, 75, 150, 200};
    for (int p = 0; p < 12; ++p) {
        auto cfg = sys::DelayConfig::nominal(spec);
        for (std::size_t d = 0; d < cfg.dimensions(); ++d) {
            const bool is_clock = d >= cfg.dimensions() - cfg.clock_pct.size();
            const unsigned pct = percents[rng.next_below(4)];
            cfg.set(d, is_clock ? std::max(75u, pct) : pct);
        }
        perturbations.push_back(cfg);
    }

    verify::DeterminismHarness<sys::DelayConfig> h1(
        run, sys::DelayConfig::nominal(spec), 90);
    verify::DeterminismHarness<sys::DelayConfig> h4(
        run, sys::DelayConfig::nominal(spec), 90);
    const auto r1 = h1.sweep(perturbations, 1);
    const auto r4 = h4.sweep(perturbations, 4);

    EXPECT_EQ(r1.runs, 12u);
    EXPECT_EQ(r1.runs, r4.runs);
    EXPECT_EQ(r1.matches, r4.matches);
    EXPECT_EQ(r1.mismatches, r4.mismatches);
    EXPECT_EQ(r1.examples, r4.examples);
    // Paper §5: fault-free delay perturbation never diverges.
    EXPECT_TRUE(r1.all_match());
}

// --- memory: steady-state campaigns must not grow the pools ---

TEST(RunnerSoak, ArenaAndSlabPoolsFlatAcrossRepeatedCampaigns) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 80;
    cfg.classes = {fuzz::FaultClass::kTokenDropWire};
    const fuzz::Campaign campaign(cfg);

    // Warm-up: let the thread-local trace arena and scheduler slab pool
    // reach their high-water marks (jobs=1 keeps all work on this thread).
    campaign.run(8, 3, {}, 1);
    campaign.run(8, 3, {}, 1);
    const std::size_t arena_hwm =
        verify::TraceArena::local().chunks_allocated();
    const std::size_t slabs_hwm = sim::Scheduler::tls_pooled_slabs();

    // Steady state: repeated same-shaped campaigns reuse pooled storage and
    // never allocate new chunks or slabs.
    for (int round = 0; round < 4; ++round) {
        campaign.run(8, 3, {}, 1);
        EXPECT_EQ(verify::TraceArena::local().chunks_allocated(), arena_hwm)
            << "round " << round;
        EXPECT_EQ(sim::Scheduler::tls_pooled_slabs(), slabs_hwm)
            << "round " << round;
    }
}

TEST(RunnerSoak, ArenaTrimReleasesIdleChunks) {
    verify::TraceArena arena;
    std::vector<verify::TraceArena::Chunk*> held;
    for (int i = 0; i < 8; ++i) held.push_back(arena.acquire());
    for (auto* c : held) arena.release(c);
    EXPECT_EQ(arena.chunks_allocated(), 8u);
    EXPECT_EQ(arena.chunks_free(), 8u);
    EXPECT_EQ(arena.bytes_retained(),
              8 * sizeof(verify::TraceArena::Chunk));
    EXPECT_EQ(arena.trim(3), 5u);
    EXPECT_EQ(arena.chunks_allocated(), 3u);
    EXPECT_EQ(arena.chunks_free(), 3u);
}

}  // namespace
