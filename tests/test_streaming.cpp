// The streaming verification pipeline is the only way a run gets its
// verdict, so two properties pin it. Early exit changes no verdict: an
// early-exit checker and a full-run one report identical verdicts, messages,
// loci and sweep results — for the divergence stop and for the window stop,
// which ends a run once every SB has left the golden comparison window. And
// its verdicts agree with verify::diff_traces, the independent name-order
// differ, over the same captures: every case of faulted campaigns, every run
// of the two-flop baseline grid, and hand-built goldens. Also pins the
// early-exit bound, the zero-allocation arena reuse, the capture sortedness
// precondition, and the scheduler stop flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baseline_soc.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/case_exec.hpp"
#include "fuzz/injector.hpp"
#include "fuzz/repro.hpp"
#include "gang/lane.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/determinism.hpp"
#include "verify/streaming.hpp"
#include "verify/trace_arena.hpp"

namespace st {
namespace {

// ---------------------------------------------------------------------------
// Campaign cases
// ---------------------------------------------------------------------------

/// Replay `c` on `lane` exactly as fuzz::CaseRunner runs a campaign case,
/// cold or forked from the warm-up prefix, leaving the run's capture and
/// checker on the lane to inspect. `early_exit = false` keeps the checker's
/// early exit off even where the campaign would turn it on.
fuzz::RunReport replay(const fuzz::Campaign& campaign, gang::Lane& lane,
                       const fuzz::FuzzCase& c, bool early_exit = true) {
    const fuzz::CampaignConfig& cfg = campaign.config();
    lane.checker()->set_early_exit(early_exit && cfg.classes.empty() &&
                                   c.faults.empty());
    if (cfg.warmup_cycles > 0) {
        lane.rewind(campaign.warmup_prefix(), campaign.warmup_prefix_plan());
    } else {
        lane.rewind();
    }
    sys::Soc& soc = lane.soc();
    const fuzz::Injector injector(soc, c.faults);
    sys::apply_live(soc, c.delays);
    const sim::Time deadline = fuzz::case_deadline(
        fuzz::perturbed_max_effective_period(campaign.spec(), c.delays),
        cfg.cycles);
    bool budget_expired = false;
    const bool goal = fuzz::run_bounded(soc, cfg.cycles, deadline,
                                        cfg.max_events, budget_expired);
    return fuzz::classify_case(soc, injector.fired(), goal, budget_expired,
                               lane.monitor()->violations(), nullptr,
                               lane.checker(), campaign.golden_index(),
                               lane.capture());
}

/// Golden SBs whose events in `run` differ from the golden's.
std::size_t diverged_sbs(const verify::TraceSet& golden,
                         const verify::TraceSet& run) {
    std::size_t n = 0;
    for (const auto& [name, trace] : golden) {
        const auto it = run.find(name);
        if (it == run.end() || it->second.events != trace.events) ++n;
    }
    return n;
}

/// The checker's verdict on one finished run against diff_traces over the
/// same capture. Name order and arrival order may pick different first
/// mismatches when several SBs diverge, so loci are compared only when one
/// SB does. Returns whether the loci were compared.
bool expect_agrees_with_diff_traces(const verify::TraceSet& golden,
                                    std::uint64_t cycles,
                                    const verify::StreamingChecker& checker,
                                    const verify::RunCapture& cap) {
    const verify::TraceSet run = verify::truncated(cap.traces(), cycles);
    const verify::TraceDiff online = checker.finish();
    const verify::TraceDiff offline = verify::diff_traces(golden, run);
    EXPECT_EQ(online.identical, offline.identical)
        << "checker: '" << online.first_mismatch << "'\n  diff_traces: '"
        << offline.first_mismatch << "'";
    if (diverged_sbs(golden, run) != 1) return false;
    EXPECT_EQ(online.locus, offline.locus)
        << "checker: '" << online.first_mismatch << "'\n  diff_traces: '"
        << offline.first_mismatch << "'";
    return true;
}

TEST(StreamingVerdict, AgreesWithDiffTracesOnEveryFaultedCampaignCase) {
    for (const auto* name : {"pair", "triangle"}) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 60;
        cfg.classes = fuzz::all_fault_classes();
        const fuzz::Campaign campaign(cfg);
        std::vector<fuzz::FuzzCase> cases;
        std::vector<fuzz::RunReport> reports;
        const fuzz::CampaignSummary summary = campaign.run(
            60, 7,
            [&](std::size_t, const fuzz::FuzzCase& c,
                const fuzz::RunReport& r) {
                cases.push_back(c);
                reports.push_back(r);
            },
            /*jobs=*/4);
        // Every kind of verdict is in the mix, not only clean runs.
        for (const fuzz::Outcome o :
             {fuzz::Outcome::kDeterministic, fuzz::Outcome::kTraceDivergent,
              fuzz::Outcome::kDeadlocked,
              fuzz::Outcome::kInvariantViolation}) {
            EXPECT_GT(summary.by_outcome[static_cast<std::size_t>(o)], 0u)
                << fuzz::outcome_name(o);
        }

        gang::Lane lane(campaign.program(),
                        {.golden = &campaign.golden_index(), .monitor = true});
        std::size_t loci_compared = 0;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE("case " + std::to_string(i));
            // The replay is the campaign's own case, verdict for verdict.
            EXPECT_EQ(replay(campaign, lane, cases[i]), reports[i]);
            loci_compared += expect_agrees_with_diff_traces(
                campaign.golden(), cfg.cycles, *lane.checker(),
                lane.capture());
        }
        EXPECT_GT(loci_compared, 0u);
    }
}

// A golden SB whose window is empty still has to exist in the compared run:
// diff_traces reports it missing, and so must the checker.
TEST(StreamingVerdict, GoldenSbWithEmptyWindowMissingFromRunIsMissing) {
    using Dir = verify::IoEvent::Dir;
    constexpr std::uint64_t kWindow = 10;
    verify::TraceSet golden;
    golden["a"] =
        verify::IoTrace{"a", {{1, Dir::kOut, 0, 7}, {4, Dir::kIn, 0, 9}}};
    golden["x"] = verify::IoTrace{"x", {{12, Dir::kOut, 0, 1}}};  // past it
    const verify::GoldenIndex index(golden, kWindow);
    const verify::TraceSet window = verify::truncated(golden, kWindow);

    verify::RunCapture cap;
    verify::StreamingChecker checker(index);
    checker.attach(cap);
    const std::size_t a = cap.add_stream("a");
    for (const auto& e : golden["a"].events) cap.record(a, e);

    const verify::TraceDiff online = checker.finish();
    EXPECT_FALSE(online.identical);
    EXPECT_EQ(online.locus.kind, verify::MismatchLocus::Kind::kMissingSb);
    EXPECT_EQ(online.locus.sb, "x");
    EXPECT_EQ(online, verify::diff_traces(
                          window, verify::truncated(cap.traces(), kWindow)));

    // The same SB present but silent in the window matches, both ways.
    cap.add_stream("x");
    EXPECT_TRUE(checker.finish().identical);
    EXPECT_EQ(checker.finish(),
              verify::diff_traces(window,
                                  verify::truncated(cap.traces(), kWindow)));
}

TEST(StreamingBatch, DivergentReportCarriesStructuredLocus) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 60;
    cfg.classes = fuzz::all_fault_classes();
    const fuzz::Campaign campaign(cfg);
    std::vector<fuzz::RunReport> reports;
    campaign.run(40, 11,
                 [&](std::size_t, const fuzz::FuzzCase&,
                     const fuzz::RunReport& r) { reports.push_back(r); });
    bool saw_divergent = false;
    for (const auto& r : reports) {
        if (r.outcome == fuzz::Outcome::kTraceDivergent) {
            saw_divergent = true;
            EXPECT_TRUE(r.locus.valid());
            EXPECT_FALSE(r.locus.sb.empty());
            EXPECT_FALSE(r.detail.empty());
        } else {
            EXPECT_FALSE(r.locus.valid());
        }
    }
    EXPECT_TRUE(saw_divergent);
}

TEST(StreamingBatch, ReproCorpusIdenticalClassification) {
    const std::filesystem::path dir = ST_TESTS_DATA_DIR;
    ASSERT_TRUE(std::filesystem::exists(dir));
    std::size_t replayed = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".repro") continue;
        SCOPED_TRACE(entry.path().filename().string());
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();

        fuzz::Repro repro;
        try {
            repro = fuzz::Repro::parse(text.str());
        } catch (const std::invalid_argument&) {
            // Corpus files that exist to pin parse *rejection* (e.g. the
            // unsupported-version fixture) are not replayable.
            continue;
        }
        fuzz::CampaignConfig cfg;
        cfg.spec_name = repro.spec_name;
        cfg.cycles = repro.cycles;
        const fuzz::Campaign campaign(cfg);

        const auto r = campaign.run_case(repro.to_case(campaign.spec()));
        if (repro.expected) {
            EXPECT_EQ(r.outcome, *repro.expected);
        }
        ++replayed;
    }
    EXPECT_GE(replayed, 1u);
}

// ---------------------------------------------------------------------------
// Harness sweeps
// ---------------------------------------------------------------------------

std::vector<sys::DelayConfig> grid_perturbations(const sys::SocSpec& spec) {
    std::vector<sys::DelayConfig> out;
    const auto nominal = sys::DelayConfig::nominal(spec);
    out.push_back(nominal);
    for (std::size_t dim = 0; dim < nominal.dimensions(); ++dim) {
        for (unsigned pct : {50u, 150u}) {
            auto cfg = nominal;
            cfg.set(dim, pct);
            out.push_back(cfg);
        }
    }
    return out;
}

/// The plesiochronous pair behind two-flop synchronizers: the baseline
/// whose perturbed runs diverge.
sys::SocSpec two_flop_pair_spec() {
    sys::PairOptions opt;
    opt.period_b = 1009;
    return sys::make_pair_spec(opt);
}

void run_two_flop(const sys::SocSpec& spec, const sys::DelayConfig& cfg,
                  verify::RunCapture& cap) {
    baseline::BaselineSoc soc(sys::apply(spec, cfg),
                              baseline::BaselineSoc::Kind::kTwoFlop, &cap);
    soc.run_cycles(150, sim::ms(1));
}

TEST(HarnessDifferential, SynchroTokensEarlyExitMatchesFullRun) {
    const auto spec = sys::make_named_spec("triangle");
    const auto live = [&spec](const sys::DelayConfig& cfg,
                              verify::RunCapture& cap) {
        sys::Soc soc(sys::apply(spec, cfg), &cap);
        soc.run_cycles(60, sim::ms(1));
    };
    const auto nominal = sys::DelayConfig::nominal(spec);
    const auto perturbations = grid_perturbations(spec);

    verify::DeterminismHarness<sys::DelayConfig> early(live, nominal, 60);
    verify::DeterminismHarness<sys::DelayConfig> full(live, nominal, 60);
    full.set_early_exit(false);

    const auto r_early = early.sweep(perturbations);
    EXPECT_EQ(r_early, full.sweep(perturbations));
    EXPECT_TRUE(r_early.all_match());  // the paper's §5 claim
    // Case-index-ordered reduction: jobs only changes wall-clock.
    EXPECT_EQ(r_early, early.sweep(perturbations, 2));
    EXPECT_EQ(r_early, early.sweep(perturbations, 4));
}

TEST(HarnessDifferential, BaselineDivergentVerdictsIdentical) {
    const auto spec = two_flop_pair_spec();
    const auto live = [&spec](const sys::DelayConfig& cfg,
                              verify::RunCapture& cap) {
        run_two_flop(spec, cfg, cap);
    };
    const auto nominal = sys::DelayConfig::nominal(spec);
    const auto perturbations = grid_perturbations(spec);

    verify::DeterminismHarness<sys::DelayConfig> early(live, nominal, 100);
    verify::DeterminismHarness<sys::DelayConfig> full(live, nominal, 100);
    full.set_early_exit(false);

    const auto r_early = early.sweep(perturbations);
    // Full equality including the retained example loci: early exit must not
    // change what a divergent run reports, only how long it simulates.
    EXPECT_EQ(r_early, full.sweep(perturbations));
    EXPECT_GT(r_early.mismatches, 0u);
    EXPECT_FALSE(r_early.examples.empty());
    EXPECT_EQ(r_early, early.sweep(perturbations, 4));
}

TEST(StreamingVerdict, AgreesWithDiffTracesOnTwoFlopBaselineGrid) {
    const auto spec = two_flop_pair_spec();
    verify::DeterminismHarness<sys::DelayConfig> harness(
        [&spec](const sys::DelayConfig& cfg, verify::RunCapture& cap) {
            run_two_flop(spec, cfg, cap);
        },
        sys::DelayConfig::nominal(spec), 100);
    harness.capture_nominal();

    std::size_t divergent = 0;
    for (const auto& cfg : grid_perturbations(spec)) {
        verify::RunCapture cap;
        verify::StreamingChecker checker(harness.golden_index());
        checker.attach(cap);
        run_two_flop(spec, cfg, cap);
        expect_agrees_with_diff_traces(harness.golden(), 100, checker, cap);
        divergent += checker.diverged();
    }
    EXPECT_GT(divergent, 0u);
}

// ---------------------------------------------------------------------------
// Early exit
// ---------------------------------------------------------------------------

TEST(EarlyExit, StopsWithinOneSlotOfInjectedCycle3Divergence) {
    const auto spec = sys::make_named_spec("pair");

    sys::Soc golden_soc(spec);
    ASSERT_TRUE(golden_soc.run_cycles(100, sim::ms(1)));
    const std::uint64_t full_events =
        golden_soc.scheduler().events_executed();
    auto golden = verify::truncated(golden_soc.traces(), 100);

    // Doctor the golden: flip the word of the earliest event at cycle >= 3,
    // so a nominal re-run diverges from the doctored golden at that event.
    std::string victim_sb;
    std::size_t victim_idx = 0;
    std::uint64_t victim_cycle = ~0ull;
    for (const auto& [name, trace] : golden) {
        for (std::size_t i = 0; i < trace.events.size(); ++i) {
            const auto& e = trace.events[i];
            if (e.cycle >= 3 && e.cycle < victim_cycle) {
                victim_sb = name;
                victim_idx = i;
                victim_cycle = e.cycle;
            }
        }
    }
    ASSERT_FALSE(victim_sb.empty());
    ASSERT_LE(victim_cycle, 4u);  // pair traffic starts immediately
    golden[victim_sb].events[victim_idx].word ^= 0x1;
    const verify::GoldenIndex doctored(golden, 100);

    verify::RunCapture cap;
    verify::StreamingChecker checker(doctored);
    checker.attach(cap);
    sys::Soc soc(spec, &cap);
    EXPECT_FALSE(soc.run_cycles(100, sim::ms(1)));
    EXPECT_TRUE(soc.scheduler().stop_requested());
    ASSERT_TRUE(checker.diverged());

    // The run stopped at the next event boundary: no local clock advanced
    // more than one slot past the mismatching cycle, and the event count is
    // a small fraction of the full 100-cycle run.
    for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
        EXPECT_LE(soc.wrapper(i).clock().cycles(), victim_cycle + 2);
    }
    EXPECT_LT(soc.scheduler().events_executed(), full_events / 4);

    // Verdict parity: a full run checked against the same doctored golden
    // with early exit off reports the identical diff (message and
    // structured locus).
    verify::RunCapture cap_full;
    verify::StreamingChecker full_checker(
        doctored, verify::StreamingOptions{.early_exit = false});
    full_checker.attach(cap_full);
    sys::Soc full(spec, &cap_full);
    EXPECT_TRUE(full.run_cycles(100, sim::ms(1)));
    const auto full_diff = full_checker.finish();
    const auto stream_diff = checker.finish();
    EXPECT_EQ(stream_diff, full_diff);
    EXPECT_FALSE(stream_diff.identical);
    EXPECT_EQ(stream_diff.locus.kind, verify::MismatchLocus::Kind::kValue);
    EXPECT_EQ(stream_diff.locus.sb, victim_sb);
    EXPECT_EQ(stream_diff.locus.cycle, victim_cycle);
}

TEST(EarlyExit, FaultedCampaignCaseStillRunsToCompletion) {
    // A replayed fault case must never early-exit, even under a fault-free
    // campaign config: Outcome precedence requires the full run.
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 60;
    const fuzz::Campaign campaign(cfg);

    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(campaign.spec());
    fuzz::Fault f;
    f.cls = fuzz::FaultClass::kTokenDropWire;
    f.side = 1;
    f.nth = 2;
    c.faults.push_back(f);
    const auto report = campaign.run_case(c);
    EXPECT_EQ(report.outcome, fuzz::Outcome::kDeadlocked);

    // The case ran on to its deadlock: no stop was requested, and the Soc
    // is quiescent with its clocks stopped.
    gang::Lane lane(campaign.program(),
                    {.golden = &campaign.golden_index(), .monitor = true});
    EXPECT_EQ(replay(campaign, lane, c), report);
    EXPECT_FALSE(lane.soc().scheduler().stop_requested());
    EXPECT_TRUE(lane.soc().deadlocked());
}

// ---------------------------------------------------------------------------
// Window stop
// ---------------------------------------------------------------------------

/// What a LiveRunner saw of the run it just finished.
struct RunSeen {
    bool goal = false;      ///< run_cycles met its horizon
    bool stopped = false;   ///< a cooperative stop was requested
    std::uint64_t events = 0;
    std::uint64_t min_cycles = 0;  ///< the slowest SB's local cycle count
};

void note(sys::Soc& soc, bool goal, RunSeen* seen) {
    if (seen == nullptr) return;
    seen->goal = goal;
    seen->stopped = soc.scheduler().stop_requested();
    seen->events = soc.scheduler().events_executed();
    seen->min_cycles = ~0ull;
    for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
        seen->min_cycles =
            std::min(seen->min_cycles, soc.wrapper(i).clock().cycles());
    }
}

/// A LiveRunner that elaborates each perturbation of `spec` and runs it to
/// `horizon` local cycles, noting the run in `seen` (null in concurrent
/// sweeps).
verify::DeterminismHarness<sys::DelayConfig>::LiveRunner over_run(
    const sys::SocSpec& spec, std::uint64_t horizon, RunSeen* seen) {
    return [&spec, horizon, seen](const sys::DelayConfig& cfg,
                                  verify::RunCapture& cap) {
        sys::Soc soc(sys::apply(spec, cfg), &cap);
        note(soc, soc.run_cycles(horizon, sim::ms(2000)), seen);
    };
}

sys::SocSpec mesh64_fixture() {
    std::ifstream in(std::string(ST_TESTS_DATA_DIR) + "/mesh_8x8.stspec");
    std::stringstream text;
    text << in.rdbuf();
    return sva::to_spec(sva::parse_spec_text(text.str()));
}

/// Paper-style joint perturbations (st_topo --sweep): every delay from
/// {50, 75, 150, 200}% of nominal, clocks clamped to >= 75%.
std::vector<sys::DelayConfig> joint_perturbations(const sys::SocSpec& spec,
                                                  std::size_t n) {
    static constexpr unsigned kPct[4] = {50, 75, 150, 200};
    std::vector<sys::DelayConfig> out;
    sim::Rng rng(17);
    const auto nominal = sys::DelayConfig::nominal(spec);
    const std::size_t first_clock =
        nominal.dimensions() - nominal.clock_pct.size();
    for (std::size_t i = 0; i < n; ++i) {
        auto cfg = nominal;
        for (std::size_t d = 0; d < cfg.dimensions(); ++d) {
            const unsigned pct = kPct[rng.next_below(4)];
            cfg.set(d, d >= first_clock ? std::max(75u, pct) : pct);
        }
        out.push_back(cfg);
    }
    return out;
}

/// A runner whose horizon lies past the window: the paper's triangle at
/// 140 against 100 cycles (bench_determinism), and a mesh-64 fixture at 130
/// against 90 (st_topo --sweep).
struct OverRun {
    const char* what;
    sys::SocSpec spec;
    std::uint64_t window;
    std::uint64_t horizon;
    std::vector<sys::DelayConfig> perturbations;
};

std::vector<OverRun> over_runs() {
    std::vector<OverRun> out;
    const auto triangle = sys::make_named_spec("triangle");
    out.push_back({"triangle", triangle, 100, 140,
                   grid_perturbations(triangle)});
    const auto mesh = mesh64_fixture();
    out.push_back({"mesh_8x8", mesh, 90, 130, joint_perturbations(mesh, 3)});
    return out;
}

TEST(WindowStop, OverRunningSweepsMatchFullRunAtEveryJobsValue) {
    using Harness = verify::DeterminismHarness<sys::DelayConfig>;
    for (const OverRun& o : over_runs()) {
        SCOPED_TRACE(o.what);
        const auto nominal = sys::DelayConfig::nominal(o.spec);
        Harness early(over_run(o.spec, o.horizon, nullptr), nominal, o.window);
        Harness full(over_run(o.spec, o.horizon, nullptr), nominal, o.window);
        full.set_early_exit(false);
        for (const std::size_t jobs : {1u, 2u, 4u}) {
            const auto r = early.sweep(o.perturbations, jobs);
            EXPECT_TRUE(r.all_match()) << "jobs " << jobs;
            EXPECT_EQ(r, full.sweep(o.perturbations, jobs)) << "jobs " << jobs;
        }

        // Run by run: the stop fires on every matching run, after fewer
        // events, with every SB past the window — and never without it.
        RunSeen seen_early;
        RunSeen seen_full;
        Harness early1(over_run(o.spec, o.horizon, &seen_early), nominal,
                       o.window);
        Harness full1(over_run(o.spec, o.horizon, &seen_full), nominal,
                      o.window);
        full1.set_early_exit(false);
        early1.capture_nominal();
        full1.capture_nominal();
        for (std::size_t i = 0; i < o.perturbations.size(); ++i) {
            SCOPED_TRACE("run " + std::to_string(i));
            const auto d = early1.check(o.perturbations[i]);
            EXPECT_EQ(d, full1.check(o.perturbations[i]));
            EXPECT_TRUE(d.identical);
            EXPECT_TRUE(seen_early.stopped);
            EXPECT_FALSE(seen_early.goal);
            EXPECT_GE(seen_early.min_cycles, o.window);
            EXPECT_LT(seen_early.events, seen_full.events);
            EXPECT_FALSE(seen_full.stopped);
            EXPECT_TRUE(seen_full.goal);
        }
    }
}

// The golden run stops at the window too, and keeps exactly what a run to
// the horizon keeps once truncated to the window.
TEST(WindowStop, NominalGoldenEqualsTruncatedFullHorizonRun) {
    for (const OverRun& o : over_runs()) {
        SCOPED_TRACE(o.what);
        const auto nominal = sys::DelayConfig::nominal(o.spec);
        RunSeen seen;
        verify::DeterminismHarness<sys::DelayConfig> harness(
            over_run(o.spec, o.horizon, &seen), nominal, o.window);
        harness.capture_nominal();
        EXPECT_TRUE(seen.stopped);
        EXPECT_GE(seen.min_cycles, o.window);

        sys::Soc full(sys::apply(o.spec, nominal));
        ASSERT_TRUE(full.run_cycles(o.horizon, sim::ms(2000)));
        EXPECT_LT(seen.events, full.scheduler().events_executed());
        EXPECT_EQ(harness.golden(), verify::truncated(full.traces(), o.window));
    }
}

// An SB that stalls before the window never ticks its last cycle, so the
// run is not window-stopped: it simulates exactly as far as the full run and
// reports the same shortfall.
TEST(WindowStop, StalledRunNeverWindowStops) {
    const auto spec = sys::make_named_spec("pair");
    fuzz::Fault drop;
    drop.cls = fuzz::FaultClass::kTokenDropWire;
    drop.side = 1;
    drop.nth = 2;
    RunSeen seen;
    const auto live = [&](bool stall, verify::RunCapture& cap) {
        sys::Soc soc(spec, &cap);
        const fuzz::Injector injector(
            soc, stall ? std::vector<fuzz::Fault>{drop}
                       : std::vector<fuzz::Fault>{});
        note(soc, soc.run_cycles(140, sim::ms(1)), &seen);
    };
    verify::DeterminismHarness<bool> early(live, false, 100);
    verify::DeterminismHarness<bool> full(live, false, 100);
    full.set_early_exit(false);

    const auto d_early = early.check(true);
    const RunSeen stalled = seen;
    const auto d_full = full.check(true);
    EXPECT_FALSE(stalled.goal);
    EXPECT_LT(stalled.min_cycles, 100u);
    EXPECT_FALSE(stalled.stopped);
    EXPECT_EQ(stalled.events, seen.events);
    EXPECT_EQ(d_early.locus.kind, verify::MismatchLocus::Kind::kShortfall);
    EXPECT_EQ(d_early, d_full);
}

// A campaign's window is its run goal, so the stop lands on the event where
// a fault-free case already ends: reports, events included, equal the same
// case with early exit off, cold and forked from the warm-up prefix.
// Faulted campaigns keep early exit off and never window-stop.
TEST(WindowStop, CampaignReportsUnchangedAndFaultedCasesNeverStop) {
    for (const std::uint64_t warmup : {0u, 30u}) {
        for (const bool faulted : {false, true}) {
            SCOPED_TRACE(std::string(faulted ? "faulted" : "fault-free") +
                         ", warm-up " + std::to_string(warmup));
            fuzz::CampaignConfig cfg;
            cfg.spec_name = "triangle";
            cfg.cycles = 60;
            cfg.warmup_cycles = warmup;
            if (faulted) cfg.classes = fuzz::all_fault_classes();
            const fuzz::Campaign campaign(cfg);
            std::vector<fuzz::FuzzCase> cases;
            std::vector<fuzz::RunReport> reports;
            campaign.run(
                30, 5,
                [&](std::size_t, const fuzz::FuzzCase& c,
                    const fuzz::RunReport& r) {
                    cases.push_back(c);
                    reports.push_back(r);
                },
                /*jobs=*/2);

            gang::Lane lane(campaign.program(),
                            {.golden = &campaign.golden_index(),
                             .monitor = true});
            std::size_t window_stops = 0;
            for (std::size_t i = 0; i < cases.size(); ++i) {
                SCOPED_TRACE("case " + std::to_string(i));
                const fuzz::RunReport r = replay(campaign, lane, cases[i]);
                EXPECT_EQ(r, reports[i]);
                const bool stopped = lane.soc().scheduler().stop_requested();
                if (faulted) {
                    EXPECT_FALSE(stopped);
                } else if (r.outcome == fuzz::Outcome::kDeterministic) {
                    EXPECT_TRUE(stopped);
                    EXPECT_TRUE(r.goal_met);
                }
                window_stops += stopped && !lane.checker()->diverged();
                EXPECT_EQ(replay(campaign, lane, cases[i], false), r);
                EXPECT_FALSE(lane.soc().scheduler().stop_requested());
            }
            EXPECT_EQ(window_stops > 0, !faulted);
        }
    }
}

// ---------------------------------------------------------------------------
// Arena + capture invariants
// ---------------------------------------------------------------------------

TEST(TraceArena, ChunksReusedAcrossRuns) {
    const auto spec = sys::make_named_spec("pair");
    auto& arena = verify::TraceArena::local();
    const auto run_once = [&spec] {
        verify::RunCapture cap;
        sys::Soc soc(spec, &cap);
        soc.run_cycles(50, sim::ms(1));
    };
    run_once();
    const std::size_t after_first = arena.chunks_allocated();
    for (int i = 0; i < 3; ++i) run_once();
    // Steady state: every later run recycles the first run's chunks from the
    // freelist — zero new allocations.
    EXPECT_EQ(arena.chunks_allocated(), after_first);
}

TEST(RunCapture, StreamsAreCycleSorted) {
    // truncated() binary-searches its cutoff, which requires cycle-sorted
    // traces; captured streams provide that by construction (each SB's
    // local cycle counter is monotone).
    const auto spec = sys::make_named_spec("triangle");
    verify::RunCapture cap;
    sys::Soc soc(spec, &cap);
    soc.run_cycles(60, sim::ms(1));
    ASSERT_GT(cap.num_streams(), 0u);
    for (const auto& [name, trace] : cap.traces()) {
        EXPECT_TRUE(std::is_sorted(
            trace.events.begin(), trace.events.end(),
            [](const verify::IoEvent& a, const verify::IoEvent& b) {
                return a.cycle < b.cycle;
            }))
            << name;
    }
}

// ---------------------------------------------------------------------------
// Scheduler stop flag
// ---------------------------------------------------------------------------

TEST(SchedulerStop, StopsAtNextEventBoundaryAndIsSticky) {
    sim::Scheduler s;
    std::vector<int> ran;
    s.schedule_at(10, sim::Priority::kDefault, [&] {
        ran.push_back(1);
        s.request_stop();
    });
    s.schedule_at(20, sim::Priority::kDefault, [&] { ran.push_back(2); });
    s.run_until(100);
    // The in-flight event completes; the next one does not run.
    EXPECT_EQ(ran, (std::vector<int>{1}));
    EXPECT_TRUE(s.stop_requested());
    EXPECT_EQ(s.now(), 10u);

    // Sticky: further run calls are no-ops until cleared.
    s.run_until(100);
    EXPECT_EQ(ran, (std::vector<int>{1}));

    s.clear_stop_request();
    EXPECT_FALSE(s.stop_requested());
    s.run_until(100);
    EXPECT_EQ(ran, (std::vector<int>{1, 2}));
    EXPECT_EQ(s.now(), 100u);
}

}  // namespace
}  // namespace st
