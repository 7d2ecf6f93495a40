// Rewind-equivalence suite for the case engine. Every campaign case runs on
// its worker's persistent gang::Lane (fuzz::CaseRunner): rewind to the
// pristine image or the warm-up prefix, bind the injector, apply the
// delays live, run bounded, classify. That must be indistinguishable from
// elaborating the perturbed spec afresh — identical per-case RunReports
// (outcome, events, detail, locus) on every shipped spec and fault class,
// the NoC-scale fixtures, a forked warm-up held to both a restored and a
// re-simulated prefix, divergent early exits, and delay corners the random
// draw never reaches — and a lane must carry no residue from one case into
// the next. The tail checks
// the rewind targets and the program the campaign shares with its lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/case_exec.hpp"
#include "fuzz/injector.hpp"
#include "fuzz/shrink.hpp"
#include "gang/lane.hpp"
#include "gang/program.hpp"
#include "sim/random.hpp"
#include "sva/fixtures.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "system/invariant_monitor.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"

namespace {

using namespace st;

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

sys::SocSpec fixture_spec(const char* file) {
    const std::string text =
        read_file(std::string(ST_TESTS_DATA_DIR) + "/" + file);
    return sva::to_spec(sva::parse_spec_text(text));
}

/// The bus spec's multi-ring rejects the ring-wire fault classes (the
/// Injector throws), so it keeps the FIFO/restart classes only.
std::vector<fuzz::FaultClass> classes_for(const std::string& spec_name) {
    if (spec_name == "bus") {
        return {fuzz::FaultClass::kFifoStall,
                fuzz::FaultClass::kRestartGlitch};
    }
    return fuzz::all_fault_classes();
}

/// How the fresh reference reaches a warm-up campaign's prefix: strictly
/// restoring the campaign's prefix snapshot, or re-simulating the nominal
/// prefix on the fresh Soc.
enum class Prefix { kRestored, kResimulated };

/// Fresh-elaboration reference: the case on a Soc built for it alone —
/// `sys::apply` then `Soc(spec, &cap)`; with a warm-up, the nominal Soc
/// plus the `prefix` reference, then the live delta — with its own capture,
/// checker, injector and monitor.
fuzz::RunReport run_fresh(const fuzz::Campaign& campaign,
                          const fuzz::FuzzCase& c,
                          Prefix prefix = Prefix::kRestored) {
    const fuzz::CampaignConfig& cfg = campaign.config();
    auto perturbed = std::make_shared<const sys::SocSpec>(
        sys::apply(campaign.spec(), c.delays));
    const sim::Time deadline = fuzz::case_deadline(
        fuzz::max_effective_period(*perturbed), cfg.cycles);

    verify::RunCapture cap;
    verify::StreamingChecker checker(campaign.golden_index());
    checker.attach(cap);
    checker.set_early_exit(cfg.classes.empty() && c.faults.empty());

    std::unique_ptr<sys::Soc> soc;
    if (cfg.warmup_cycles == 0) {
        soc = std::make_unique<sys::Soc>(std::move(perturbed), &cap);
    } else {
        soc = std::make_unique<sys::Soc>(campaign.program()->spec_ptr(), &cap);
        if (prefix == Prefix::kRestored) {
            soc->restore_snapshot(campaign.warmup_prefix());
        } else {
            bool budget = false;
            fuzz::run_bounded(*soc, cfg.warmup_cycles, deadline,
                              cfg.max_events, budget);
            soc->settle();
        }
    }
    const fuzz::Injector injector(*soc, c.faults);
    const sys::InvariantMonitor monitor(*soc);
    if (cfg.warmup_cycles > 0) sys::apply_live(*soc, c.delays);

    bool budget_expired = false;
    const bool goal = fuzz::run_bounded(*soc, cfg.cycles, deadline,
                                        cfg.max_events, budget_expired);
    return fuzz::classify_case(*soc, injector.fired(), goal, budget_expired,
                               monitor.violations(), nullptr, &checker,
                               campaign.golden_index(), cap);
}

std::string show(const fuzz::RunReport& r) {
    std::ostringstream os;
    os << fuzz::outcome_name(r.outcome) << " events=" << r.events
       << " fired=" << r.faults_fired << " perr=" << r.protocol_errors
       << " goal=" << r.goal_met << " detail='" << r.detail << "'";
    return os.str();
}

std::vector<fuzz::FuzzCase> draw(const fuzz::Campaign& campaign,
                                 std::size_t n, std::uint64_t seed) {
    std::vector<fuzz::FuzzCase> cases;
    sim::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        cases.push_back(campaign.random_case(rng));
    }
    return cases;
}

/// Delay corners outside random_case's draw (which clamps clocks to
/// >= 75%): every dimension at 50%, every dimension at 200%, and every
/// clock at 50% with the rest nominal.
std::vector<sys::DelayConfig> envelope_corners(const sys::SocSpec& spec) {
    const sys::DelayConfig nominal = sys::DelayConfig::nominal(spec);
    std::vector<sys::DelayConfig> corners;
    for (const unsigned pct : {50u, 200u}) {
        sys::DelayConfig d = nominal;
        for (std::size_t k = 0; k < d.dimensions(); ++k) d.set(k, pct);
        corners.push_back(d);
    }
    sys::DelayConfig clocks = nominal;
    for (auto& pct : clocks.clock_pct) pct = 50;
    corners.push_back(clocks);
    return corners;
}

/// Run `cases` in order on one CaseRunner and require every report to
/// equal its fresh-elaboration reference. Returns the engine's reports.
std::vector<fuzz::RunReport> expect_matches_fresh(
    const fuzz::Campaign& campaign, const std::vector<fuzz::FuzzCase>& cases,
    Prefix prefix = Prefix::kRestored) {
    fuzz::CaseRunner runner(campaign);
    std::vector<fuzz::RunReport> reports;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const fuzz::RunReport lane = runner.run(cases[i]);
        const fuzz::RunReport fresh = run_fresh(campaign, cases[i], prefix);
        EXPECT_TRUE(lane == fresh) << "case " << i << "\n  lane:  "
                                   << show(lane) << "\n  fresh: "
                                   << show(fresh);
        reports.push_back(lane);
    }
    return reports;
}

// --- shipped specs, fault-free and faulted -------------------------------

TEST(RewindEquivalence, ShippedSpecsFaultFree) {
    for (const auto& name : sys::named_specs()) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 60;
        const fuzz::Campaign campaign(cfg);
        expect_matches_fresh(campaign, draw(campaign, 18, 17));
    }
}

TEST(RewindEquivalence, ShippedSpecsAllFaultClasses) {
    for (const auto& name : sys::named_specs()) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 60;
        cfg.classes = classes_for(name);
        cfg.max_faults = 2;
        const fuzz::Campaign campaign(cfg);
        const auto reports =
            expect_matches_fresh(campaign, draw(campaign, 18, 29));
        // The draw must exercise more than the happy path.
        if (name == "pair") {
            EXPECT_TRUE(std::any_of(
                reports.begin(), reports.end(), [](const fuzz::RunReport& r) {
                    return r.outcome != fuzz::Outcome::kDeterministic;
                }));
        }
    }
}

// --- NoC-scale fixture specs ---------------------------------------------

TEST(RewindEquivalence, TopoFixtureSpecs) {
    for (const char* file : {"mesh_8x8.stspec", "star_64.stspec"}) {
        SCOPED_TRACE(file);
        const sys::SocSpec spec = fixture_spec(file);
        for (const bool faulted : {false, true}) {
            SCOPED_TRACE(faulted ? "faulted" : "fault-free");
            fuzz::CampaignConfig cfg;
            cfg.spec_name = file;
            cfg.cycles = 50;
            if (faulted) cfg.classes = fuzz::all_fault_classes();
            const fuzz::Campaign campaign(cfg, spec);
            const auto reports =
                expect_matches_fresh(campaign, draw(campaign, 4, 11));
            if (!faulted) {
                for (const auto& r : reports) {
                    EXPECT_EQ(r.outcome, fuzz::Outcome::kDeterministic)
                        << "synchro-token fixture must be delay-insensitive";
                }
            }
        }
    }
}

// --- warm-up ---------------------------------------------------------------

// The lane forks every case from the campaign's prefix snapshot. Restore-
// equivalence holds it to both references: the strictly restored prefix,
// and the nominal prefix re-simulated on a fresh Soc.
TEST(RewindEquivalence, WarmupForkAndNonFork) {
    for (const char* name : {"pair", "triangle"}) {
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 80;
        cfg.warmup_cycles = 30;
        cfg.classes = fuzz::all_fault_classes();
        const fuzz::Campaign campaign(cfg);
        const auto cases = draw(campaign, 16, 5);
        for (const Prefix prefix : {Prefix::kRestored, Prefix::kResimulated}) {
            SCOPED_TRACE(std::string(name) + (prefix == Prefix::kRestored
                                                  ? " restored"
                                                  : " re-simulated"));
            expect_matches_fresh(campaign, cases, prefix);
        }
    }
}

// --- envelope corners -------------------------------------------------------

// Every shipped spec at the corners, fault-free and with the draw's faults
// grafted on, cold and forked from a warm-up prefix. Clocks at 50% break
// the bundling constraints, so these cases also drive divergent early
// exits and invariant trips through the rewind path.
TEST(RewindEquivalence, EnvelopeCornersRandomCaseNeverDraws) {
    for (const auto& name : sys::named_specs()) {
        for (const bool warm : {false, true}) {
            SCOPED_TRACE(name + (warm ? " warm" : " cold"));
            fuzz::CampaignConfig cfg;
            cfg.spec_name = name;
            cfg.cycles = 60;
            if (warm) cfg.warmup_cycles = 20;
            const fuzz::Campaign fault_free(cfg);
            cfg.classes = classes_for(name);
            const fuzz::Campaign faulted(cfg);

            const auto corners = envelope_corners(fault_free.spec());
            std::vector<fuzz::FuzzCase> clean;
            std::vector<fuzz::FuzzCase> dirty;
            const auto faults = draw(faulted, corners.size(), 41);
            for (std::size_t i = 0; i < corners.size(); ++i) {
                clean.push_back(fuzz::FuzzCase{corners[i], {}});
                dirty.push_back(fuzz::FuzzCase{corners[i], faults[i].faults});
            }
            expect_matches_fresh(fault_free, clean);
            expect_matches_fresh(faulted, dirty);
        }
    }
}

// --- campaign workers ---------------------------------------------------------

// Campaign::run builds one CaseRunner per engine worker, on that worker's
// thread; every case it reduces must equal its fresh elaboration whichever
// worker ran it and whatever that worker ran before.
TEST(RewindEquivalence, CampaignRunWorkersMatchFresh) {
    for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm fork" : "cold");
        fuzz::CampaignConfig cfg;
        cfg.spec_name = "pair";
        cfg.cycles = 60;
        cfg.classes = fuzz::all_fault_classes();
        if (warm) cfg.warmup_cycles = 25;
        const fuzz::Campaign campaign(cfg);
        std::size_t seen = 0;
        const auto summary = campaign.run(
            24, 13,
            [&](std::size_t i, const fuzz::FuzzCase& c,
                const fuzz::RunReport& lane) {
                ++seen;
                const fuzz::RunReport fresh = run_fresh(campaign, c);
                EXPECT_TRUE(lane == fresh) << "case " << i << "\n  lane:  "
                                           << show(lane) << "\n  fresh: "
                                           << show(fresh);
            },
            3);
        EXPECT_EQ(seen, 24u);
        EXPECT_LT(summary.by_outcome[static_cast<std::size_t>(
                      fuzz::Outcome::kDeterministic)],
                  24u);
    }
}

// A case the Injector rejects throws out of CaseRunner::run as it does out
// of a fresh elaboration. The spurious token validated before the bad
// fault is already scheduled on the lane's Soc when the constructor throws;
// the next case's rewind must discard it, so the lane stays usable.
TEST(RewindEquivalence, RejectedCaseLeavesLaneClean) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 60;
    cfg.classes = fuzz::all_fault_classes();
    const fuzz::Campaign campaign(cfg);
    const auto cases = draw(campaign, 6, 21);

    fuzz::FuzzCase rejected{sys::DelayConfig::nominal(campaign.spec()), {}};
    fuzz::Fault spurious;
    spurious.cls = fuzz::FaultClass::kSpuriousToken;
    spurious.value = 1000;
    fuzz::Fault stall;
    stall.cls = fuzz::FaultClass::kFifoStall;
    stall.unit = 99;  // no such channel
    stall.value = 500;
    rejected.faults = {spurious, stall};

    EXPECT_THROW(run_fresh(campaign, rejected), std::invalid_argument);
    fuzz::CaseRunner runner(campaign);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        EXPECT_THROW(runner.run(rejected), std::invalid_argument);
        const fuzz::RunReport lane = runner.run(cases[i]);
        const fuzz::RunReport fresh = run_fresh(campaign, cases[i]);
        EXPECT_TRUE(lane == fresh) << "\n  lane:  " << show(lane)
                                   << "\n  fresh: " << show(fresh);
    }
}

// --- shrink -------------------------------------------------------------------

// fuzz::shrink runs every attempt on one CaseRunner. The minimal case it
// settles on must reproduce its outcome on a fresh elaboration, and a second
// shrink of the same failure must retrace the first exactly.
TEST(RewindEquivalence, ShrunkCaseReplaysOnFreshElaboration) {
    for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm fork" : "cold");
        fuzz::CampaignConfig cfg;
        cfg.spec_name = "pair";
        cfg.cycles = 60;
        cfg.classes = fuzz::all_fault_classes();
        if (warm) cfg.warmup_cycles = 25;
        const fuzz::Campaign campaign(cfg);
        std::size_t shrunk = 0;
        for (const auto& c : draw(campaign, 12, 29)) {
            const fuzz::RunReport report = run_fresh(campaign, c);
            if (report.outcome == fuzz::Outcome::kDeterministic) continue;
            const fuzz::ShrinkResult first = fuzz::shrink(campaign, c);
            const fuzz::ShrinkResult again = fuzz::shrink(campaign, c);
            EXPECT_TRUE(first.minimal == again.minimal);
            EXPECT_EQ(first.outcome, again.outcome);
            EXPECT_EQ(first.attempts, again.attempts);
            EXPECT_EQ(first.outcome, report.outcome);
            EXPECT_LE(first.minimal.complexity(), c.complexity());
            EXPECT_EQ(run_fresh(campaign, first.minimal).outcome,
                      first.outcome);
            if (++shrunk == 3) break;
        }
        EXPECT_EQ(shrunk, 3u);
    }
}

// --- early exit ---------------------------------------------------------------

// The late-head fixture's FIFO service envelope is corner-unstable, so its
// fault-free cases diverge: the checker stops the run at the first
// mismatch, and the next case must start from a clean rewind.
TEST(RewindEquivalence, DivergentEarlyExitFixture) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "late-head";
    cfg.cycles = 60;
    const fuzz::Campaign campaign(cfg, sva::make_fixture("late-head"));
    std::vector<fuzz::FuzzCase> cases = draw(campaign, 12, 7);
    for (const auto& d : envelope_corners(campaign.spec())) {
        cases.push_back(fuzz::FuzzCase{d, {}});
    }
    const auto reports = expect_matches_fresh(campaign, cases);
    EXPECT_TRUE(std::any_of(
        reports.begin(), reports.end(), [](const fuzz::RunReport& r) {
            return r.outcome == fuzz::Outcome::kTraceDivergent;
        }));
}

// --- residue ------------------------------------------------------------------

/// Run `cases` forward, then reversed, on one lane: every case must report
/// the same either way.
void expect_order_independent(const fuzz::Campaign& campaign,
                              const std::vector<fuzz::FuzzCase>& cases) {
    fuzz::CaseRunner runner(campaign);
    std::vector<fuzz::RunReport> forward;
    for (const auto& c : cases) forward.push_back(runner.run(c));
    std::vector<fuzz::RunReport> backward(cases.size());
    for (std::size_t i = cases.size(); i-- > 0;) {
        backward[i] = runner.run(cases[i]);
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_TRUE(forward[i] == backward[i])
            << "case " << i << "\n  forward:  " << show(forward[i])
            << "\n  backward: " << show(backward[i]);
    }
}

// No case may leave state behind for the next: delay registers, pending
// fault events and injector hooks (the faulted pair lists), monitor phases,
// checker verdicts, or a scheduler stop request (the late-head list, whose
// fault-free divergent cases stop early).
TEST(RewindEquivalence, NoResidueAcrossCaseOrder) {
    for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "pair warm fork" : "pair cold");
        fuzz::CampaignConfig cfg;
        cfg.spec_name = "pair";
        cfg.cycles = 60;
        cfg.classes = fuzz::all_fault_classes();
        if (warm) cfg.warmup_cycles = 25;
        const fuzz::Campaign campaign(cfg);
        std::vector<fuzz::FuzzCase> cases = draw(campaign, 24, 33);
        for (const auto& d : envelope_corners(campaign.spec())) {
            cases.push_back(fuzz::FuzzCase{d, {}});
        }
        expect_order_independent(campaign, cases);
    }
    {
        SCOPED_TRACE("late-head");
        fuzz::CampaignConfig cfg;
        cfg.spec_name = "late-head";
        cfg.cycles = 60;
        const fuzz::Campaign campaign(cfg, sva::make_fixture("late-head"));
        expect_order_independent(campaign, draw(campaign, 16, 9));
    }
}

// --- plan rewind vs strict restore ----------------------------------------

/// Exercise one campaign's lane through a fault-free case and a faulted
/// case; after each, both rewind flavours — the plan path and a strict
/// full restore — must land the lane on the program's exact pristine state,
/// witnessed by re-serializing the live state and comparing digests.
void check_rewind_equivalence(const fuzz::Campaign& campaign,
                              std::uint64_t cycles) {
    gang::Lane lane(campaign.program(), {.golden = &campaign.golden_index(),
                                         .monitor = true});
    const std::uint64_t pristine = lane.pristine().digest();
    const sim::Time deadline = sim::ms(2000);

    sim::Rng rng(91);
    const auto dirty = [&](const fuzz::FuzzCase& c) {
        // Injector scoped per case, as CaseRunner scopes its own: rewinds
        // happen with no per-case hooks attached.
        const fuzz::Injector inj(lane.soc(), c.faults);
        sys::apply_live(lane.soc(), c.delays);
        lane.soc().run_cycles(cycles, deadline);
    };

    for (int k = 0; k < 2; ++k) {
        fuzz::FuzzCase c = campaign.random_case(rng);
        if (k == 0) c.faults.clear();
        SCOPED_TRACE(k == 0 ? "fault-free" : "faulted");

        lane.rewind();
        dirty(c);
        lane.rewind();  // trusted parse through the program's plan
        EXPECT_EQ(lane.soc().pristine_image().digest(), pristine);

        dirty(c);
        lane.soc().reset_from_image(lane.pristine());  // strict full parse
        EXPECT_EQ(lane.soc().pristine_image().digest(), pristine);
    }
}

TEST(GangRewind, PlanRewindMatchesStrictRestoreShippedSpecs) {
    for (const auto& name : sys::named_specs()) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 40;
        cfg.classes = classes_for(name);
        const fuzz::Campaign campaign(cfg);
        check_rewind_equivalence(campaign, cfg.cycles);
    }
}

TEST(GangRewind, PlanRewindMatchesStrictRestoreTopoFixtures) {
    for (const char* file : {"mesh_8x8.stspec", "star_64.stspec"}) {
        SCOPED_TRACE(file);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = file;
        cfg.cycles = 40;
        cfg.classes = fuzz::all_fault_classes();
        const fuzz::Campaign campaign(cfg, fixture_spec(file));
        check_rewind_equivalence(campaign, cfg.cycles);
    }
}

// The warm-up rewind target: after fault-free and faulted cases, rewinding
// to the campaign's prefix image through its plan and through a strict
// parse must both land on the prefix state exactly.
TEST(GangRewind, WarmupPrefixPlanRewindMatchesStrictRestore) {
    for (const auto& name : sys::named_specs()) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 40;
        cfg.warmup_cycles = 20;
        cfg.classes = classes_for(name);
        const fuzz::Campaign campaign(cfg);
        const snap::Snapshot& prefix = campaign.warmup_prefix();
        const snap::RewindPlan* plan = campaign.warmup_prefix_plan();
        ASSERT_NE(plan, nullptr);

        gang::Lane lane(campaign.program(), {.golden = &campaign.golden_index(),
                                             .monitor = true});
        sim::Rng rng(57);
        for (int k = 0; k < 2; ++k) {
            fuzz::FuzzCase c = campaign.random_case(rng);
            if (k == 0) c.faults.clear();
            SCOPED_TRACE(k == 0 ? "fault-free" : "faulted");
            for (const snap::RewindPlan* p :
                 {plan, static_cast<const snap::RewindPlan*>(nullptr)}) {
                lane.rewind(prefix, p);
                EXPECT_EQ(lane.soc().state_digest(), prefix.digest())
                    << (p != nullptr ? "plan" : "strict");
                const fuzz::Injector inj(lane.soc(), c.faults);
                sys::apply_live(lane.soc(), c.delays);
                lane.soc().run_cycles(cfg.cycles, sim::ms(2000));
            }
        }
    }
}

// --- program ------------------------------------------------------------------

// Program::get is a plain factory with no process-wide cache: every call
// elaborates a program of its own. The shared_ptr overload keeps the
// caller's spec, the const& overload copies it once, and both images are
// the same pristine state.
TEST(GangProgram, GetElaboratesAProgramPerCall) {
    for (const auto& name : sys::named_specs()) {
        SCOPED_TRACE(name);
        const auto spec =
            std::make_shared<const sys::SocSpec>(sys::make_named_spec(name));
        const auto shared = gang::Program::get(spec);
        const auto copied = gang::Program::get(*spec);
        const auto again = gang::Program::get(spec);
        EXPECT_NE(shared.get(), again.get());
        EXPECT_EQ(shared->spec_ptr().get(), spec.get());
        EXPECT_EQ(again->spec_ptr().get(), spec.get());
        EXPECT_NE(copied->spec_ptr().get(), spec.get());
        EXPECT_EQ(shared->digest(), copied->digest());
        EXPECT_EQ(shared->digest(), again->digest());
    }
    EXPECT_THROW(gang::Program::get(std::shared_ptr<const sys::SocSpec>{}),
                 std::invalid_argument);
}

// The campaign owns one program and hands that pointer to every worker's
// lane: a CaseRunner adds a holder of the campaign's program and its Soc
// elaborates from the program's spec, never from a copy.
TEST(GangProgram, CampaignLanesShareItsProgram) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "triangle";
    cfg.cycles = 40;
    const fuzz::Campaign campaign(cfg);
    const long holders = campaign.program().use_count();
    {
        const fuzz::CaseRunner a(campaign);
        const fuzz::CaseRunner b(campaign);
        EXPECT_EQ(campaign.program().use_count(), holders + 2);
    }
    EXPECT_EQ(campaign.program().use_count(), holders);

    gang::Lane lane(campaign.program(), {});
    EXPECT_EQ(lane.program().get(), campaign.program().get());
    EXPECT_EQ(&lane.soc().spec(), &campaign.spec());
    EXPECT_EQ(lane.checker(), nullptr);
    EXPECT_EQ(lane.monitor(), nullptr);
}

}  // namespace
