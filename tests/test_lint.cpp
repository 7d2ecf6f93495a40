#include <gtest/gtest.h>

#include <set>
#include <string>

#include "lint/fixtures.hpp"
#include "lint/lint.hpp"
#include "lint/race_audit.hpp"
#include "sim/scheduler.hpp"
#include "system/testbenches.hpp"

namespace st::lint {
namespace {

// ---------------------------------------------------------------------------
// Shipped testbench specs lint clean (no error-severity diagnostics).
// ---------------------------------------------------------------------------

class ShippedSpecs : public ::testing::TestWithParam<const char*> {
  protected:
    static sys::SocSpec make(const std::string& name) {
        if (name == "pair") return sys::make_pair_spec();
        if (name == "triangle") return sys::make_triangle_spec();
        if (name == "chain") return sys::make_chain_spec();
        if (name == "mesh") return sys::make_mesh_spec();
        if (name == "wide") return sys::make_wide_pair_spec();
        return sys::make_bus_spec();
    }
};

TEST_P(ShippedSpecs, LintsClean) {
    const auto report = lint(ShippedSpecs::make(GetParam()));
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.warnings(), 0u) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ShippedSpecs,
                         ::testing::Values("pair", "triangle", "chain",
                                           "mesh", "wide", "bus"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

// The tuned pair schedule intentionally runs inside the one-cycle alignment
// margin: the linter must explain that (note), not reject it (error).
TEST(ShippedSpecNotes, TunedPairScheduleIsANoteNotAnError) {
    const auto report = lint(sys::make_pair_spec());
    EXPECT_TRUE(report.ok());
    EXPECT_FALSE(report.for_rule("recycle-feasibility").empty());
    for (const auto& d : report.for_rule("recycle-feasibility")) {
        EXPECT_EQ(d.severity, Severity::kNote) << d.to_string();
    }
}

// ---------------------------------------------------------------------------
// Every broken fixture trips exactly its expected rule at error severity.
// ---------------------------------------------------------------------------

TEST(Fixtures, CatalogMatchesCMakeList) {
    // tools/CMakeLists.txt hardcodes these names for the WILL_FAIL tests.
    std::set<std::string> names;
    for (const auto& f : fixture_catalog()) names.insert(f.name);
    const std::set<std::string> expected = {
        "bad-channel-ring", "two-initial-holders", "undersized-fifo",
        "starved-recycle",  "counter-overflow",    "deadlock-cycle"};
    EXPECT_EQ(names, expected);
}

TEST(Fixtures, EachTriggersExactlyItsRule) {
    for (const auto& f : fixture_catalog()) {
        const auto report = lint(make_fixture(f.name));
        EXPECT_FALSE(report.ok()) << f.name << " should fail";
        EXPECT_TRUE(report.has_error(f.expected_rule))
            << f.name << " expected rule " << f.expected_rule << "\n"
            << report.to_string();
        for (const auto& d : report.diagnostics()) {
            if (d.severity == Severity::kError) {
                EXPECT_EQ(d.rule, f.expected_rule)
                    << f.name << " leaked an extra error:\n"
                    << d.to_string();
            }
        }
    }
}

TEST(Fixtures, UnknownNameThrows) {
    EXPECT_THROW(make_fixture("no-such-fixture"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Individual passes on hand-rolled malformed specs.
// ---------------------------------------------------------------------------

TEST(StructuralPasses, OutOfRangeIndicesStopTheRun) {
    sys::SocSpec spec = sys::make_pair_spec();
    spec.rings.at(0).sb_b = 7;  // only 2 SBs exist
    const auto report = lint(spec);
    EXPECT_TRUE(report.has_error("ring-endpoints"));
    // Deeper passes were skipped — no schedule arithmetic on bad indices.
    EXPECT_TRUE(report.for_rule("recycle-feasibility").empty());
}

TEST(StructuralPasses, IsolatedSbIsAWarning) {
    auto spec = sys::make_pair_spec();
    sys::SbSpec loner;
    loner.name = "loner";
    loner.clock.base_period = 1000;
    loner.make_kernel = spec.sbs[0].make_kernel;
    spec.sbs.push_back(loner);
    const auto report = lint(spec);
    EXPECT_TRUE(report.ok()) << report.to_string();
    const auto diags = report.for_rule("isolated-sb");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::kWarning);
    EXPECT_NE(diags[0].locus.find("loner"), std::string::npos);
}

TEST(StructuralPasses, ZeroHoldIsRejected) {
    auto spec = sys::make_pair_spec();
    spec.rings.at(0).node_a.hold = 0;
    EXPECT_TRUE(lint(spec).has_error("param-sanity"));
}

TEST(StructuralPasses, NoInitialHolderIsRejected) {
    auto spec = sys::make_pair_spec();
    spec.rings.at(0).node_a.initial_holder = false;
    EXPECT_TRUE(lint(spec).has_error("initial-holder"));
}

TEST(StructuralPasses, MultiRingDuplicateMemberIsRejected) {
    auto spec = sys::make_bus_spec();
    spec.multi_rings.at(0).members.at(1).sb =
        spec.multi_rings.at(0).members.at(0).sb;
    EXPECT_TRUE(lint(spec).has_error("ring-endpoints"));
}

TEST(StructuralPasses, MultiRingNonMemberChannelIsRejected) {
    auto spec = sys::make_bus_spec();
    // Detach SB 2 from the bus; its channels now reference a non-member.
    auto& members = spec.multi_rings.at(0).members;
    members.erase(members.begin() + 2);
    const auto report = lint(spec);
    EXPECT_TRUE(report.has_error("channel-ring")) << report.to_string();
}

TEST(TimingPasses, HeadVisibilityWarnsOnSlowDeepFifo) {
    auto spec = sys::make_pair_spec();
    spec.channels.at(0).fifo.stage_delay = 400;  // 4 stages * 400 >> 900
    const auto report = lint(spec);
    EXPECT_TRUE(report.ok()) << report.to_string();  // warning, not error
    EXPECT_FALSE(report.for_rule("fifo-head-visibility").empty());
}

TEST(TimingPasses, ClockRatioWarnsBeyondFourX) {
    sys::PairOptions opt;
    opt.period_b = 5000;  // 5x the 1000 ps side
    const auto report = lint(sys::make_pair_spec(opt));
    EXPECT_FALSE(report.for_rule("clock-ratio").empty())
        << report.to_string();
}

TEST(TimingPasses, RestartDelayNearPeriodWarns) {
    auto spec = sys::make_pair_spec();
    spec.sbs.at(0).clock.restart_delay = 600;  // >= half of 1000 ps
    EXPECT_FALSE(lint(spec).for_rule("restart-delay").empty());
}

// A zero clock period is a param-sanity error, and the timing passes, whose
// arithmetic divides by the local period, are skipped with a note.
TEST(TimingPasses, ZeroClockPeriodSkipsTimingPasses) {
    for (const bool zero_divider : {false, true}) {
        SCOPED_TRACE(zero_divider ? "divider=0" : "period=0");
        auto spec = sys::make_pair_spec();
        if (zero_divider) {
            spec.sbs.at(0).clock.divider = 0;
        } else {
            spec.sbs.at(1).clock.base_period = 0;
        }
        const auto report = lint(spec);
        EXPECT_TRUE(report.has_error("param-sanity")) << report.to_string();
        EXPECT_TRUE(report.for_rule("recycle-feasibility").empty());
        bool skipped = false;
        for (const auto& d : report.for_rule("param-sanity")) {
            skipped |= d.severity == Severity::kNote &&
                       d.message.find("timing passes skipped") !=
                           std::string::npos;
        }
        EXPECT_TRUE(skipped) << report.to_string();
    }
}

// A base period and divider whose product wraps to zero are caught too.
TEST(StructuralPasses, OverflowingClockPeriodIsRejected) {
    auto spec = sys::make_pair_spec();
    spec.sbs.at(0).clock.base_period = sim::Time{1} << 62;
    spec.sbs.at(0).clock.divider = 4;
    const auto report = lint(spec);
    EXPECT_TRUE(report.has_error("param-sanity")) << report.to_string();
    EXPECT_TRUE(report.for_rule("recycle-feasibility").empty());
}

// An under-provisioned multi-ring is judged once per member (its stations
// differ only in their peer SB), with the ceil(absence / T_local) hint, and
// a lone multi-ring cannot deadlock itself.
TEST(TimingPasses, UnderProvisionedMultiRingReportsEachMemberOnce) {
    auto spec = sys::make_bus_spec({.size = 3});
    for (auto& m : spec.multi_rings.at(0).members) m.node.recycle = 2;
    const auto report = lint(spec);
    const auto diags = report.for_rule("recycle-feasibility");
    ASSERT_EQ(diags.size(), 3u) << report.to_string();
    EXPECT_EQ(diags[0].locus, "multi-ring 'bus' node in SB 'node0'");
    EXPECT_EQ(diags[0].severity, Severity::kError);
    EXPECT_EQ(diags[0].fix_hint, "raise the recycle register to >= 12");
    EXPECT_FALSE(report.has_error("deadlock-fixpoint"));
}

// ---------------------------------------------------------------------------
// Diagnostic formatting.
// ---------------------------------------------------------------------------

TEST(DiagnosticFormat, GccStyleLine) {
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.rule = "clock-ratio";
    d.locus = "ring 'r0'";
    d.message = "ratio 5 exceeds 4";
    EXPECT_EQ(d.to_string(), "ring 'r0': warning: ratio 5 exceeds 4 "
                             "[clock-ratio]");
    d.fix_hint = "retune dividers";
    EXPECT_NE(d.to_string().find("note: fix: retune dividers"),
              std::string::npos);
}

TEST(DiagnosticFormat, ReportSummaryCounts) {
    LintReport r;
    r.add(Severity::kError, "a", "x", "m1");
    r.add(Severity::kWarning, "b", "y", "m2");
    r.add(Severity::kNote, "b", "z", "m3");
    EXPECT_EQ(r.errors(), 1u);
    EXPECT_EQ(r.warnings(), 1u);
    EXPECT_EQ(r.notes(), 1u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.for_rule("b").size(), 2u);
    EXPECT_NE(r.to_string().find("1 error(s), 1 warning(s), 1 note(s)"),
              std::string::npos);
}

TEST(PassCatalog, IsPopulated) {
    EXPECT_GE(pass_catalog().size(), 8u);
}

// ---------------------------------------------------------------------------
// Scheduler race audit: fires on a synthetic same-slot same-actor pair,
// silent on the shipped testbenches.
// ---------------------------------------------------------------------------

TEST(RaceAudit, SyntheticSameSlotRaceIsDetected) {
    sim::Scheduler sched;
    sched.set_race_audit(true);
    int dummy = 0;
    sched.schedule_after(100, sim::EventTag{&dummy, "writer-a"}, [] {});
    sched.schedule_after(100, sim::EventTag{&dummy, "writer-b"}, [] {});
    sched.run();
    ASSERT_EQ(sched.races().size(), 1u);
    EXPECT_EQ(sched.races()[0].t, 100u);
    EXPECT_EQ(sched.races()[0].first, "writer-a");
    EXPECT_EQ(sched.races()[0].second, "writer-b");

    LintReport report;
    collect_race_diagnostics(sched, report);
    EXPECT_TRUE(report.has_error("sched-race"));
}

TEST(RaceAudit, DistinctActorsOrSlotsDoNotFire) {
    sim::Scheduler sched;
    sched.set_race_audit(true);
    int a = 0, b = 0;
    sched.schedule_after(100, sim::EventTag{&a, "x"}, [] {});
    sched.schedule_after(100, sim::EventTag{&b, "y"}, [] {});  // other actor
    sched.schedule_after(200, sim::EventTag{&a, "z"}, [] {});  // other slot
    sched.schedule_after(200, sim::Priority::kMonitor,
                         sim::EventTag{&a, "w"}, [] {});  // other priority
    sched.schedule_after(300, [] {});                     // untagged
    sched.schedule_after(300, [] {});
    sched.run();
    EXPECT_TRUE(sched.races().empty());
}

TEST(DiagnosticFormat, JsonObjectEscapesAndOmitsEmptyFields) {
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.rule = "fifo-depth";
    d.locus = "channel \"x\"";
    d.message = "line1\nline2";
    EXPECT_EQ(d.to_json(),
              "{\"rule\":\"fifo-depth\",\"severity\":\"warning\","
              "\"locus\":\"channel \\\"x\\\"\","
              "\"message\":\"line1\\nline2\"}");
    d.fix_hint = "raise depth";
    d.witness = "delays{fifo0=200%}";
    EXPECT_NE(d.to_json().find("\"fix_hint\":\"raise depth\""),
              std::string::npos);
    EXPECT_NE(d.to_json().find("\"witness\":\"delays{fifo0=200%}\""),
              std::string::npos);
}

TEST(DiagnosticFormat, ReportJsonIsAnArray) {
    LintReport r;
    r.add(Severity::kError, "a-rule", "spot", "msg");
    r.add(Severity::kNote, "b-rule", "spot2", "msg2");
    const std::string j = r.to_json();
    EXPECT_EQ(j.front(), '[');
    EXPECT_EQ(j.back(), ']');
    EXPECT_NE(j.find("\"rule\":\"a-rule\""), std::string::npos);
    EXPECT_NE(j.find("},{"), std::string::npos);
}

TEST(DiagnosticFormat, CanonicalizeSortsByCatalogOrderThenLocus) {
    LintReport r;
    r.add(Severity::kNote, "zzz-unknown", "b", "m");
    r.add(Severity::kError, "fifo-depth", "z", "m");
    r.add(Severity::kError, "fifo-depth", "a", "m");
    r.add(Severity::kNote, "channel-ring", "x", "m");
    r.add(Severity::kNote, "aaa-unknown", "a", "m");
    r.canonicalize({"channel-ring", "fifo-depth"});
    const auto& d = r.diagnostics();
    ASSERT_EQ(d.size(), 5u);
    EXPECT_EQ(d[0].rule, "channel-ring");
    EXPECT_EQ(d[1].locus, "a");  // fifo-depth sorted by locus
    EXPECT_EQ(d[2].locus, "z");
    EXPECT_EQ(d[3].rule, "aaa-unknown");  // unknown rules last, by name
    EXPECT_EQ(d[4].rule, "zzz-unknown");
}

TEST(RaceAudit, AuditOffRecordsNothing) {
    sim::Scheduler sched;
    int dummy = 0;
    sched.schedule_after(10, sim::EventTag{&dummy, "a"}, [] {});
    sched.schedule_after(10, sim::EventTag{&dummy, "b"}, [] {});
    sched.run();
    EXPECT_TRUE(sched.races().empty());
}

class RaceAuditShipped : public ::testing::TestWithParam<const char*> {};

TEST_P(RaceAuditShipped, Tier1TestbenchesAreSilent) {
    const std::string name = GetParam();
    sys::SocSpec spec;
    if (name == "pair") {
        spec = sys::make_pair_spec();
    } else if (name == "triangle") {
        spec = sys::make_triangle_spec();
    } else if (name == "wide") {
        spec = sys::make_wide_pair_spec();
    } else {
        spec = sys::make_bus_spec();
    }
    const auto report = run_race_audit(spec, 300, sim::ms(200));
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_TRUE(report.diagnostics().empty()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Topologies, RaceAuditShipped,
                         ::testing::Values("pair", "triangle", "wide", "bus"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

}  // namespace
}  // namespace st::lint
