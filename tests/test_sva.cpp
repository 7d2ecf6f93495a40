// Tests for the sva static-verification layer: token-flow graph lowering,
// the five proof-obligation passes, witness concretization + dynamic
// cross-check, the .stspec text format, the ring-of-rings generator, and the
// repro-corpus pipeline. The headline properties:
//
//  * every shipped testbench spec is statically PROVEN on all obligations;
//  * every fixture defect is flagged by its pass and the concretized witness
//    replays to the recorded verdict (CONFIRMED, or RETRACTED for the
//    deliberate over-approximation demo);
//  * the verifier's deadlock verdict is the dl::StallModel fixpoint's;
//  * output is invariant under --jobs.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "deadlock/stall.hpp"
#include "fuzz/repro.hpp"
#include "lint/lint.hpp"
#include "sva/fixtures.hpp"
#include "sva/graph.hpp"
#include "sva/spec_text.hpp"
#include "sva/verify.hpp"
#include "system/delay_config.hpp"
#include "system/testbenches.hpp"

namespace {

using namespace st;

std::string read_file(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << p;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool has_nonproven(const std::vector<sva::Obligation>& obs,
                   const std::string& pass) {
    for (const auto& ob : obs) {
        if (ob.pass == pass && ob.verdict != sva::Verdict::kProven) {
            return true;
        }
    }
    return false;
}

// --- lowering --------------------------------------------------------------

TEST(SvaGraph, LowersPairGeometry) {
    const auto g = sva::lower(sys::make_pair_spec());
    EXPECT_TRUE(g.ok());
    EXPECT_EQ(g.sbs.size(), 2u);
    EXPECT_EQ(g.rings.size(), 1u);
    EXPECT_EQ(g.stall.stations.size(), 2u);  // one per ring endpoint
    EXPECT_EQ(g.fifos.size(), 2u);
    for (const auto& st : g.stall.stations) {
        EXPECT_GT(st.provisioned, 0u);
        EXPECT_GT(st.away, 0u);
    }
}

TEST(SvaGraph, LowersBusMultiRingPairwise) {
    const auto spec = sys::make_bus_spec();
    const auto g = sva::lower(spec);
    EXPECT_TRUE(g.ok());
    ASSERT_EQ(spec.multi_rings.size(), 1u);
    const std::size_t m = spec.multi_rings[0].members.size();
    // One station per (member, other-member) pair, as in DESIGN.md §6.
    EXPECT_EQ(g.stall.stations.size(), m * (m - 1));
}

TEST(SvaGraph, StructurallyBrokenSpecLowersWithDefects) {
    const auto g = sva::lower(sva::make_fixture("bad-channel-ring"));
    EXPECT_FALSE(g.ok());
    EXPECT_FALSE(g.structural.empty());
    // The binding defect is replayable: elaboration traps deterministically.
    EXPECT_FALSE(g.trap_defects.empty());
}

TEST(SvaGraph, NeverThrowsOnIllIndexedSpec) {
    auto spec = sys::make_pair_spec();
    spec.rings[0].sb_b = 99;  // out of range
    spec.channels[0].to_sb = 42;
    const auto g = sva::lower(spec);
    EXPECT_FALSE(g.ok());
    // Ill-indexed defects are not replayable (elaboration is UB-adjacent).
    EXPECT_TRUE(g.trap_defects.empty());
}

// --- deadlock pass vs. the stall model -------------------------------------

TEST(SvaDeadlock, AgreesWithCheckRulesOnAllSpecs) {
    std::vector<std::pair<std::string, sys::SocSpec>> specs;
    for (const auto& name : sys::named_specs()) {
        specs.emplace_back(name, sys::make_named_spec(name));
    }
    specs.emplace_back("starved-cycle", sva::make_fixture("starved-cycle"));
    specs.emplace_back("deadlock-cycle", sva::make_fixture("deadlock-cycle"));
    for (const auto& [name, spec] : specs) {
        const auto obs = sva::pass_deadlock(sva::lower(spec));
        const bool dl_ok =
            dl::solve_stalls(dl::build_stall_model(spec)).converged;
        EXPECT_EQ(has_nonproven(obs, "sva-deadlock"), !dl_ok)
            << "verdict disagreement on " << name;
    }
}

TEST(SvaDeadlock, DivergenceCertificateNamesTheCycle) {
    const auto obs =
        sva::pass_deadlock(sva::lower(sva::make_fixture("starved-cycle")));
    ASSERT_EQ(obs.size(), 1u);
    EXPECT_EQ(obs[0].verdict, sva::Verdict::kPlausible);
    // The minimal cycle threads all three rings.
    EXPECT_NE(obs[0].evidence.find("ring0"), std::string::npos);
    EXPECT_NE(obs[0].evidence.find("ring1"), std::string::npos);
    EXPECT_NE(obs[0].evidence.find("ring2"), std::string::npos);
    ASSERT_TRUE(obs[0].witness.has_value());
    ASSERT_EQ(obs[0].witness->expect.size(), 1u);
    EXPECT_EQ(obs[0].witness->expect[0], fuzz::Outcome::kDeadlocked);
}

// --- full pipeline ---------------------------------------------------------

TEST(SvaVerify, ShippedSpecsAllProven) {
    for (const auto& name : sys::named_specs()) {
        const auto vr = sva::verify(sys::make_named_spec(name));
        EXPECT_TRUE(vr.clean()) << name << ": " << vr.summary();
        EXPECT_EQ(vr.obligations.size(), 5u) << name;
    }
}

TEST(SvaVerify, FixturesReachTheirRecordedVerdicts) {
    for (const auto& f : sva::fixture_catalog()) {
        const auto vr = sva::verify(sva::make_fixture(f.name));
        bool found = false;
        for (const auto& ob : vr.obligations) {
            if (ob.pass == f.pass && ob.verdict == f.expected) found = true;
            // After the cross-check no finding may remain merely PLAUSIBLE.
            EXPECT_NE(ob.verdict, sva::Verdict::kPlausible)
                << f.name << ": unreplayed " << ob.pass << " @ " << ob.locus;
            // Only the designated retraction demo may retract: a retraction
            // on any other fixture means its witness recipe is wrong.
            if (f.expected != sva::Verdict::kRetracted) {
                EXPECT_NE(ob.verdict, sva::Verdict::kRetracted)
                    << f.name << ": " << ob.pass << " @ " << ob.locus << ": "
                    << ob.replay;
            }
        }
        EXPECT_TRUE(found) << f.name << " did not reach "
                           << sva::verdict_name(f.expected) << " on "
                           << f.pass << ": " << vr.summary();
    }
}

TEST(SvaVerify, WitnessDescriptionIsConcrete) {
    const auto vr = sva::verify(sva::make_fixture("undersized-fifo"));
    for (const auto& ob : vr.obligations) {
        if (ob.pass != "sva-occupancy") continue;
        ASSERT_TRUE(ob.witness.has_value());
        const std::string w = ob.witness->describe();
        EXPECT_NE(w.find("fifo-stall"), std::string::npos) << w;
        EXPECT_NE(w.find("expect={divergent,invariant}"), std::string::npos)
            << w;
    }
}

TEST(SvaVerify, JobsInvariance) {
    for (const auto& name : {"pair", "mesh"}) {
        sva::VerifyOptions one;
        one.jobs = 1;
        sva::VerifyOptions four;
        four.jobs = 4;
        const auto a = sva::verify(sys::make_named_spec(name), one);
        const auto b = sva::verify(sys::make_named_spec(name), four);
        lint::LintReport ra, rb;
        sva::render(a, ra);
        sva::render(b, rb);
        EXPECT_EQ(ra.to_string(), rb.to_string()) << name;
        EXPECT_EQ(ra.to_json(), rb.to_json()) << name;
    }
}

TEST(SvaVerify, StructurallyBrokenSpecSkipsDeepPasses) {
    const auto vr = sva::verify(sva::make_fixture("bad-channel-ring"));
    EXPECT_FALSE(vr.lowered_ok);
    for (const auto& ob : vr.obligations) {
        EXPECT_EQ(ob.pass, "sva-structure");
        EXPECT_EQ(ob.verdict, sva::Verdict::kConfirmed) << ob.replay;
    }
}

// --- spec text + generator -------------------------------------------------

TEST(SpecText, RoundTripsAHandWrittenDoc) {
    sva::SpecDoc doc;
    for (int i = 0; i < 2; ++i) {
        sva::SbDoc sb;
        sb.name = "s" + std::to_string(i);
        sb.period = 1000 + 100u * i;
        sb.seed = 0xABCDu + i;
        doc.sbs.push_back(sb);
    }
    sva::RingDoc r;
    r.name = "r0";
    r.sb_b = 1;
    r.node_a.holder = true;
    r.node_a.recycle = 7;
    r.node_b.recycle = 7;
    r.node_b.has_initial_recycle = true;
    r.node_b.initial_recycle = 5;
    doc.rings.push_back(r);
    sva::ChannelDoc c;
    c.name = "c0";
    c.to_sb = 1;
    doc.channels.push_back(c);

    const auto round = sva::parse_spec_text(sva::to_text(doc));
    EXPECT_EQ(round, doc);

    // The doc elaborates and runs deterministically.
    const auto vr = sva::verify(sva::to_spec(doc));
    EXPECT_EQ(vr.obligations.size(), 5u);
}

TEST(SpecText, RejectsMalformedInputWithLineNumbers) {
    EXPECT_THROW(sva::parse_spec_text(""), std::runtime_error);
    EXPECT_THROW(sva::parse_spec_text("stspec v9\n"), std::runtime_error);
    try {
        sva::parse_spec_text("stspec v1\nsb x period=banana\n");
        FAIL() << "malformed number accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(sva::parse_spec_text("stspec v1\nfrob x y=1\n"),
                 std::runtime_error);
}

// A number that does not fit its field is rejected by name, with its line,
// instead of being truncated into a different spec. Each row names the
// field, the spec line it sits on, and the field's largest value, which
// must still load.
struct NarrowField {
    const char* field;
    std::uint64_t max;
    const char* line;  ///< with @ where the number goes
};

void PrintTo(const NarrowField& row, std::ostream* os) { *os << row.field; }

class SpecTextNarrowing : public ::testing::TestWithParam<NarrowField> {};

TEST_P(SpecTextNarrowing, RejectsAValueThatDoesNotFit) {
    const auto& row = GetParam();
    const auto doc_with = [&](const std::string& value) {
        std::string line = row.line;
        line.replace(line.find('@'), 1, value);
        return "stspec v1\n"
               "sb s0 period=1000 divider=1 phase=0 restart=50 "
               "kernel=noc:mesh,0,0,2,1,2,4,0x1\n"
               "sb s1 period=1000 divider=1 phase=0 restart=50 "
               "kernel=noc:mesh,1,0,2,1,2,4,0x2\n" +
               line + "\n";
    };
    const std::string field = row.field;
    EXPECT_NO_THROW(sva::parse_spec_text(doc_with(std::to_string(row.max))));
    try {
        sva::parse_spec_text(doc_with(std::to_string(row.max + 1)));
        FAIL() << field << "=" << row.max + 1 << " accepted";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("'" + field + "'"), std::string::npos) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fields, SpecTextNarrowing,
    ::testing::Values(
        NarrowField{"divider", 4294967295u,
                    "sb s2 period=1000 divider=@ phase=0 restart=50 "
                    "kernel=traffic:0x3"},
        NarrowField{"hold", 4294967295u,
                    "ring r a=0 b=1 dab=900 dba=900 na=@,7,-,h "
                    "nb=4,7,-,w"},
        NarrowField{"recycle", 4294967295u,
                    "ring r a=0 b=1 dab=900 dba=900 na=4,@,-,h "
                    "nb=4,7,-,w"},
        NarrowField{"initial recycle", 4294967295u,
                    "ring r a=0 b=1 dab=900 dba=900 na=4,7,-,h "
                    "nb=4,7,@,w"},
        NarrowField{"bits", 4294967295u,
                    "chan c from=0 to=1 ring=0 depth=4 stage=100 bits=@ "
                    "head=20,20 tail=20,20"},
        NarrowField{"noc x", 255u,
                    "sb s2 period=1000 divider=1 phase=0 restart=50 "
                    "kernel=noc:mesh,@,0,2,1,2,4,0x3"},
        NarrowField{"noc y", 255u,
                    "sb s2 period=1000 divider=1 phase=0 restart=50 "
                    "kernel=noc:mesh,0,@,2,1,2,4,0x3"},
        NarrowField{"noc width", 255u,
                    "sb s2 period=1000 divider=1 phase=0 restart=50 "
                    "kernel=noc:mesh,0,0,@,1,2,4,0x3"},
        NarrowField{"noc height", 255u,
                    "sb s2 period=1000 divider=1 phase=0 restart=50 "
                    "kernel=noc:mesh,0,0,2,@,2,4,0x3"},
        NarrowField{"noc nodes", 65535u,
                    "sb s2 period=1000 divider=1 phase=0 restart=50 "
                    "kernel=noc:mesh,0,0,2,1,@,4,0x3"},
        NarrowField{"noc inject", 4294967295u,
                    "sb s2 period=1000 divider=1 phase=0 restart=50 "
                    "kernel=noc:mesh,0,0,2,1,2,@,0x3"}),
    [](const auto& info) {
        std::string name = info.param.field;
        std::replace(name.begin(), name.end(), ' ', '_');
        return name;
    });

// The ring-of-rings generator tests (fixture byte-identity, proven-clean at
// 64 SBs) live in test_topo.cpp since the generator moved to src/topo.

// --- repro-corpus pipeline -------------------------------------------------

// Every checked-in fuzz counterexample names a shipped spec and a delay
// configuration; the lint + sva pipeline must run over each reconstructed
// spec without crashing, and the sva obligations must stay PROVEN: delay
// perturbations are absorbed by construction (count-quantization), so no
// determinism or deadlock obligation may flip. lint's per-node
// recycle-feasibility check is a *throughput* bound, not a determinism one
// — a slowed token wire legitimately trips it (recorded per file below)
// while the verifier still proves the schedule deterministic.
TEST(Corpus, ReproSpecsKeepTheirObligationsUnderDelayConfigs) {
    const std::filesystem::path dir = ST_TESTS_DATA_DIR;
    std::size_t seen = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".repro") continue;
        if (entry.path().filename() == "unsupported_version.repro") continue;
        SCOPED_TRACE(entry.path().filename().string());
        const auto repro = fuzz::Repro::parse(read_file(entry.path()));
        const auto nominal = sys::make_named_spec(repro.spec_name);
        const auto perturbed =
            sys::apply(nominal, repro.to_case(nominal).delays);
        const auto report = lint::lint(perturbed);  // must not crash
        const auto vr = sva::verify(perturbed);
        EXPECT_TRUE(vr.clean()) << vr.summary();
        if (entry.path().filename() == "token_drop_deadlock.repro") {
            // Expected verdict on record: the 150% a->b wire overruns the
            // static recycle provision (throughput), determinism holds.
            EXPECT_TRUE(report.has_error("recycle-feasibility"))
                << report.to_string();
        }
        ++seen;
    }
    EXPECT_GE(seen, 1u);  // the corpus must actually be exercised
}

}  // namespace
