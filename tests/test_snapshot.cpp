// Determinism contract for the snap:: state layer (ISSUE 4 satellite 1):
// saving at local cycle k and restoring into a freshly elaborated Soc must
// be observationally invisible — digests, cycle-indexed traces, scheduler
// event counts, continuation VCD output, and the Fig. 2 annotated digest
// all match the unsplit run byte-for-byte, including under DelayConfig
// perturbation and across a resumed fault-injection run.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "debug/driver.hpp"
#include "fuzz/fault.hpp"
#include "fuzz/injector.hpp"
#include "snap/snapshot.hpp"
#include "snap/state_io.hpp"
#include "system/delay_config.hpp"
#include "system/fig2_digest.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "system/vcd_probe.hpp"

namespace st {
namespace {

constexpr std::uint64_t kPrefix = 40;   // save point, local cycles
constexpr std::uint64_t kTotal = 100;   // continuation goal
const sim::Time kDeadline = sim::us(100);

// --- chunk format unit tests -------------------------------------------

TEST(StateIo, PrimitivesRoundTrip) {
    snap::StateWriter w;
    w.begin_group("top");
    w.begin("leaf", 3);
    w.u8(0xab);
    w.u16(0xcdef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.b(true);
    w.str("hello");
    w.blob({1, 2, 3});
    w.end();
    w.end();

    snap::StateReader r(w.bytes());
    r.enter("top");
    EXPECT_EQ(r.enter("leaf", 3), 3);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xcdef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
    r.leave();
    r.leave();
    EXPECT_TRUE(r.done());
}

TEST(StateIo, RejectsNameMismatchNewerVersionAndUnreadBytes) {
    snap::StateWriter w;
    w.begin("alpha", 2);
    w.u64(7);
    w.end();
    const auto image = w.take();

    {
        snap::StateReader r(image);
        EXPECT_THROW(r.enter("beta"), snap::SnapshotError);
    }
    {
        snap::StateReader r(image);
        EXPECT_THROW(r.enter("alpha", /*max_version=*/1),
                     snap::SnapshotError);
    }
    {
        snap::StateReader r(image);
        r.enter("alpha", 2);
        EXPECT_THROW(r.leave(), snap::SnapshotError);  // u64 never read
    }
}

TEST(Snapshot, FileRoundTripAndMagicCheck) {
    snap::StateWriter w;
    w.begin("x");
    w.u64(42);
    w.end();
    const snap::Snapshot snap(w.take());

    const std::string path = ::testing::TempDir() + "/st_snapshot_test.snap";
    snap.save_file(path);
    const snap::Snapshot back = snap::Snapshot::load_file(path);
    EXPECT_EQ(snap, back);
    EXPECT_EQ(snap.digest(), back.digest());

    // Corrupt the magic: the loader must reject, not misparse.
    {
        std::FILE* f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fputc('X', f);
        std::fclose(f);
    }
    EXPECT_THROW(snap::Snapshot::load_file(path), snap::SnapshotError);
    std::remove(path.c_str());
}

// --- whole-Soc restore equivalence -------------------------------------

struct SplitResult {
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    verify::TraceSet traces;
};

SplitResult run_unsplit(const sys::SocSpec& spec) {
    sys::Soc soc(spec);
    soc.run_cycles(kTotal, kDeadline);
    soc.settle();
    SplitResult out;
    out.digest = soc.state_digest();
    out.events = soc.scheduler().events_executed();
    out.traces = soc.traces();
    return out;
}

SplitResult run_split(const sys::SocSpec& spec) {
    snap::Snapshot snap;
    {
        sys::Soc soc(spec);
        soc.run_cycles(kPrefix, kDeadline);
        soc.settle();
        snap = soc.save_snapshot();
    }
    sys::Soc fresh(spec);
    fresh.restore_snapshot(snap);
    fresh.run_cycles(kTotal, kDeadline);
    fresh.settle();
    SplitResult out;
    out.digest = fresh.state_digest();
    out.events = fresh.scheduler().events_executed();
    out.traces = fresh.traces();
    return out;
}

class RestoreEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(RestoreEquivalence, SplitRunMatchesUnsplitRun) {
    const sys::SocSpec spec = sys::make_named_spec(GetParam());
    const SplitResult a = run_unsplit(spec);
    const SplitResult b = run_split(spec);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.traces, b.traces);
}

INSTANTIATE_TEST_SUITE_P(AllShippedSpecs, RestoreEquivalence,
                         ::testing::ValuesIn(sys::named_specs()),
                         [](const auto& info) { return info.param; });

TEST(RestoreEquivalencePerturbed, SplitMatchesUnsplitUnderDelayConfig) {
    const sys::SocSpec nominal = sys::make_pair_spec();
    sys::DelayConfig cfg = sys::DelayConfig::nominal(nominal);
    cfg.fifo_pct.assign(cfg.fifo_pct.size(), 150);
    cfg.ring_ab_pct.assign(cfg.ring_ab_pct.size(), 75);
    cfg.clock_pct.back() = 150;
    const sys::SocSpec perturbed = sys::apply(nominal, cfg);

    const SplitResult a = run_unsplit(perturbed);
    const SplitResult b = run_split(perturbed);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.traces, b.traces);
}

TEST(RestoreEquivalenceVcd, ContinuationVcdIsByteIdentical) {
    for (const char* name : {"pair", "triangle"}) {
        const sys::SocSpec spec = sys::make_named_spec(name);

        // Original: run to the save point (probe-less — VCD pulse-clear
        // events are external to the model and may not straddle a
        // snapshot), save, then attach a probe and continue.
        sys::Soc a(spec);
        a.run_cycles(kPrefix, kDeadline);
        a.settle();
        const snap::Snapshot snap = a.save_snapshot();
        std::ostringstream vcd_a;
        sys::VcdProbe probe_a(a, vcd_a);
        a.run_cycles(kTotal, kDeadline);

        // Restored: fork from the snapshot, attach an identical probe,
        // continue to the same goal.
        sys::Soc b(spec);
        b.restore_snapshot(snap);
        std::ostringstream vcd_b;
        sys::VcdProbe probe_b(b, vcd_b);
        b.run_cycles(kTotal, kDeadline);

        EXPECT_EQ(vcd_a.str(), vcd_b.str()) << "spec " << name;
        EXPECT_FALSE(vcd_a.str().empty());
    }
}

TEST(RestoreEquivalenceFaults, ResumedFaultRunMatchesUnsplit) {
    const sys::SocSpec spec = sys::make_pair_spec();
    std::vector<fuzz::Fault> faults;
    {
        fuzz::Fault f;  // drop the 6th token arriving at ring 0 side b
        f.cls = fuzz::FaultClass::kTokenDropWire;
        f.unit = 0;
        f.side = 1;
        f.nth = 6;
        faults.push_back(f);
        fuzz::Fault s;  // spurious token late in the run window
        s.cls = fuzz::FaultClass::kSpuriousToken;
        s.unit = 0;
        s.side = 0;
        s.nth = 1;
        s.value = 60'000;  // ps; after the save point
        faults.push_back(s);
    }

    // Unsplit faulted run.
    SplitResult a;
    {
        sys::Soc soc(spec);
        fuzz::Injector inj(soc, faults);
        soc.run_cycles(kTotal, kDeadline);
        soc.settle();
        a.digest = soc.save_snapshot([&](snap::StateWriter& w) {
                          inj.save_state(w);
                      }).digest();
        a.events = soc.scheduler().events_executed();
        a.traces = soc.traces();
    }

    // Split faulted run: the injector's trigger counters and pending
    // spurious event ride in the image as an extra chunk.
    SplitResult b;
    {
        snap::Snapshot snap;
        {
            sys::Soc soc(spec);
            fuzz::Injector inj(soc, faults);
            soc.run_cycles(kPrefix, kDeadline);
            soc.settle();
            snap = soc.save_snapshot(
                [&](snap::StateWriter& w) { inj.save_state(w); });
        }
        sys::Soc soc(spec);
        fuzz::Injector inj(soc, faults, /*defer_spurious=*/true);
        soc.restore_snapshot(snap, [&](snap::StateReader& r) {
            inj.restore_state(r);
        });
        soc.run_cycles(kTotal, kDeadline);
        soc.settle();
        b.digest = soc.save_snapshot([&](snap::StateWriter& w) {
                          inj.save_state(w);
                      }).digest();
        b.events = soc.scheduler().events_executed();
        b.traces = soc.traces();
    }

    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.traces, b.traces);
}

// --- Fig. 2 digest across a snapshot boundary --------------------------

// Re-implements sys::capture_fig2's annotation rules with the run split at
// local cycle `k`: the restored Soc gets a fresh annotator whose edge state
// is seeded from the value the first leg's annotator last wrote, and the
// two trace legs are spliced into one sequence.
struct Fig2Prev {
    bool clken = true;
    bool sb_en = true;
    std::uint32_t rec = 0;
};

// Attaches the capture_fig2 annotation rules to `soc`, appending to `trace`
// and tracking the per-edge sampled state in `*prev`.
void annotate_fig2(sys::Soc& soc, sys::Fig2Trace& trace,
                   std::shared_ptr<Fig2Prev> prev, std::uint32_t hold) {
    auto& node = soc.ring_node(0, 0);
    auto& clk = soc.wrapper(0).clock();
    auto* tp = &trace;
    const auto push = [tp](char code, sim::Time t) {
        tp->events.push_back(sys::Fig2Event{code, t});
    };
    soc.ring(0).on_pass([push](std::size_t i, sim::Time t) {
        if (i == 0) push('F', t);
    });
    auto* np = &node;
    soc.ring(0).on_arrive([np, push](std::size_t i, sim::Time t) {
        if (i == 0) push(np->waiting() ? 'K' : 'A', t);
    });
    clk.on_edge([np, push, hold, prev](std::uint64_t, sim::Time t) {
        const Fig2Prev& p = *prev;
        if (p.clken && !np->clken()) {
            push('I', t);
            push('J', t);
        }
        if (!p.clken && np->clken()) push('L', t);
        if (!p.sb_en && np->sb_en()) push('C', t);
        if (p.sb_en && !np->sb_en()) {
            push('G', t);
            push('E', t);
        }
        if (np->sb_en() && np->hold_count() < hold) push('D', t);
        if (np->recycle_count() > 0 && np->recycle_count() < p.rec) {
            push('H', t);
        }
        if (p.rec > 0 && np->recycle_count() == 0) push('B', t);
        *prev = Fig2Prev{np->clken(), np->sb_en(), np->recycle_count()};
    });
}

sys::Fig2Trace capture_fig2_split(std::uint64_t k, std::uint64_t total) {
    sys::PairOptions opt;
    opt.hold = 3;
    opt.token_delay = 1600;
    opt.recycle_override = 5;
    const sys::SocSpec spec = sys::make_pair_spec(opt);

    sys::Fig2Trace trace;
    snap::Snapshot snap;
    Fig2Prev boundary;
    {
        sys::Soc soc(spec);
        auto prev = std::make_shared<Fig2Prev>();
        annotate_fig2(soc, trace, prev, opt.hold);
        soc.run_cycles(k, sim::us(1));
        soc.settle();
        boundary = *prev;
        snap = soc.save_snapshot();
    }
    {
        sys::Soc soc(spec);
        soc.restore_snapshot(snap);
        annotate_fig2(soc, trace, std::make_shared<Fig2Prev>(boundary),
                      opt.hold);
        soc.run_cycles(total, sim::us(1));
    }
    return trace;
}

TEST(Fig2Snapshot, SplitRunReproducesTheGoldenDigest) {
    const sys::Fig2Trace whole = sys::capture_fig2(24);
    const sys::Fig2Trace split = capture_fig2_split(10, 24);
    EXPECT_EQ(whole.sequence(), split.sequence());
    EXPECT_EQ(whole.digest(), split.digest());
}

// --- guard rails -------------------------------------------------------

TEST(SnapshotGuards, SaveRequiresStartAndRestoreRequiresFreshSoc) {
    const sys::SocSpec spec = sys::make_pair_spec();
    sys::Soc cold(spec);
    EXPECT_THROW(cold.save_snapshot(), snap::SnapshotError);

    sys::Soc running(spec);
    running.run_cycles(kPrefix, kDeadline);
    running.settle();
    const snap::Snapshot snap = running.save_snapshot();

    EXPECT_THROW(running.restore_snapshot(snap), snap::SnapshotError);
}

TEST(SnapshotGuards, StructureMismatchIsRejected) {
    sys::Soc pair(sys::make_pair_spec());
    pair.run_cycles(kPrefix, kDeadline);
    pair.settle();
    const snap::Snapshot snap = pair.save_snapshot();

    sys::Soc triangle(sys::make_triangle_spec());
    EXPECT_THROW(triangle.restore_snapshot(snap), snap::SnapshotError);
}

TEST(SnapshotGuards, DiffLocalisesDivergence) {
    const sys::SocSpec spec = sys::make_pair_spec();
    sys::Soc a(spec);
    a.run_cycles(kPrefix, kDeadline);
    a.settle();
    const snap::Snapshot sa = a.save_snapshot();

    EXPECT_TRUE(snap::diff_snapshots(sa, sa).empty());

    a.run_cycles(kPrefix + 10, kDeadline);
    a.settle();
    const snap::Snapshot sb = a.save_snapshot();
    const auto diffs = snap::diff_snapshots(sa, sb);
    ASSERT_FALSE(diffs.empty());
    // The scheduler chunk must be among the differing leaves (time moved).
    bool saw_sched = false;
    for (const auto& d : diffs) {
        if (d.path.find("sched") != std::string::npos) saw_sched = true;
    }
    EXPECT_TRUE(saw_sched) << snap::format_diff(diffs);
}

// --- debug driver ------------------------------------------------------

TEST(DebugDriver, BreakpointStopsAtRequestedLocalCycle) {
    debug::Driver drv(sys::make_pair_spec());
    const debug::StopInfo stop = drv.run_to_cycle(0, 25, kDeadline);
    ASSERT_EQ(stop.reason, debug::StopReason::kBreakpoint);
    EXPECT_GE(drv.cycle(0), 25u);
    // The stop is deterministic: a second session issuing the same command
    // lands on the identical state digest.
    debug::Driver drv2(sys::make_pair_spec());
    drv2.run_to_cycle(0, 25, kDeadline);
    EXPECT_EQ(drv.digest(), drv2.digest());
}

TEST(DebugDriver, SingleStepMakesDeterministicProgress) {
    debug::Driver a(sys::make_pair_spec());
    debug::Driver b(sys::make_pair_spec());
    a.run_to_cycle(0, 10, kDeadline);
    b.run_to_cycle(0, 10, kDeadline);
    for (int i = 0; i < 5; ++i) {
        a.step(3);
        b.step(3);
        EXPECT_EQ(a.digest(), b.digest()) << "after step burst " << i;
    }
}

TEST(DebugDriver, SaveLoadResumesExactly) {
    debug::Driver drv(sys::make_pair_spec());
    drv.run_to_cycle(0, kPrefix, kDeadline);
    const std::string path = ::testing::TempDir() + "/st_debug_test.snap";
    drv.save(path);
    drv.run_to_cycle(0, kTotal, kDeadline);
    const std::uint64_t end_digest = drv.digest();

    drv.load(path);
    EXPECT_GE(drv.cycle(0), kPrefix);
    drv.run_to_cycle(0, kTotal, kDeadline);
    EXPECT_EQ(drv.digest(), end_digest);
    std::remove(path.c_str());
}

TEST(DebugDriverRaceAudit, SettingSurvivesRestoreAndStaysArmed) {
    debug::Driver drv(sys::make_pair_spec());
    drv.set_race_audit(true);
    drv.run_to_cycle(0, kPrefix, kDeadline);
    const auto image = drv.snapshot();
    drv.restore(image);
    // The flag is driver state: the fresh Soc elaborated by restore() must
    // come back with the scheduler audit re-armed.
    EXPECT_TRUE(drv.race_audit());
    EXPECT_TRUE(drv.soc().scheduler().race_audit());
    // And genuinely armed, not just reported: a synthetic same-slot
    // collision on the restored scheduler is recorded.
    int dummy = 0;
    auto& sched = drv.soc().scheduler();
    sched.schedule_after(10, sim::EventTag{&dummy, "writer-a"}, [] {});
    sched.schedule_after(10, sim::EventTag{&dummy, "writer-b"}, [] {});
    drv.step(2000);
    EXPECT_FALSE(drv.races().empty());
}

TEST(DebugDriverRaceAudit, ResumedSessionAuditsLikeTheColdSession) {
    // Cold session: audit enabled over the whole window.
    debug::Driver cold(sys::make_triangle_spec());
    cold.set_race_audit(true);
    cold.run_to_cycle(0, kTotal, kDeadline);
    // Resumed session: audit enabled, snapshot mid-run, restore, continue.
    debug::Driver split(sys::make_triangle_spec());
    split.set_race_audit(true);
    split.run_to_cycle(0, kPrefix, kDeadline);
    const auto image = split.snapshot();
    split.restore(image);
    split.run_to_cycle(0, kTotal, kDeadline);
    // Identical end state, and the audited event stream is race-free in
    // both sessions — the resume changed nothing about the audit.
    EXPECT_EQ(cold.digest(), split.digest());
    EXPECT_TRUE(cold.races().empty());
    EXPECT_TRUE(split.races().empty());
}

TEST(DebugDriverRaceAudit, OffByDefaultAndOffAfterPlainRestore) {
    debug::Driver drv(sys::make_pair_spec());
    EXPECT_FALSE(drv.race_audit());
    drv.run_to_cycle(0, kPrefix, kDeadline);
    drv.restore(drv.snapshot());
    EXPECT_FALSE(drv.soc().scheduler().race_audit());
}

}  // namespace
}  // namespace st
