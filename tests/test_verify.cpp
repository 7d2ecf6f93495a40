#include <gtest/gtest.h>

#include "verify/determinism.hpp"
#include "verify/io_trace.hpp"
#include "verify/timing_checker.hpp"

namespace st::verify {
namespace {

IoTrace make_trace(const std::string& name,
                   std::initializer_list<IoEvent> events) {
    IoTrace t;
    t.sb_name = name;
    t.events = events;
    return t;
}

TEST(IoTrace, FingerprintSensitiveToEveryField) {
    const IoEvent base{10, IoEvent::Dir::kIn, 0, 0xabc};
    const auto fp = [](IoEvent e) {
        IoTrace t;
        t.events = {e};
        return t.fingerprint();
    };
    IoEvent cycle = base;
    cycle.cycle = 11;
    IoEvent dir = base;
    dir.dir = IoEvent::Dir::kOut;
    IoEvent port = base;
    port.port = 1;
    IoEvent word = base;
    word.word = 0xabd;
    EXPECT_NE(fp(base), fp(cycle));
    EXPECT_NE(fp(base), fp(dir));
    EXPECT_NE(fp(base), fp(port));
    EXPECT_NE(fp(base), fp(word));
    EXPECT_EQ(fp(base), fp(base));
}

TEST(IoTrace, TruncationKeepsOnlyEarlyCycles) {
    const auto t = make_trace("sb", {{5, IoEvent::Dir::kIn, 0, 1},
                                     {99, IoEvent::Dir::kOut, 0, 2},
                                     {100, IoEvent::Dir::kIn, 0, 3},
                                     {250, IoEvent::Dir::kIn, 0, 4}});
    const auto cut = t.truncated(100);
    ASSERT_EQ(cut.events.size(), 2u);
    EXPECT_EQ(cut.events[1].cycle, 99u);
}

TEST(IoTrace, TruncationCutoffIsBinarySearchedOnSortedEvents) {
    // truncated() documents a cycle-sorted precondition (holds for every
    // captured trace: local cycle counters are monotone) and finds its
    // cutoff with std::partition_point. Pin the boundary semantics.
    const auto t = make_trace("sb", {{0, IoEvent::Dir::kIn, 0, 1},
                                     {1, IoEvent::Dir::kOut, 0, 2},
                                     {1, IoEvent::Dir::kIn, 1, 3},
                                     {7, IoEvent::Dir::kIn, 0, 4},
                                     {100, IoEvent::Dir::kIn, 0, 5},
                                     {120, IoEvent::Dir::kOut, 0, 6}});
    EXPECT_EQ(t.truncated(0).events.size(), 0u);    // empty window
    EXPECT_EQ(t.truncated(1).events.size(), 1u);    // cycle < 1
    EXPECT_EQ(t.truncated(2).events.size(), 3u);    // duplicate cycles kept
    EXPECT_EQ(t.truncated(100).events.size(), 4u);  // cycle == n excluded
    EXPECT_EQ(t.truncated(1000).events.size(), 6u);
    EXPECT_EQ(t.truncated(1000).sb_name, "sb");

    IoTrace empty;
    EXPECT_TRUE(empty.truncated(100).events.empty());
}

TEST(DiffTraces, FillsStructuredMismatchLocus) {
    TraceSet a;
    a.emplace("sb", make_trace("sb", {{1, IoEvent::Dir::kIn, 2, 7},
                                      {4, IoEvent::Dir::kIn, 2, 8}}));
    TraceSet value = a;
    value["sb"].events[1].word = 9;
    const auto d = diff_traces(a, value);
    ASSERT_FALSE(d.identical);
    EXPECT_EQ(d.locus.kind, MismatchLocus::Kind::kValue);
    EXPECT_EQ(d.locus.sb, "sb");
    EXPECT_EQ(d.locus.index, 1u);
    EXPECT_EQ(d.locus.cycle, 4u);
    EXPECT_EQ(d.locus.port, 2u);
    ASSERT_TRUE(d.locus.expected.has_value());
    ASSERT_TRUE(d.locus.actual.has_value());
    EXPECT_EQ(d.locus.expected->word, 8u);
    EXPECT_EQ(d.locus.actual->word, 9u);

    TraceSet shorter = a;
    shorter["sb"].events.pop_back();
    const auto ds = diff_traces(a, shorter);
    EXPECT_EQ(ds.locus.kind, MismatchLocus::Kind::kShortfall);
    EXPECT_EQ(ds.locus.index, 1u);

    TraceSet missing;
    const auto dm = diff_traces(a, missing);
    EXPECT_EQ(dm.locus.kind, MismatchLocus::Kind::kMissingSb);
    EXPECT_EQ(dm.locus.sb, "sb");

    EXPECT_FALSE(diff_traces(a, a).locus.valid());
}

TEST(DiffTraces, DetectsValueCycleAndLengthMismatches) {
    TraceSet a;
    a.emplace("sb", make_trace("sb", {{1, IoEvent::Dir::kIn, 0, 7},
                                      {2, IoEvent::Dir::kIn, 0, 8}}));
    TraceSet same = a;
    EXPECT_TRUE(diff_traces(a, same).identical);

    TraceSet value = a;
    value["sb"].events[1].word = 9;
    const auto d1 = diff_traces(a, value);
    EXPECT_FALSE(d1.identical);
    EXPECT_NE(d1.first_mismatch.find("event 1"), std::string::npos);

    TraceSet shifted = a;
    shifted["sb"].events[0].cycle = 3;
    EXPECT_FALSE(diff_traces(a, shifted).identical);

    TraceSet longer = a;
    longer["sb"].events.push_back({4, IoEvent::Dir::kOut, 0, 1});
    const auto d3 = diff_traces(a, longer);
    EXPECT_FALSE(d3.identical);
    EXPECT_NE(d3.first_mismatch.find("events"), std::string::npos);

    TraceSet missing;
    EXPECT_FALSE(diff_traces(a, missing).identical);
}

TEST(DeterminismHarness, CountsMatchesAndCollectsExamples) {
    // Runner records one event whose cycle is the perturbation's parity.
    const auto runner = [](const int& p, RunCapture& cap) {
        const std::size_t slot = cap.add_stream("sb");
        cap.record(slot, {static_cast<std::uint64_t>(p % 2),
                          IoEvent::Dir::kIn, 0, 42});
    };
    DeterminismHarness<int> harness(runner, /*nominal=*/0, /*n_cycles=*/100);
    const auto result = harness.sweep({2, 4, 1, 3, 6});
    EXPECT_EQ(result.runs, 5u);
    EXPECT_EQ(result.matches, 3u);
    EXPECT_EQ(result.mismatches, 2u);
    EXPECT_FALSE(result.all_match());
    // Both odd perturbations mismatch at the same locus; the example list
    // deduplicates, so one entry describes them all.
    EXPECT_EQ(result.examples.size(), 1u);

    DeterminismHarness<int> clean(runner, 0, 100);
    EXPECT_TRUE(clean.sweep({2, 4, 6}).all_match());
}

TEST(SweepResult, AddExampleDeduplicatesAndBounds) {
    SweepResult r;
    r.add_example(3, "sb0: event 3");
    r.add_example(9, "sb0: event 3");  // duplicate locus: ignored
    r.add_example(7, "sb1: event 7");
    ASSERT_EQ(r.examples.size(), 2u);
    EXPECT_EQ(r.examples[0].locus, "sb0: event 3");
    EXPECT_EQ(r.examples[0].index, 3u);  // first-seen index is kept
    EXPECT_EQ(r.examples[1].locus, "sb1: event 7");
    EXPECT_EQ(r.examples[1].index, 7u);

    // Fill to the cap with distinct loci; further entries are dropped even
    // if novel, so a pathological sweep can't balloon the result struct.
    for (std::size_t i = r.examples.size(); i < SweepResult::kMaxExamples;
         ++i) {
        r.add_example(100 + i, "locus " + std::to_string(i));
    }
    EXPECT_EQ(r.examples.size(), SweepResult::kMaxExamples);
    r.add_example(999, "one too many");
    EXPECT_EQ(r.examples.size(), SweepResult::kMaxExamples);
    for (const auto& e : r.examples) EXPECT_NE(e.locus, "one too many");
}

TEST(SweepResult, MergeSweepShardsReproducesSingleProcessRetention) {
    // Global mismatch sequence: indices 0..19, locus "L<i % 12>" — twelve
    // distinct loci, more than the cap, with duplicates across shards.
    const auto locus_of = [](std::uint64_t i) {
        return "L" + std::to_string(i % 12);
    };
    SweepResult single;
    std::vector<SweepResult> shards(3);
    for (std::uint64_t i = 0; i < 20; ++i) {
        single.runs += 1;
        single.mismatches += 1;
        single.add_example(i, locus_of(i));
        SweepResult& s = shards[i % 3];
        s.runs += 1;
        s.mismatches += 1;
        s.add_example(i, locus_of(i));
    }
    EXPECT_EQ(merge_sweep_shards(shards), single);
}

TEST(TimingChecker, SlackAndViolationAccounting) {
    TimingChecker checker;
    checker.require("fits", 80, 100);
    checker.require("exact", 100, 100);
    checker.require("breaks", 130, 100);
    const auto& r = checker.report();
    EXPECT_FALSE(r.all_pass());
    EXPECT_EQ(r.failures(), 1u);
    EXPECT_EQ(r.constraints[0].slack(), 20u);
    EXPECT_EQ(r.constraints[1].slack(), 0u);
    EXPECT_EQ(r.constraints[2].violation(), 30u);
    EXPECT_EQ(r.worst_slack(), 0u);
    EXPECT_NE(r.summary().find("FAIL breaks"), std::string::npos);
}

TEST(TimingChecker, EmptyReportPasses) {
    TimingChecker checker;
    EXPECT_TRUE(checker.report().all_pass());
    EXPECT_EQ(checker.report().worst_slack(), sim::kNever);
}

}  // namespace
}  // namespace st::verify
