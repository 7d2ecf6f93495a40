// Coincident clock edges: what a StoppableClock edge may and may not change.
//
// A StoppableClock edge samples, commits and decides its enable inside one
// scheduler event, so when two clocks have edges at one instant the first
// clock's commit now runs before the second clock's sample. The models must
// not be able to tell (ClockSink contract). Two checks hold that in place:
//  * EdgeOrderPinned: traces and run statistics of every shipped spec, the
//    generated 64-SB mesh, torus and star, the two-flop baseline and a
//    zero-skew STARI link, under nominal, equal-clock and random delays,
//    equal literals recorded when each edge still cost three events (edge,
//    commit, gate). The event count then was the count now plus two per
//    local cycle, exactly, once the run has settled.
//  * SbOrderInvariance: permuting a spec's SB list reorders every set of
//    coincident edges, and must not change any trace or statistic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/baseline_soc.hpp"
#include "baselines/stari.hpp"
#include "sim/random.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/stats.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"
#include "verify/io_trace.hpp"

namespace st {
namespace {

constexpr std::uint64_t kCycles = 120;

/// Events each local cycle used to add on top of the edge: one commit and
/// one enable-decision ("gate") event.
constexpr std::uint64_t kMergedEventsPerCycle = 2;

// --- spec variants ---------------------------------------------------------

sys::SocSpec generated(topo::Shape shape) {
    return sva::to_spec(
        topo::generate(topo::Options{.shape = shape, .sbs = 64, .seed = 7}));
}

sys::SocSpec base_spec(const std::string& name) {
    if (name == "mesh64") return generated(topo::Shape::kMesh);
    if (name == "torus64") return generated(topo::Shape::kTorus);
    if (name == "star64") return generated(topo::Shape::kStar);
    return sys::make_named_spec(name);
}

/// Every SB clocked at the slowest SB's period, all from phase 0: each edge
/// of a running clock coincides with an edge of every other running clock.
sys::SocSpec equal_clocks(sys::SocSpec spec) {
    sim::Time period = 0;
    for (const auto& sb : spec.sbs) {
        period = std::max(period, sb.clock.base_period * sb.clock.divider);
    }
    for (auto& sb : spec.sbs) {
        sb.clock.base_period = period;
        sb.clock.divider = 1;
    }
    return spec;
}

/// Every delay drawn uniformly from 50..200% of nominal.
sys::SocSpec random_delays(const sys::SocSpec& spec, std::uint64_t seed) {
    sys::DelayConfig cfg = sys::DelayConfig::nominal(spec);
    sim::Rng rng(seed);
    for (std::size_t d = 0; d < cfg.dimensions(); ++d) {
        cfg.set(d, static_cast<unsigned>(rng.next_in(50, 200)));
    }
    return sys::apply(spec, cfg);
}

/// "nominal", "equal" or "random-<seed>".
sys::SocSpec variant(const sys::SocSpec& spec, const std::string& delays) {
    if (delays == "nominal") return spec;
    if (delays == "equal") return equal_clocks(spec);
    return random_delays(spec, std::stoull(delays.substr(7)));
}

/// `spec` with its SB list reordered: new SB i is old SB `order[i]`. Rings,
/// multi-rings and channels keep their own order; their SB indices follow
/// the SBs.
sys::SocSpec permuted(const sys::SocSpec& spec,
                      const std::vector<std::size_t>& order) {
    std::vector<std::size_t> where(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) where[order[i]] = i;
    sys::SocSpec out = spec;
    for (std::size_t i = 0; i < order.size(); ++i) {
        out.sbs[i] = spec.sbs[order[i]];
    }
    for (auto& r : out.rings) {
        r.sb_a = where[r.sb_a];
        r.sb_b = where[r.sb_b];
    }
    for (auto& mr : out.multi_rings) {
        for (auto& m : mr.members) m.sb = where[m.sb];
    }
    for (auto& c : out.channels) {
        c.from_sb = where[c.from_sb];
        c.to_sb = where[c.to_sb];
    }
    return out;
}

// --- observations ----------------------------------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    return verify::fnv1a_u64(h, v);
}

std::uint64_t mix(std::uint64_t h, const std::string& s) {
    for (const char c : s) h = mix(h, static_cast<std::uint64_t>(c));
    return h;
}

/// Digest of `collect_stats` without its event count.
std::uint64_t stats_digest(const sys::RunStats& s) {
    std::uint64_t h = mix(verify::kFnvOffset, s.sim_time);
    for (const auto& sb : s.sbs) {
        h = mix(mix(mix(h, sb.name), sb.cycles), sb.stop_events);
        h = mix(mix(h, sb.stopped_time), sb.period);
    }
    for (const auto& r : s.rings) {
        h = mix(mix(mix(h, r.name), r.passes), r.late_arrivals);
    }
    for (const auto& c : s.channels) {
        h = mix(mix(mix(h, c.name), c.words), c.max_link_latency);
    }
    return h;
}

struct Observed {
    std::uint64_t traces = 0;  ///< verify::fingerprint of per-SB traces
    std::uint64_t stats = 0;   ///< run statistics without the event count
    std::uint64_t events = 0;  ///< events + kMergedEventsPerCycle * cycles
};

struct SocRun {
    verify::TraceSet traces;
    sys::RunStats stats;
};

SocRun run_soc(const sys::SocSpec& spec) {
    sys::Soc soc(spec);
    soc.run_cycles(kCycles, sim::ms(100));
    soc.settle();
    return {soc.traces(), sys::collect_stats(soc)};
}

Observed observe_soc(const sys::SocSpec& spec) {
    const SocRun run = run_soc(spec);
    std::uint64_t cycles = 0;
    for (const auto& sb : run.stats.sbs) cycles += sb.cycles;
    return {verify::fingerprint(run.traces), stats_digest(run.stats),
            run.stats.events + kMergedEventsPerCycle * cycles};
}

Observed observe_two_flop(const sys::SocSpec& spec) {
    baseline::BaselineSoc soc(spec, baseline::BaselineSoc::Kind::kTwoFlop);
    soc.run_cycles(kCycles, sim::ms(100));
    soc.scheduler().settle();
    std::uint64_t h = mix(verify::kFnvOffset, soc.scheduler().now());
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
        h = mix(h, soc.cycles(i));
        cycles += soc.cycles(i);
    }
    return {verify::fingerprint(soc.traces()), h,
            soc.scheduler().events_executed() +
                kMergedEventsPerCycle * cycles};
}

/// Zero-skew STARI: every transmitter edge coincides with a receiver edge,
/// and both commits touch the shared FIFO.
Observed observe_stari(sim::Time stage_delay) {
    sim::Scheduler sched;
    baseline::StariLink::Params p;
    p.stage_delay = stage_delay;
    p.rx_skew = 0;
    baseline::StariLink link(sched, "stari", p);
    std::uint64_t received = verify::kFnvOffset;
    link.set_source([](std::uint64_t i) { return i * 7 + 3; });
    link.set_sink([&](std::uint64_t cycle, Word w) {
        received = mix(mix(received, cycle), w);
    });
    link.start();
    sched.run_until((kCycles - 1) * p.period);  // edges 0 .. kCycles-1
    sched.settle();
    EXPECT_EQ(link.words_sent() + link.overflows(), kCycles);
    const std::uint64_t counts =
        mix(mix(mix(verify::kFnvOffset, link.overflows()), link.underflows()),
            link.words_received());
    return {received, counts,
            sched.events_executed() + kMergedEventsPerCycle * 2 * kCycles};
}

struct Pinned {
    const char* system;
    const char* delays;
    std::uint64_t traces;
    std::uint64_t stats;
    std::uint64_t events;
};

void expect_pinned(const Pinned& p, const Observed& o) {
    EXPECT_TRUE(o.traces == p.traces && o.stats == p.stats &&
                o.events == p.events)
        << "observed {\"" << p.system << "\", \"" << p.delays << "\", "
        << o.traces << "u, " << o.stats << "u, " << o.events << "u},";
}

// --- pinned statistics ------------------------------------------------------

TEST(EdgeOrderPinned, SynchroTokenSocs) {
    const Pinned pinned[] = {
        {"pair", "nominal", 14166790713372912910u, 18044247496599592759u, 1391u},
        {"pair", "equal", 14166790713372912910u, 18044247496599592759u, 1391u},
        {"pair", "random-1", 14166790713372912910u, 17262290535552274657u, 1394u},
        {"triangle", "nominal", 12815161913226528113u, 15237067989188484481u, 2391u},
        {"triangle", "equal", 2986049512243676502u, 10593124867125027042u, 2293u},
        {"triangle", "random-1", 12815161913226528113u, 7923685321753789632u, 2416u},
        {"chain", "nominal", 8815876255115224995u, 17741005480760792088u, 1865u},
        {"chain", "equal", 10346625808488477402u, 15090701214996940487u, 1654u},
        {"chain", "random-1", 8815876255115224995u, 11713258054920547964u, 1911u},
        {"mesh", "nominal", 14288558278551295351u, 15801166801255221686u, 7703u},
        {"mesh", "equal", 7289083074749203297u, 16337446008581673301u, 7483u},
        {"mesh", "random-1", 14066483576346886475u, 9237390387369479098u, 7767u},
        {"wide", "nominal", 310849884595682851u, 16577488574979484997u, 1536u},
        {"wide", "equal", 310849884595682851u, 16577488574979484997u, 1536u},
        {"wide", "random-1", 310849884595682851u, 7124484983202263558u, 1551u},
        {"bus", "nominal", 2385885539323236444u, 7293459257770776278u, 2067u},
        {"bus", "equal", 3602976739028569981u, 8125696296006178315u, 1960u},
        {"bus", "random-1", 2694064480872293451u, 9191711983126724768u, 1956u},
        {"mesh64", "nominal", 15814236678803981294u, 16822111471455112128u, 49926u},
        {"mesh64", "equal", 6446355032723890385u, 3086036448472696612u, 50041u},
        {"mesh64", "random-1", 10042857668068342940u, 15743681609191634320u, 53714u},
        {"torus64", "nominal", 316663815212803272u, 7797951072392685787u, 50365u},
        {"torus64", "equal", 17477809070043756286u, 18017036418076989736u, 49896u},
        {"torus64", "random-1", 16113917584413864440u, 12975164714545084100u, 53932u},
        {"star64", "nominal", 15926962384501673622u, 11336703889735997165u, 40048u},
        {"star64", "equal", 12759742796372627045u, 1072010476278655915u, 38698u},
        {"star64", "random-1", 2946476869719419545u, 17491804299926724917u, 42035u},
    };
    for (const Pinned& p : pinned) {
        SCOPED_TRACE(std::string(p.system) + " " + p.delays);
        expect_pinned(p, observe_soc(variant(base_spec(p.system), p.delays)));
    }
}

TEST(EdgeOrderPinned, TwoFlopBaseline) {
    const Pinned pinned[] = {
        {"pair", "nominal", 5168035608167926990u, 10057880215230605524u, 1312u},
        {"pair", "equal", 5168035608167926990u, 10057880215230605524u, 1312u},
        {"pair", "random-1", 17174880047701903181u, 4495029600654749242u, 1389u},
        {"triangle", "nominal", 14078962292823554186u, 16476545481883815972u, 3657u},
        {"triangle", "equal", 2925052913012409874u, 11069737134257335074u, 2856u},
        {"triangle", "random-1", 9502578187063514724u, 10474369523105317664u, 5466u},
        {"chain", "nominal", 17934386408476017846u, 4866727502889480748u, 2709u},
        {"chain", "equal", 6244412669707739037u, 15236605313588742603u, 2275u},
        {"chain", "random-1", 17379322619753445280u, 9973071651805132627u, 4257u},
        {"mesh", "nominal", 12978913000880106049u, 9073010939368752579u, 12989u},
        {"mesh", "equal", 2161395678612644189u, 16932369967624336643u, 10344u},
        {"mesh", "random-1", 10234053825272765525u, 9317824739706496413u, 16119u},
        {"wide", "nominal", 3994235171040664114u, 10057880215230605524u, 1553u},
        {"wide", "equal", 3994235171040664114u, 10057880215230605524u, 1553u},
        {"wide", "random-1", 11313980047576980590u, 1640014088468107891u, 2066u},
        {"bus", "nominal", 818081932480715041u, 11277760260976066935u, 2839u},
        {"bus", "equal", 13775645075097203538u, 11396604621152860255u, 2444u},
        {"bus", "random-1", 12001153042651649203u, 8623022319386084183u, 3199u},
    };
    for (const Pinned& p : pinned) {
        SCOPED_TRACE(std::string(p.system) + " " + p.delays);
        expect_pinned(p,
                      observe_two_flop(variant(base_spec(p.system), p.delays)));
    }
}

TEST(EdgeOrderPinned, ZeroSkewStari) {
    // The rates match at every stage delay, so the received stream, the
    // counts and the number of FIFO ripple events are the same in each row.
    const Pinned pinned[] = {
        {"stari", "stage-100", 4017345433997344142u, 8539871527441996370u, 1549u},
        {"stari", "stage-50", 4017345433997344142u, 8539871527441996370u, 1549u},
        {"stari", "stage-200", 4017345433997344142u, 8539871527441996370u, 1549u},
    };
    for (const Pinned& p : pinned) {
        SCOPED_TRACE(p.delays);
        const sim::Time stage = std::stoull(std::string(p.delays).substr(6));
        expect_pinned(p, observe_stari(stage));
    }
}

// --- SB-order invariance ----------------------------------------------------

/// Run statistics with SBs sorted by name: nothing in them may depend on
/// the order of the SB list.
std::string sorted_stats(sys::RunStats stats) {
    std::sort(stats.sbs.begin(), stats.sbs.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    return stats.to_string();
}

class SbOrderInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(SbOrderInvariance, PermutedSbListRunsIdentically) {
    const sys::SocSpec base = base_spec(GetParam());
    const std::size_t n = base.sbs.size();
    // Reversed, then two seeded shuffles.
    std::vector<std::vector<std::size_t>> orders(3,
                                                 std::vector<std::size_t>(n));
    for (std::size_t i = 0; i < n; ++i) orders[0][i] = n - 1 - i;
    for (std::uint64_t k = 1; k <= 2; ++k) {
        auto& order = orders[k];
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        sim::Rng rng(k);
        for (std::size_t i = n; i > 1; --i) {
            std::swap(order[i - 1], order[rng.next_below(i)]);
        }
    }
    for (const char* delays : {"nominal", "equal", "random-1", "random-2",
                               "random-3", "random-4"}) {
        SCOPED_TRACE(delays);
        const sys::SocSpec spec = variant(base, delays);
        const SocRun want = run_soc(spec);
        ASSERT_FALSE(want.traces.empty());
        for (std::size_t k = 0; k < orders.size(); ++k) {
            SCOPED_TRACE("order " + std::to_string(k));
            const SocRun got = run_soc(permuted(spec, orders[k]));
            EXPECT_TRUE(got.traces == want.traces)
                << verify::diff_traces(want.traces, got.traces).first_mismatch;
            EXPECT_EQ(sorted_stats(got.stats), sorted_stats(want.stats));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Specs, SbOrderInvariance,
                         ::testing::Values("pair", "triangle", "chain", "mesh",
                                           "wide", "bus", "mesh64", "torus64",
                                           "star64"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

}  // namespace
}  // namespace st
