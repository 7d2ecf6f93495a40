// Tests for the procedural NoC-scale topology generator (src/topo) and the
// serializable routed-traffic kernel it emits (wl::NocKernel). The headline
// properties:
//
//  * every shape x {64, 256, 1024} SBs x 3 seeds round-trips byte-identically
//    through the .stspec v1 text format, lints clean, and discharges all
//    five sva verification obligations;
//  * routed traffic on a generated 64-SB mesh is deterministic under the
//    paper's delay perturbations, with bit-identical sweep aggregates at
//    --jobs 1, 2 and 4;
//  * a perturbation outside the provisioning envelope diverges, and the
//    streaming checker's early exit cuts the divergent run short at scale;
//  * the checked-in golden fixtures (mesh_8x8, star_64, ring_of_rings_64/256)
//    regenerate byte-identically, with their lint/verify verdicts and
//    golden-trace digests on record.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "sva/spec_text.hpp"
#include "sva/verify.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "topo/topo.hpp"
#include "verify/determinism.hpp"
#include "verify/io_trace.hpp"
#include "verify/streaming.hpp"
#include "workload/noc.hpp"

namespace {

using namespace st;

std::string read_file(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << p;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// The paper-style joint perturbation st_topo sweeps with: every FIFO/ring
/// dimension from {50, 75, 150, 200} percent, clocks clamped to the audited
/// >= 75 percent envelope.
sys::DelayConfig joint_perturbation(const sys::SocSpec& spec,
                                    std::uint64_t seed) {
    auto cfg = sys::DelayConfig::nominal(spec);
    sim::Rng rng(seed);
    const unsigned percents[4] = {50, 75, 150, 200};
    for (std::size_t d = 0; d < cfg.dimensions(); ++d) {
        const bool is_clock = d >= cfg.dimensions() - cfg.clock_pct.size();
        const unsigned pct = percents[rng.next_below(4)];
        cfg.set(d, is_clock ? std::max(75u, pct) : pct);
    }
    return cfg;
}

/// Order-independent-free digest of a nominal run's golden traces: FNV-1a
/// over (name bytes, per-SB digest) in the GoldenIndex's fixed name order.
/// One word delivered at a different cycle anywhere changes the value.
std::uint64_t golden_digest(const sys::SocSpec& spec, std::uint64_t cycles) {
    sys::Soc soc(spec);
    EXPECT_TRUE(soc.run_cycles(cycles + 40, sim::ms(2000)));
    const auto golden = verify::truncated(soc.traces(), cycles);
    const verify::GoldenIndex idx(golden, cycles);
    std::uint64_t h = verify::kFnvOffset;
    for (const auto& e : idx.entries()) {
        for (const char c : e.name) {
            h = verify::fnv1a_u64(h, static_cast<unsigned char>(c));
        }
        h = verify::fnv1a_u64(h, e.events.size());
        h = verify::fnv1a_u64(h, e.digest);
    }
    return h;
}

// --- geometry planning -----------------------------------------------------

TEST(TopoGeometry, NearSquareFactorization) {
    EXPECT_EQ(topo::plan_geometry(64).width, 8u);
    EXPECT_EQ(topo::plan_geometry(64).height, 8u);
    EXPECT_EQ(topo::plan_geometry(256).width, 16u);
    EXPECT_EQ(topo::plan_geometry(256).height, 16u);
    EXPECT_EQ(topo::plan_geometry(1024).width, 32u);
    EXPECT_EQ(topo::plan_geometry(1024).height, 32u);
    EXPECT_EQ(topo::plan_geometry(96).width, 8u);
    EXPECT_EQ(topo::plan_geometry(96).height, 12u);
    // Primes degenerate to a 1 x p strip, still a valid mesh.
    EXPECT_EQ(topo::plan_geometry(13).width, 1u);
    EXPECT_EQ(topo::plan_geometry(13).height, 13u);
}

TEST(TopoGeometry, BadOptionsThrow) {
    topo::Options opt;
    opt.seed = 0;
    EXPECT_THROW(topo::generate(opt), std::invalid_argument);
    opt.seed = 1;
    opt.sbs = 1;
    EXPECT_THROW(topo::generate(opt), std::invalid_argument);
    opt.sbs = 64;
    opt.hold_lo = 0;
    EXPECT_THROW(topo::generate(opt), std::invalid_argument);
    opt.hold_lo = 2;
    opt.token_delay_hi = opt.token_delay_lo - 1;
    EXPECT_THROW(topo::generate(opt), std::invalid_argument);
}

// --- the shape x size x seed property matrix -------------------------------

// Every generated spec must (a) round-trip byte-identically through the
// .stspec v1 writer/parser, (b) lint clean, and (c) discharge all five sva
// verification obligations statically (PROVEN — the cross-check replay is
// skipped here: it is O(sim) per spec and the st_topo CTest entries cover
// it on the acceptance geometry).
TEST(TopoMatrix, RoundTripLintVerifyAtEveryScale) {
    for (const topo::Shape shape :
         {topo::Shape::kMesh, topo::Shape::kTorus, topo::Shape::kStar,
          topo::Shape::kHierRing}) {
        for (const std::size_t sbs : {64u, 256u, 1024u}) {
            for (const std::uint64_t seed : {1ull, 42ull, 1337ull}) {
                SCOPED_TRACE(std::string(topo::shape_name(shape)) + " " +
                             std::to_string(sbs) + " seed " +
                             std::to_string(seed));
                topo::Options opt;
                opt.shape = shape;
                opt.sbs = sbs;
                opt.seed = seed;
                const auto doc = topo::generate(opt);
                EXPECT_EQ(doc.sbs.size(), sbs);

                // Byte-reproducible: same options, same bytes.
                const std::string text = sva::to_text(doc);
                EXPECT_EQ(text, sva::to_text(topo::generate(opt)));

                // Parser round trip: doc equality and byte re-serialization.
                const auto back = sva::parse_spec_text(text);
                EXPECT_EQ(back, doc);
                EXPECT_EQ(sva::to_text(back), text);

                const auto spec = sva::to_spec(doc);
                const auto report = lint::lint(spec);
                EXPECT_TRUE(report.ok()) << report.to_string();

                sva::VerifyOptions vo;
                vo.cross_check = false;
                const auto vr = sva::verify(spec, vo);
                EXPECT_TRUE(vr.clean()) << vr.summary();
            }
        }
    }
}

TEST(TopoMatrix, SeedChangesTheDraw) {
    topo::Options a;
    a.seed = 42;
    topo::Options b = a;
    b.seed = 43;
    EXPECT_NE(sva::to_text(topo::generate(a)), sva::to_text(topo::generate(b)));
}

// --- routed-traffic determinism at scale -----------------------------------

// The paper's §5 experiment on a generated 64-SB mesh: three joint delay
// perturbations must replay the golden traces exactly, and the sweep
// aggregates must be bit-identical at every worker count — simulating every
// run to the horizon, and with the default early exit, which ends each run
// once every SB has left the 90-cycle window.
TEST(TopoDeterminism, Mesh64SweepMatchesAtEveryJobsValue) {
    topo::Options opt;
    opt.sbs = 64;
    opt.seed = 42;
    const auto spec = sva::to_spec(topo::generate(opt));
    constexpr std::uint64_t kCycles = 90;
    const auto run = [&spec](const sys::DelayConfig& cfg,
                             verify::RunCapture& cap) {
        sys::Soc soc(sys::apply(spec, cfg), &cap);
        EXPECT_TRUE(soc.run_cycles(kCycles + 40, sim::ms(2000)));
    };
    verify::DeterminismHarness<sys::DelayConfig> harness(
        run, sys::DelayConfig::nominal(spec), kCycles);
    // Full run: every case reaches the horizon, which the runner asserts.
    harness.set_early_exit(false);
    std::vector<sys::DelayConfig> sweep;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        sweep.push_back(joint_perturbation(spec, opt.seed + s));
    }
    const auto r1 = harness.sweep(sweep, 1);
    EXPECT_TRUE(r1.all_match()) << (r1.examples.empty()
                                        ? std::string("no example")
                                        : r1.examples.front().locus);
    EXPECT_EQ(r1.runs, 3u);
    EXPECT_EQ(r1, harness.sweep(sweep, 2));
    EXPECT_EQ(r1, harness.sweep(sweep, 4));

    const auto window_run = [&spec](const sys::DelayConfig& cfg,
                                    verify::RunCapture& cap) {
        sys::Soc soc(sys::apply(spec, cfg), &cap);
        soc.run_cycles(kCycles + 40, sim::ms(2000));
    };
    verify::DeterminismHarness<sys::DelayConfig> early(
        window_run, sys::DelayConfig::nominal(spec), kCycles);
    EXPECT_EQ(r1, early.sweep(sweep, 1));
    EXPECT_EQ(r1, early.sweep(sweep, 2));
    EXPECT_EQ(r1, early.sweep(sweep, 4));
}

// A perturbation outside the provisioning envelope (FIFO ripple stretched
// past the minimum token flight, so pushed data loses the race against the
// token that licenses its consumption) must diverge — and the streaming
// checker's cooperative early exit must cut the divergent simulation short
// relative to the same check with early exit disabled.
TEST(TopoDeterminism, EnvelopeViolationDivergesAndEarlyExits) {
    topo::Options opt;
    opt.sbs = 64;
    opt.seed = 42;
    const auto spec = sva::to_spec(topo::generate(opt));
    constexpr std::uint64_t kCycles = 90;

    auto bad = sys::DelayConfig::nominal(spec);
    for (auto& p : bad.fifo_pct) p = 800;  // ~8x ripple: outside the envelope

    std::uint64_t events = 0;
    const auto live = [&](const sys::DelayConfig& cfg,
                          verify::RunCapture& cap) {
        sys::Soc soc(sys::apply(spec, cfg), &cap);
        soc.run_cycles(kCycles + 40, sim::ms(2000));
        events = soc.scheduler().events_executed();
    };
    using Harness = verify::DeterminismHarness<sys::DelayConfig>;
    Harness streaming(Harness::LiveRunner(live),
                      sys::DelayConfig::nominal(spec), kCycles);
    Harness full(Harness::LiveRunner(live), sys::DelayConfig::nominal(spec),
                 kCycles);
    full.set_early_exit(false);

    const auto d_stream = streaming.check(bad);
    const std::uint64_t events_stream = events;
    const auto d_full = full.check(bad);
    const std::uint64_t events_full = events;

    EXPECT_FALSE(d_stream.identical);
    // Early exit changes how long the run simulates, never what it reports.
    EXPECT_EQ(d_stream, d_full);
    EXPECT_LT(events_stream, events_full / 2)
        << "early exit should stop a 64-SB divergent run well before the "
           "horizon (stream "
        << events_stream << " vs full " << events_full << ")";
}

// --- golden fixtures -------------------------------------------------------

// The checked-in fixtures must regenerate byte-identically from the library
// at the recorded options, and their recorded verdicts must hold: clean
// lint, 5/5 obligations proven, and the nominal golden-trace digest below.
// A digest change means generated traffic semantics moved — that is a
// breaking change to every recorded sweep, so it must be deliberate.
struct GoldenFixture {
    const char* file;
    topo::Shape shape;
    std::uint64_t digest;  ///< golden_digest(spec, 90)
};

TEST(TopoFixtures, GoldenSpecsRegenerateByteIdenticallyWithVerdictsOnRecord) {
    const std::filesystem::path dir = ST_TESTS_DATA_DIR;
    const GoldenFixture fixtures[] = {
        {"mesh_8x8.stspec", topo::Shape::kMesh, 6717148561461495346ull},
        {"star_64.stspec", topo::Shape::kStar, 7068557603965434267ull},
    };
    for (const auto& f : fixtures) {
        SCOPED_TRACE(f.file);
        topo::Options opt;
        opt.shape = f.shape;
        opt.sbs = 64;
        opt.seed = 42;
        const std::string text = sva::to_text(topo::generate(opt));
        EXPECT_EQ(text, read_file(dir / f.file));

        const auto spec = sva::to_spec(sva::parse_spec_text(text));
        const auto report = lint::lint(spec);
        EXPECT_TRUE(report.ok()) << report.to_string();
        const auto vr = sva::verify(spec);
        EXPECT_TRUE(vr.clean()) << vr.summary();
        EXPECT_EQ(golden_digest(spec, 90), f.digest);
    }
}

// The ring-of-rings stress fixtures predate src/topo and are byte-frozen:
// the unified topo:: library must keep reproducing them exactly (they are
// also reachable as shape=hring through the near-square cluster split).
TEST(TopoFixtures, RingOfRingsRegeneratesByteIdentically) {
    const std::filesystem::path dir = ST_TESTS_DATA_DIR;
    for (const std::size_t n : {8u, 16u}) {
        SCOPED_TRACE(n);
        topo::RingOfRingsOptions opt;
        opt.clusters = n;
        opt.members = n;
        const std::string expected =
            sva::to_text(topo::make_ring_of_rings(opt));
        const auto path =
            dir / ("ring_of_rings_" + std::to_string(n * n) + ".stspec");
        EXPECT_EQ(read_file(path), expected);

        topo::Options gen;
        gen.shape = topo::Shape::kHierRing;
        gen.sbs = n * n;
        gen.seed = 0xC0FFEE;
        EXPECT_EQ(sva::to_text(topo::generate(gen)), expected);
    }
}

TEST(TopoFixtures, RingOfRings64IsProvenClean) {
    topo::RingOfRingsOptions opt;
    opt.clusters = 8;
    opt.members = 8;
    const auto spec = sva::to_spec(topo::make_ring_of_rings(opt));
    EXPECT_TRUE(lint::lint(spec).ok());
    const auto vr = sva::verify(spec);
    EXPECT_TRUE(vr.clean()) << vr.summary();
}

// --- NocKernel -------------------------------------------------------------

wl::NocKernel::Config mesh_config(std::uint8_t x, std::uint8_t y) {
    wl::NocKernel::Config cfg;
    cfg.mode = wl::NocKernel::Config::Mode::kMesh;
    cfg.x = x;
    cfg.y = y;
    cfg.width = 4;
    cfg.height = 4;
    cfg.nodes = 16;
    cfg.seed = 7;
    // Interior tile: east, west, north, south — the generator's port order.
    cfg.ports = {{static_cast<std::uint8_t>(x + 1), y},
                 {static_cast<std::uint8_t>(x - 1), y},
                 {x, static_cast<std::uint8_t>(y - 1)},
                 {x, static_cast<std::uint8_t>(y + 1)}};
    return cfg;
}

TEST(NocKernel, MeshRoutesDimensionOrdered) {
    const wl::NocKernel k(mesh_config(1, 1));
    // X first: (3,3) from (1,1) goes east even though south also helps.
    EXPECT_EQ(k.route(wl::Packet::make(3, 3, 0)), 0u);
    EXPECT_EQ(k.route(wl::Packet::make(0, 3, 0)), 1u);  // west
    EXPECT_EQ(k.route(wl::Packet::make(1, 0, 0)), 2u);  // x done: north
    EXPECT_EQ(k.route(wl::Packet::make(1, 3, 0)), 3u);  // x done: south
}

TEST(NocKernel, TorusRoutesTheShortWayRound) {
    auto cfg = mesh_config(0, 0);
    cfg.mode = wl::NocKernel::Config::Mode::kTorus;
    cfg.ports = {{1, 0}, {3, 0}, {0, 3}, {0, 1}};  // east wraps to x=3
    const wl::NocKernel k(cfg);
    // Dest (3,0): wrapping west (1 hop) beats going east (3 hops).
    EXPECT_EQ(k.route(wl::Packet::make(3, 0, 0)), 1u);
    // Dest (0,3): wrapping north (1 hop) beats going south (3 hops).
    EXPECT_EQ(k.route(wl::Packet::make(0, 3, 0)), 2u);
    EXPECT_EQ(k.route(wl::Packet::make(1, 0, 0)), 0u);  // adjacent: east
}

TEST(NocKernel, StarHubMatchesExactlyAndLeafUplinks) {
    wl::NocKernel::Config hub;
    hub.mode = wl::NocKernel::Config::Mode::kStar;
    hub.nodes = 4;
    hub.seed = 7;
    for (std::size_t i = 1; i < 4; ++i) {
        hub.ports.push_back(wl::NocKernel::node_coords(
            wl::NocKernel::Config::Mode::kStar, wl::NocKernel::kStarRow, i));
    }
    const wl::NocKernel k(hub);
    for (std::size_t i = 1; i < 4; ++i) {
        const auto c = wl::NocKernel::node_coords(
            wl::NocKernel::Config::Mode::kStar, wl::NocKernel::kStarRow, i);
        EXPECT_EQ(k.route(wl::Packet::make(c.x, c.y, 0)), i - 1);
    }

    wl::NocKernel::Config leaf;
    leaf.mode = wl::NocKernel::Config::Mode::kStar;
    leaf.nodes = 4;
    leaf.seed = 7;
    const auto self = wl::NocKernel::node_coords(
        wl::NocKernel::Config::Mode::kStar, wl::NocKernel::kStarRow, 2);
    leaf.x = self.x;
    leaf.y = self.y;
    leaf.ports = {{0, 0}};  // uplink
    const wl::NocKernel l(leaf);
    // Any non-self destination — even another leaf the hub is farther
    // from — goes up the single spoke.
    const auto peer = wl::NocKernel::node_coords(
        wl::NocKernel::Config::Mode::kStar, wl::NocKernel::kStarRow, 3);
    EXPECT_EQ(l.route(wl::Packet::make(peer.x, peer.y, 0)), 0u);
    EXPECT_EQ(l.route(wl::Packet::make(0, 0, 0)), 0u);
}

TEST(NocKernel, ScanImageRoundTripsQueues) {
    auto k = wl::NocKernel(mesh_config(1, 1));
    // 6 registers, port count, then per-port [len, words...].
    const std::vector<std::uint64_t> image = {
        /*rng*/ 99, /*phase*/ 5, /*inj*/ 2, /*fwd*/ 1, /*del*/ 3,
        /*crc*/ 0xabcd,
        /*ports*/ 4,
        /*q0*/ 2, 0x1111, 0x2222,
        /*q1*/ 0,
        /*q2*/ 1, 0x3333,
        /*q3*/ 0};
    k.load_state(image);
    EXPECT_EQ(k.scan_state(), image);
    EXPECT_EQ(k.queued(), 3u);

    // A register-prefix image updates the registers and keeps the queues.
    k.load_state({100, 6});
    auto after = k.scan_state();
    EXPECT_EQ(after[0], 100u);
    EXPECT_EQ(after[1], 6u);
    EXPECT_EQ(std::vector<std::uint64_t>(after.begin() + 6, after.end()),
              std::vector<std::uint64_t>(image.begin() + 6, image.end()));
}

TEST(NocKernel, MalformedScanImagesThrow) {
    auto k = wl::NocKernel(mesh_config(1, 1));
    // Wrong port count.
    EXPECT_THROW(k.load_state({0, 0, 0, 0, 0, 0, 3, 0, 0, 0}),
                 std::invalid_argument);
    // Truncated queue payload.
    EXPECT_THROW(k.load_state({0, 0, 0, 0, 0, 0, 4, 5, 0x1}),
                 std::invalid_argument);
    // Trailing garbage past the last queue.
    EXPECT_THROW(k.load_state({0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 7}),
                 std::invalid_argument);
    // Constructor validation.
    auto cfg = mesh_config(1, 1);
    cfg.seed = 0;
    EXPECT_THROW(wl::NocKernel{cfg}, std::invalid_argument);
}

}  // namespace
