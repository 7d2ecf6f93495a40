#include "topo/topo.hpp"

#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "analytic/models.hpp"
#include "sim/random.hpp"
#include "workload/noc.hpp"

namespace st::topo {

namespace {

/// Inclusive draw from [lo, hi] snapped to multiples of `quantum` above lo.
std::uint64_t draw_quantized(sim::Rng& rng, std::uint64_t lo, std::uint64_t hi,
                             std::uint64_t quantum) {
    if (hi <= lo) return lo;
    if (quantum == 0) quantum = 1;
    const std::uint64_t steps = (hi - lo) / quantum;
    return lo + rng.next_below(steps + 1) * quantum;
}

void check_common(const Options& opt) {
    if (opt.seed == 0) {
        throw std::invalid_argument("topo: zero seed");
    }
    if (opt.sbs < 2) {
        throw std::invalid_argument("topo: want >= 2 SBs");
    }
    if (opt.period_lo == 0 || opt.period_hi < opt.period_lo ||
        opt.token_delay_lo == 0 || opt.token_delay_hi < opt.token_delay_lo) {
        throw std::invalid_argument("topo: malformed distribution range");
    }
    if (opt.hold_lo < 1 || opt.hold_hi < opt.hold_lo) {
        throw std::invalid_argument("topo: malformed hold range");
    }
}

/// Per-SB draws, identical across shapes: clock period first, kernel seed
/// second. `| 1` keeps the kernel seed non-zero without biasing the stream.
struct SbDraw {
    std::uint64_t period;
    std::uint64_t seed;
};
SbDraw draw_sb(sim::Rng& rng, const Options& opt) {
    SbDraw d;
    d.period = draw_quantized(rng, opt.period_lo, opt.period_hi,
                              opt.period_quantum);
    d.seed = rng.next_u64() | 1;
    return d;
}

/// Per-ring draws, identical across shapes: hold (shared by both nodes),
/// delay_ab, delay_ba, in that order. Hold is symmetric per ring so the
/// two channel directions riding it see matched service rates — an
/// asymmetric pair would let the faster producer outrun the slower
/// consumer's windows and back the channel FIFO up until the tail
/// handshake stalls, which re-couples the producer's trace to wall-clock
/// delays (docs/TOPOLOGY.md "Provisioning envelope").
struct RingDraw {
    std::uint32_t hold_a;
    std::uint32_t hold_b;
    std::uint64_t delay_ab;
    std::uint64_t delay_ba;
};
RingDraw draw_ring(sim::Rng& rng, const Options& opt) {
    RingDraw d;
    d.hold_a = static_cast<std::uint32_t>(
        rng.next_in(opt.hold_lo, opt.hold_hi));
    d.hold_b = d.hold_a;
    d.delay_ab = draw_quantized(rng, opt.token_delay_lo, opt.token_delay_hi,
                                opt.token_delay_quantum);
    d.delay_ba = draw_quantized(rng, opt.token_delay_lo, opt.token_delay_hi,
                                opt.token_delay_quantum);
    return d;
}

sva::SpecDoc generate_grid(const Options& opt, bool torus) {
    const Geometry g = plan_geometry(opt.sbs);
    const std::size_t kW = g.width;
    const std::size_t kH = g.height;
    if (kW > 256 || kH > 256) {
        throw std::invalid_argument(
            "topo: grid does not fit 8-bit tile coordinates");
    }
    sim::Rng rng(opt.seed);
    sva::SpecDoc doc;
    const std::size_t n = opt.sbs;
    const auto at = [&](std::size_t x, std::size_t y) { return y * kW + x; };

    std::vector<std::uint64_t> period(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t x = i % kW;
        const std::size_t y = i / kW;
        const SbDraw d = draw_sb(rng, opt);
        sva::SbDoc sb;
        sb.name = "t" + std::to_string(x) + "y" + std::to_string(y);
        sb.period = d.period;
        sb.restart = opt.restart;
        sb.seed = d.seed;
        sb.has_noc = true;
        sb.noc.mode = torus ? 1 : 0;
        sb.noc.x = static_cast<unsigned>(x);
        sb.noc.y = static_cast<unsigned>(y);
        sb.noc.width = static_cast<unsigned>(kW);
        sb.noc.height = static_cast<unsigned>(kH);
        sb.noc.nodes = static_cast<unsigned>(n);
        sb.noc.inject_period = opt.inject_period;
        period[i] = d.period;
        doc.sbs.push_back(std::move(sb));
    }

    // Undirected edges in scan order (east edge then south edge per tile).
    // A torus wraps each axis; extent-2 wrap would duplicate the mesh edge
    // and extent-1 has no neighbour, so wrap edges need extent > 2.
    struct EdgeInfo {
        std::size_t ring;  ///< index into doc.rings
        std::uint32_t hold_a;
        std::uint32_t hold_b;
    };
    std::unordered_map<std::uint64_t, EdgeInfo> edges;
    const auto add_edge = [&](std::size_t a, std::size_t b) {
        const RingDraw d = draw_ring(rng, opt);
        sva::RingDoc r;
        r.name = "r" + std::to_string(a) + "u" + std::to_string(b);
        r.sb_a = a;
        r.sb_b = b;
        r.delay_ab = d.delay_ab;
        r.delay_ba = d.delay_ba;
        r.node_a.hold = d.hold_a;
        // Recycle = model::min_recycle + slack: the wait covers the worst
        // token absence (wire round trip plus the peer's H+1 cycles) with
        // slack to spare, so recycle-feasibility and the deadlock fixpoint
        // hold at every node and generated specs lint clean by construction.
        r.node_a.recycle =
            model::min_recycle(period[a], period[b], d.hold_b, d.delay_ab,
                               d.delay_ba) +
            opt.recycle_slack;
        r.node_a.holder = true;
        r.node_b.hold = d.hold_b;
        r.node_b.recycle =
            model::min_recycle(period[b], period[a], d.hold_a, d.delay_ab,
                               d.delay_ba) +
            opt.recycle_slack;
        r.node_b.holder = false;
        edges.emplace(static_cast<std::uint64_t>(a) * n + b,
                      EdgeInfo{doc.rings.size(), d.hold_a, d.hold_b});
        doc.rings.push_back(std::move(r));
    };
    for (std::size_t y = 0; y < kH; ++y) {
        for (std::size_t x = 0; x < kW; ++x) {
            if (x + 1 < kW) {
                add_edge(at(x, y), at(x + 1, y));
            } else if (torus && kW > 2) {
                add_edge(at(0, y), at(x, y));
            }
            if (y + 1 < kH) {
                add_edge(at(x, y), at(x, y + 1));
            } else if (torus && kH > 2) {
                add_edge(at(x, 0), at(x, y));
            }
        }
    }

    // Channels per SB in east, west, north, south order — the port-order
    // contract NocKernel's greedy router relies on for XY equivalence
    // (spec_text.cpp derives out port k of SB i from the k-th channel with
    // from_sb == i). Duplicate directions on tiny wrapped axes collapse to
    // the first direction.
    // Unsigned wrap: v + extent + (size_t)(±1) mod extent.
    const auto wrap_step = [](std::size_t v, int d, std::size_t extent) {
        return (v + extent + static_cast<std::size_t>(d)) % extent;
    };
    const auto neighbour = [&](std::size_t x, std::size_t y,
                               int dx, int dy) -> std::size_t {
        const std::size_t none = static_cast<std::size_t>(-1);
        if (dx != 0) {
            if (torus) {
                if (kW < 2) return none;
                if (kW == 2 && dx < 0) return none;  // same as east
                return at(wrap_step(x, dx, kW), y);
            }
            const std::int64_t nx = static_cast<std::int64_t>(x) + dx;
            if (nx < 0 || nx >= static_cast<std::int64_t>(kW)) return none;
            return at(static_cast<std::size_t>(nx), y);
        }
        if (torus) {
            if (kH < 2) return none;
            if (kH == 2 && dy > 0) return none;  // same as north
            return at(x, wrap_step(y, dy, kH));
        }
        const std::int64_t ny = static_cast<std::int64_t>(y) + dy;
        if (ny < 0 || ny >= static_cast<std::int64_t>(kH)) return none;
        return at(x, static_cast<std::size_t>(ny));
    };
    constexpr int kDirs[4][2] = {{1, 0}, {-1, 0}, {0, -1}, {0, 1}};
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t x = i % kW;
        const std::size_t y = i / kW;
        for (const auto& d : kDirs) {
            const std::size_t j = neighbour(x, y, d[0], d[1]);
            if (j == static_cast<std::size_t>(-1)) continue;
            const std::size_t lo = i < j ? i : j;
            const std::size_t hi = i < j ? j : i;
            const auto& e =
                edges.at(static_cast<std::uint64_t>(lo) * n + hi);
            sva::ChannelDoc ch;
            ch.name = "c" + std::to_string(i) + "t" + std::to_string(j);
            ch.from_sb = i;
            ch.to_sb = j;
            ch.ring = e.ring;
            ch.depth = (i == lo ? e.hold_a : e.hold_b) + opt.depth_slack;
            ch.stage_delay = opt.stage_delay;
            doc.channels.push_back(std::move(ch));
        }
    }
    return doc;
}

sva::SpecDoc generate_star(const Options& opt) {
    const std::size_t n = opt.sbs;
    const std::size_t leaves = n - 1;
    const std::size_t rows =
        1 + (leaves + wl::NocKernel::kStarRow - 1) / wl::NocKernel::kStarRow;
    if (rows > 255) {
        throw std::invalid_argument(
            "topo: star does not fit 8-bit leaf coordinates");
    }
    sim::Rng rng(opt.seed);
    sva::SpecDoc doc;

    std::vector<std::uint64_t> period(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SbDraw d = draw_sb(rng, opt);
        const auto c = wl::NocKernel::node_coords(
            wl::NocKernel::Config::Mode::kStar, wl::NocKernel::kStarRow, i);
        sva::SbDoc sb;
        sb.name = i == 0 ? "hub" : "leaf" + std::to_string(i);
        sb.period = d.period;
        sb.restart = opt.restart;
        sb.seed = d.seed;
        sb.has_noc = true;
        sb.noc.mode = 2;
        sb.noc.x = c.x;
        sb.noc.y = c.y;
        sb.noc.width = wl::NocKernel::kStarRow;
        sb.noc.height = static_cast<unsigned>(rows);
        sb.noc.nodes = static_cast<unsigned>(n);
        sb.noc.inject_period = opt.inject_period;
        period[i] = d.period;
        doc.sbs.push_back(std::move(sb));
    }

    // One spoke ring per leaf, hub side is node_a. Ring i-1 pairs the hub
    // with leaf i.
    std::vector<RingDraw> spoke(n);
    for (std::size_t i = 1; i < n; ++i) {
        const RingDraw d = draw_ring(rng, opt);
        sva::RingDoc r;
        r.name = "r" + std::to_string(i);
        r.sb_a = 0;
        r.sb_b = i;
        r.delay_ab = d.delay_ab;
        r.delay_ba = d.delay_ba;
        r.node_a.hold = d.hold_a;
        r.node_a.recycle =
            model::min_recycle(period[0], period[i], d.hold_b, d.delay_ab,
                               d.delay_ba) +
            opt.recycle_slack;
        r.node_a.holder = true;
        r.node_b.hold = d.hold_b;
        r.node_b.recycle =
            model::min_recycle(period[i], period[0], d.hold_a, d.delay_ab,
                               d.delay_ba) +
            opt.recycle_slack;
        r.node_b.holder = false;
        spoke[i] = d;
        doc.rings.push_back(std::move(r));
    }

    // Hub downlinks first (hub out port i-1 targets leaf i — the exact-match
    // scan in NocKernel::route finds it by coordinates), then one uplink per
    // leaf (its only out port, index 0).
    for (std::size_t i = 1; i < n; ++i) {
        sva::ChannelDoc ch;
        ch.name = "h2l" + std::to_string(i);
        ch.from_sb = 0;
        ch.to_sb = i;
        ch.ring = i - 1;
        ch.depth = spoke[i].hold_a + opt.depth_slack;
        ch.stage_delay = opt.stage_delay;
        doc.channels.push_back(std::move(ch));
    }
    for (std::size_t i = 1; i < n; ++i) {
        sva::ChannelDoc ch;
        ch.name = "l2h" + std::to_string(i);
        ch.from_sb = i;
        ch.to_sb = 0;
        ch.ring = i - 1;
        ch.depth = spoke[i].hold_b + opt.depth_slack;
        ch.stage_delay = opt.stage_delay;
        doc.channels.push_back(std::move(ch));
    }
    return doc;
}

}  // namespace

const char* shape_name(Shape s) {
    switch (s) {
        case Shape::kMesh: return "mesh";
        case Shape::kTorus: return "torus";
        case Shape::kStar: return "star";
        case Shape::kHierRing: return "hring";
    }
    return "?";
}

std::optional<Shape> parse_shape(const std::string& name) {
    if (name == "mesh") return Shape::kMesh;
    if (name == "torus") return Shape::kTorus;
    if (name == "star") return Shape::kStar;
    if (name == "hring") return Shape::kHierRing;
    return std::nullopt;
}

Geometry plan_geometry(std::size_t sbs) {
    Geometry g;
    if (sbs < 2) {
        g.width = 1;
        g.height = sbs;
        return g;
    }
    std::size_t r = 1;
    while ((r + 1) * (r + 1) <= sbs) ++r;
    while (r > 1 && sbs % r != 0) --r;
    g.width = r;
    g.height = sbs / r;
    return g;
}

sva::SpecDoc generate(const Options& opt) {
    check_common(opt);
    switch (opt.shape) {
        case Shape::kMesh: return generate_grid(opt, false);
        case Shape::kTorus: return generate_grid(opt, true);
        case Shape::kStar: return generate_star(opt);
        case Shape::kHierRing: {
            const Geometry g = plan_geometry(opt.sbs);
            // Formula-provisioned shape: the distribution knobs do not
            // apply, only the seed and the near-square cluster split do.
            RingOfRingsOptions r;
            r.clusters = g.width;
            r.members = g.height;
            r.seed = opt.seed;
            if (r.members < 2) {
                throw std::invalid_argument(
                    "topo: hring wants a composite SB count");
            }
            return make_ring_of_rings(r);
        }
    }
    throw std::invalid_argument("topo: unknown shape");
}

}  // namespace st::topo
