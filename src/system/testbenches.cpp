#include "system/testbenches.hpp"

#include <memory>
#include <stdexcept>

#include "analytic/models.hpp"
#include "sim/random.hpp"
#include "sb/kernels/sinks.hpp"
#include "sb/kernels/transforms.hpp"
#include "workload/streaming.hpp"
#include "workload/traffic.hpp"

namespace st::sys {

namespace {

achan::SelfTimedFifo::Params fifo_params(std::size_t depth, sim::Time stage,
                                         unsigned bits) {
    achan::SelfTimedFifo::Params p;
    p.depth = depth;
    p.stage_delay = stage;
    p.data_bits = bits;
    p.head_req_delay = 20;
    p.head_ack_delay = 20;
    return p;
}

achan::FourPhaseLink::Params tail_link_params(unsigned bits) {
    return achan::FourPhaseLink::Params{bits, 20, 20};
}

clk::StoppableClock::Params clock_params(sim::Time period) {
    clk::StoppableClock::Params p;
    p.base_period = period;
    p.divider = 1;
    p.phase = 0;
    // The asynchronous restart must give interface handshakes that completed
    // the moment sb_en rose time to return to zero before the restarted edge
    // samples them (audited as the "restart_vs_pending" constraint).
    p.restart_delay = 200;
    return p;
}

/// Both-direction channels between two SBs over one ring.
void add_duplex_channels(SocSpec& spec, std::size_t ring, std::size_t sb_a,
                         std::size_t sb_b, std::size_t depth, sim::Time stage,
                         unsigned bits) {
    ChannelSpec fwd;
    fwd.name = spec.sbs[sb_a].name + "_to_" + spec.sbs[sb_b].name;
    fwd.from_sb = sb_a;
    fwd.to_sb = sb_b;
    fwd.ring = ring;
    fwd.fifo = fifo_params(depth, stage, bits);
    fwd.tail_link = tail_link_params(bits);
    spec.channels.push_back(fwd);

    ChannelSpec bwd = fwd;
    bwd.name = spec.sbs[sb_b].name + "_to_" + spec.sbs[sb_a].name;
    bwd.from_sb = sb_b;
    bwd.to_sb = sb_a;
    spec.channels.push_back(bwd);
}

}  // namespace

SocSpec make_pair_spec(const PairOptions& opt) {
    SocSpec spec;

    SbSpec alpha;
    alpha.name = "alpha";
    alpha.clock = clock_params(opt.period_a);
    alpha.make_kernel = [seed = opt.seed_a] {
        return std::make_unique<wl::TrafficKernel>(seed);
    };
    spec.sbs.push_back(alpha);

    SbSpec beta;
    beta.name = "beta";
    beta.clock = clock_params(opt.period_b);
    beta.make_kernel = [seed = opt.seed_b] {
        return std::make_unique<wl::TrafficKernel>(seed);
    };
    spec.sbs.push_back(beta);

    const bool symmetric = (opt.period_a == opt.period_b) &&
                           (opt.token_delay < opt.period_a);
    std::uint32_t recycle_a = 0;
    std::uint32_t recycle_b = 0;
    std::uint32_t initial_recycle_b = 0;
    if (opt.recycle_override) {
        recycle_a = recycle_b = *opt.recycle_override;
        initial_recycle_b = *opt.recycle_override;
    } else if (symmetric) {
        // Exact schedule (DESIGN.md §5): with D < T the token always arrives
        // one cycle's margin before the recycle check — never early-
        // recognized, never late.
        recycle_a = opt.hold + 2;
        recycle_b = opt.hold + 2;
        initial_recycle_b = opt.hold + 1;
    } else {
        recycle_a = model::min_recycle(opt.period_a, opt.period_b, opt.hold,
                                       opt.token_delay, opt.token_delay);
        recycle_b = model::min_recycle(opt.period_b, opt.period_a, opt.hold,
                                       opt.token_delay, opt.token_delay);
        initial_recycle_b = recycle_b;
    }

    RingSpec ring;
    ring.name = "ring_ab";
    ring.sb_a = 0;
    ring.sb_b = 1;
    ring.node_a.hold = opt.hold;
    ring.node_a.recycle = recycle_a;
    ring.node_a.initial_holder = true;
    ring.node_b.hold = opt.hold;
    ring.node_b.recycle = recycle_b;
    ring.node_b.initial_holder = false;
    ring.node_b.initial_recycle = initial_recycle_b;
    ring.delay_ab = opt.token_delay;
    ring.delay_ba = opt.token_delay;
    spec.rings.push_back(ring);

    add_duplex_channels(spec, 0, 0, 1, opt.hold, opt.stage_delay,
                        opt.data_bits);
    return spec;
}

SocSpec make_triangle_spec(const TriangleOptions& opt) {
    SocSpec spec;

    const sim::Time periods[3] = {opt.period_0, opt.period_1, opt.period_2};
    const char* names[3] = {"alpha", "beta", "gamma"};
    const std::uint64_t seeds[3] = {0xace1u, 0xbeefu, 0xcafeu};
    for (int i = 0; i < 3; ++i) {
        SbSpec sb;
        sb.name = names[i];
        sb.clock = clock_params(periods[i]);
        sb.make_kernel = [seed = seeds[i]] {
            return std::make_unique<wl::TrafficKernel>(seed);
        };
        spec.sbs.push_back(sb);
    }

    const std::size_t pairs[3][2] = {{0, 1}, {1, 2}, {0, 2}};
    for (std::size_t r = 0; r < 3; ++r) {
        const std::size_t a = pairs[r][0];
        const std::size_t b = pairs[r][1];
        RingSpec ring;
        ring.name = std::string("ring_") + names[a] + "_" + names[b];
        ring.sb_a = a;
        ring.sb_b = b;
        ring.node_a.hold = opt.hold;
        ring.node_a.initial_holder = true;
        ring.node_a.recycle = opt.recycle_slack +
                              model::min_recycle(periods[a], periods[b],
                                                 opt.hold, opt.token_delay,
                                                 opt.token_delay);
        ring.node_b.hold = opt.hold;
        ring.node_b.initial_holder = false;
        ring.node_b.recycle = opt.recycle_slack +
                              model::min_recycle(periods[b], periods[a],
                                                 opt.hold, opt.token_delay,
                                                 opt.token_delay);
        ring.delay_ab = opt.token_delay;
        ring.delay_ba = opt.token_delay;
        spec.rings.push_back(ring);
        add_duplex_channels(spec, r, a, b, opt.hold, opt.stage_delay,
                            opt.data_bits);
    }
    return spec;
}

SocSpec make_wide_pair_spec(const WidePairOptions& opt) {
    SocSpec spec;

    SbSpec alpha;
    alpha.name = "alpha";
    alpha.clock = clock_params(opt.period);
    alpha.make_kernel = [seed = opt.seed] {
        return std::make_unique<wl::StreamingSource>(seed);
    };
    spec.sbs.push_back(alpha);

    SbSpec beta;
    beta.name = "beta";
    beta.clock = clock_params(opt.period);
    beta.make_kernel = [seed = opt.seed] {
        return std::make_unique<wl::StreamingSink>(seed);
    };
    spec.sbs.push_back(beta);

    RingSpec ring;
    ring.name = "ring_ab";
    ring.sb_a = 0;
    ring.sb_b = 1;
    ring.node_a.hold = opt.hold;
    ring.node_a.recycle = opt.hold + 2;  // tuned symmetric schedule
    ring.node_a.initial_holder = true;
    ring.node_b.hold = opt.hold;
    ring.node_b.recycle = opt.hold + 2;
    ring.node_b.initial_holder = false;
    ring.node_b.initial_recycle = opt.hold + 1;
    ring.delay_ab = opt.token_delay;
    ring.delay_ba = opt.token_delay;
    spec.rings.push_back(ring);

    for (std::size_t lane = 0; lane < opt.lanes; ++lane) {
        ChannelSpec ch;
        ch.name = "lane" + std::to_string(lane);
        ch.from_sb = 0;
        ch.to_sb = 1;
        ch.ring = 0;
        ch.fifo = fifo_params(opt.hold, opt.stage_delay, opt.data_bits);
        ch.tail_link = tail_link_params(opt.data_bits);
        spec.channels.push_back(ch);
    }
    return spec;
}

SocSpec make_chain_spec(const ChainOptions& opt) {
    if (opt.length < 2) {
        throw std::invalid_argument("make_chain_spec: length must be >= 2");
    }
    SocSpec spec;
    for (std::size_t i = 0; i < opt.length; ++i) {
        SbSpec sb;
        sb.name = "stage" + std::to_string(i);
        sb.clock = clock_params(opt.base_period +
                                static_cast<sim::Time>(i) * opt.period_step);
        if (i == 0) {
            sb.make_kernel = [seed = opt.seed] {
                return std::make_unique<wl::TrafficKernel>(seed);
            };
        } else if (i + 1 == opt.length) {
            sb.make_kernel = [] { return std::make_unique<sb::RecorderSink>(); };
        } else {
            sb.make_kernel = [] {
                return std::make_unique<sb::FirKernel>(
                    std::vector<std::int32_t>{1, 2, 3, 2, 1});
            };
        }
        spec.sbs.push_back(sb);
    }
    for (std::size_t i = 0; i + 1 < opt.length; ++i) {
        const sim::Time t_a = spec.sbs[i].clock.base_period;
        const sim::Time t_b = spec.sbs[i + 1].clock.base_period;
        RingSpec ring;
        ring.name = "ring_" + std::to_string(i);
        ring.sb_a = i;
        ring.sb_b = i + 1;
        ring.node_a.hold = opt.hold;
        ring.node_a.initial_holder = true;
        ring.node_a.recycle =
            4 + model::min_recycle(t_a, t_b, opt.hold, opt.token_delay,
                                   opt.token_delay);
        ring.node_b.hold = opt.hold;
        ring.node_b.initial_holder = false;
        ring.node_b.recycle =
            4 + model::min_recycle(t_b, t_a, opt.hold, opt.token_delay,
                                   opt.token_delay);
        ring.delay_ab = opt.token_delay;
        ring.delay_ba = opt.token_delay;
        spec.rings.push_back(ring);

        ChannelSpec ch;
        ch.name = "ch_" + std::to_string(i);
        ch.from_sb = i;
        ch.to_sb = i + 1;
        ch.ring = i;
        ch.fifo = fifo_params(opt.hold, opt.stage_delay, opt.data_bits);
        ch.tail_link = tail_link_params(opt.data_bits);
        spec.channels.push_back(ch);
    }
    return spec;
}

SocSpec make_bus_spec(const BusOptions& opt) {
    if (opt.size < 2) {
        throw std::invalid_argument("make_bus_spec: size must be >= 2");
    }
    SocSpec spec;
    for (std::size_t i = 0; i < opt.size; ++i) {
        SbSpec sb;
        sb.name = "node" + std::to_string(i);
        sb.clock = clock_params(opt.base_period +
                                static_cast<sim::Time>(i) * opt.period_step);
        sb.make_kernel = [seed = 0xb005u + i] {
            return std::make_unique<wl::TrafficKernel>(seed);
        };
        spec.sbs.push_back(sb);
    }

    MultiRingSpec bus;
    bus.name = "bus";
    // Worst-case token absence seen from any member: all other members hold
    // (plus one alignment cycle each) and the token crosses every hop.
    sim::Time others_total = 0;
    for (std::size_t i = 0; i < opt.size; ++i) {
        others_total += static_cast<sim::Time>(opt.hold + 1) *
                        spec.sbs[i].clock.base_period;
    }
    const sim::Time hops_total =
        static_cast<sim::Time>(opt.size) * opt.hop_delay;
    for (std::size_t i = 0; i < opt.size; ++i) {
        MultiRingSpec::Member m;
        m.sb = i;
        m.hop_delay = opt.hop_delay;
        m.node.hold = opt.hold;
        m.node.initial_holder = (i == 0);
        const sim::Time t_local = spec.sbs[i].clock.base_period;
        const sim::Time away =
            hops_total + others_total -
            static_cast<sim::Time>(opt.hold + 1) * t_local;
        m.node.recycle = opt.recycle_slack +
                         static_cast<std::uint32_t>((away + t_local - 1) /
                                                    t_local);
        bus.members.push_back(m);
    }
    spec.multi_rings.push_back(bus);

    for (std::size_t i = 0; i < opt.size; ++i) {
        ChannelSpec ch;
        ch.name = spec.sbs[i].name + "_to_" +
                  spec.sbs[(i + 1) % opt.size].name;
        ch.from_sb = i;
        ch.to_sb = (i + 1) % opt.size;
        ch.ring = 0;
        ch.on_multi_ring = true;
        ch.fifo = fifo_params(opt.hold, opt.stage_delay, opt.data_bits);
        ch.tail_link = tail_link_params(opt.data_bits);
        spec.channels.push_back(ch);
    }
    return spec;
}

SocSpec make_mesh_spec(const MeshOptions& opt) {
    if (opt.width == 0 || opt.height == 0) {
        throw std::invalid_argument("make_mesh_spec: empty mesh");
    }
    SocSpec spec;
    sim::Rng rng(opt.seed);
    const auto tile = [&](std::size_t x, std::size_t y) {
        return y * opt.width + x;
    };
    for (std::size_t y = 0; y < opt.height; ++y) {
        for (std::size_t x = 0; x < opt.width; ++x) {
            SbSpec sb;
            sb.name = "tile" + std::to_string(x) + "_" + std::to_string(y);
            const sim::Time period =
                opt.base_period +
                (opt.period_spread == 0 ? 0 : rng.next_below(opt.period_spread));
            sb.clock = clock_params(period);
            sb.make_kernel = [seed = rng.next_u64() | 1ull] {
                return std::make_unique<wl::TrafficKernel>(seed);
            };
            spec.sbs.push_back(sb);
        }
    }
    const auto add_ring = [&](std::size_t a, std::size_t b) {
        const sim::Time t_a = spec.sbs[a].clock.base_period;
        const sim::Time t_b = spec.sbs[b].clock.base_period;
        RingSpec ring;
        ring.name = "ring_" + spec.sbs[a].name + "_" + spec.sbs[b].name;
        ring.sb_a = a;
        ring.sb_b = b;
        ring.node_a.hold = opt.hold;
        ring.node_a.initial_holder = true;
        ring.node_a.recycle =
            opt.recycle_slack + model::min_recycle(t_a, t_b, opt.hold,
                                                   opt.token_delay,
                                                   opt.token_delay);
        ring.node_b.hold = opt.hold;
        ring.node_b.initial_holder = false;
        ring.node_b.recycle =
            opt.recycle_slack + model::min_recycle(t_b, t_a, opt.hold,
                                                   opt.token_delay,
                                                   opt.token_delay);
        ring.delay_ab = opt.token_delay;
        ring.delay_ba = opt.token_delay;
        const std::size_t r = spec.rings.size();
        spec.rings.push_back(ring);
        add_duplex_channels(spec, r, a, b, opt.hold, opt.stage_delay,
                            opt.data_bits);
    };
    for (std::size_t y = 0; y < opt.height; ++y) {
        for (std::size_t x = 0; x < opt.width; ++x) {
            if (x + 1 < opt.width) add_ring(tile(x, y), tile(x + 1, y));
            if (y + 1 < opt.height) add_ring(tile(x, y), tile(x, y + 1));
        }
    }
    return spec;
}

const std::vector<std::string>& named_specs() {
    static const std::vector<std::string> names = {"pair", "triangle", "chain",
                                                   "mesh", "wide",     "bus"};
    return names;
}

SocSpec make_named_spec(const std::string& name) {
    if (name == "pair") return make_pair_spec();
    if (name == "triangle") return make_triangle_spec();
    if (name == "chain") return make_chain_spec();
    if (name == "mesh") return make_mesh_spec();
    if (name == "wide") return make_wide_pair_spec();
    if (name == "bus") return make_bus_spec();
    throw std::invalid_argument("make_named_spec: unknown spec '" + name + "'");
}

}  // namespace sys
