#include "topo/topo.hpp"

#include <stdexcept>
#include <string>

#include "analytic/models.hpp"

namespace st::topo {

namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
    return (a + b - 1) / b;
}

}  // namespace

sva::SpecDoc make_ring_of_rings(const RingOfRingsOptions& opt) {
    if (opt.clusters < 1 || opt.members < 2) {
        throw std::invalid_argument(
            "ring-of-rings wants >= 1 cluster of >= 2 members");
    }
    sva::SpecDoc doc;
    const auto period_of = [&](std::size_t global) {
        return opt.base_period + (global % 5) * opt.period_step;
    };

    for (std::size_t c = 0; c < opt.clusters; ++c) {
        for (std::size_t i = 0; i < opt.members; ++i) {
            const std::size_t g = c * opt.members + i;
            sva::SbDoc sb;
            sb.name = "c" + std::to_string(c) + "m" + std::to_string(i);
            sb.period = period_of(g);
            sb.restart = 50;
            sb.seed = opt.seed + 0x9E3779B97F4A7C15ull * (g + 1);
            doc.sbs.push_back(std::move(sb));
        }
    }

    // One multi-ring bus per cluster. Member i's worst-case token absence is
    // the full lap: every hop wire plus every other member's hold phases
    // (H+1 local periods each) — the same bound the deadlock pass provisions
    // against. Recycle = ceil(absence / T_local) + slack.
    for (std::size_t c = 0; c < opt.clusters; ++c) {
        sva::MultiRingDoc m;
        m.name = "bus" + std::to_string(c);
        const std::uint64_t hops_total = opt.members * opt.hop_delay;
        for (std::size_t i = 0; i < opt.members; ++i) {
            const std::size_t g = c * opt.members + i;
            std::uint64_t absence = hops_total;
            for (std::size_t j = 0; j < opt.members; ++j) {
                if (j == i) continue;
                absence += (opt.hold + 1ull) *
                           period_of(c * opt.members + j);
            }
            sva::MemberDoc mem;
            mem.sb = g;
            mem.hop_delay = opt.hop_delay;
            mem.node.hold = opt.hold;
            mem.node.recycle = static_cast<std::uint32_t>(
                ceil_div(absence, period_of(g)) + opt.recycle_slack);
            mem.node.holder = i == 0;
            m.members.push_back(std::move(mem));
        }
        doc.multi_rings.push_back(std::move(m));
    }

    // Two-node outer rings chain the cluster gateways (member 0 of each
    // bus) into a top-level ring. Skipped for a single cluster.
    if (opt.clusters > 1) {
        for (std::size_t c = 0; c < opt.clusters; ++c) {
            const std::size_t a = c * opt.members;
            const std::size_t b = ((c + 1) % opt.clusters) * opt.members;
            sva::RingDoc r;
            r.name = "outer" + std::to_string(c);
            r.sb_a = a;
            r.sb_b = b;
            r.delay_ab = opt.outer_delay;
            r.delay_ba = opt.outer_delay;
            const auto provision = [&](std::size_t self, std::size_t peer) {
                return model::min_recycle(period_of(self), period_of(peer),
                                          opt.hold, opt.outer_delay,
                                          opt.outer_delay) +
                       opt.recycle_slack;
            };
            r.node_a.hold = opt.hold;
            r.node_a.recycle = provision(a, b);
            r.node_a.holder = true;
            r.node_b.hold = opt.hold;
            r.node_b.recycle = provision(b, a);
            r.node_b.holder = false;
            doc.rings.push_back(std::move(r));
        }
    }

    // Data channels: a neighbour pipeline on every bus, one forward channel
    // per outer ring. FIFO depth equals the hold burst, stage delay keeps
    // the service-rate envelope corner-stable.
    for (std::size_t c = 0; c < opt.clusters; ++c) {
        for (std::size_t i = 0; i < opt.members; ++i) {
            sva::ChannelDoc ch;
            ch.name = "c" + std::to_string(c) + "ch" + std::to_string(i);
            ch.from_sb = c * opt.members + i;
            ch.to_sb = c * opt.members + (i + 1) % opt.members;
            ch.ring = c;
            ch.on_multi_ring = true;
            ch.depth = opt.hold;
            doc.channels.push_back(std::move(ch));
        }
    }
    if (opt.clusters > 1) {
        for (std::size_t c = 0; c < opt.clusters; ++c) {
            sva::ChannelDoc ch;
            ch.name = "och" + std::to_string(c);
            ch.from_sb = c * opt.members;
            ch.to_sb = ((c + 1) % opt.clusters) * opt.members;
            ch.ring = c;  // outer ring index
            ch.on_multi_ring = false;
            ch.depth = opt.hold;
            doc.channels.push_back(std::move(ch));
        }
    }
    return doc;
}

}  // namespace st::topo
