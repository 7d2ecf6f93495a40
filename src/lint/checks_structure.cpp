// Structural lint passes: index validity, channel/ring bundling, initial
// token holders, isolated SBs, parameter sanity, counter widths.

#include <set>
#include <sstream>
#include <string>

#include "deadlock/stall.hpp"
#include "lint/lint.hpp"
#include "lint/locus.hpp"

namespace st::lint {

namespace {

using detail::channel_locus;
using detail::multi_ring_locus;
using detail::ring_locus;
using detail::sb_locus;

/// Width of the parallel-loadable hold/recycle counters in the node netlist
/// (area::node_netlist builds them 8 bits wide; Table 1's 145-gate figure
/// assumes this width).
constexpr std::uint32_t kCounterMax = 0xffu;

}  // namespace

void check_endpoints(const sys::SocSpec& spec, LintReport& report) {
    const std::size_t n = spec.sbs.size();
    const auto in_range = [n](std::size_t i) { return i < n; };

    if (n == 0) {
        report.add(Severity::kError, "ring-endpoints", "spec",
                   "spec has no synchronous blocks");
        return;
    }
    for (const auto& ring : spec.rings) {
        if (!in_range(ring.sb_a) || !in_range(ring.sb_b)) {
            report.add(Severity::kError, "ring-endpoints", ring_locus(ring),
                       "SB index out of range (" + std::to_string(ring.sb_a) +
                           ", " + std::to_string(ring.sb_b) + " vs " +
                           std::to_string(n) + " SBs)");
            continue;
        }
        if (ring.sb_a == ring.sb_b) {
            report.add(Severity::kError, "ring-endpoints", ring_locus(ring),
                       "ring joins " + sb_locus(spec, ring.sb_a) +
                           " to itself; a token ring needs two distinct SBs");
        }
    }
    for (const auto& mr : spec.multi_rings) {
        if (mr.members.size() < 2) {
            report.add(Severity::kError, "ring-endpoints",
                       multi_ring_locus(mr),
                       "multi-ring has " + std::to_string(mr.members.size()) +
                           " member(s); a token needs >= 2 stations");
            continue;
        }
        std::set<std::size_t> seen;
        for (const auto& m : mr.members) {
            if (!in_range(m.sb)) {
                report.add(Severity::kError, "ring-endpoints",
                           multi_ring_locus(mr),
                           "member SB index " + std::to_string(m.sb) +
                               " out of range");
            } else if (!seen.insert(m.sb).second) {
                report.add(Severity::kError, "ring-endpoints",
                           multi_ring_locus(mr),
                           sb_locus(spec, m.sb) +
                               " appears twice on the multi-ring; one node "
                               "per SB per ring");
            }
        }
    }
    for (const auto& ch : spec.channels) {
        if (!in_range(ch.from_sb) || !in_range(ch.to_sb)) {
            report.add(Severity::kError, "ring-endpoints", channel_locus(ch),
                       "endpoint SB index out of range");
            continue;
        }
        if (ch.from_sb == ch.to_sb) {
            report.add(Severity::kError, "ring-endpoints", channel_locus(ch),
                       "channel loops " + sb_locus(spec, ch.from_sb) +
                           " back to itself");
        }
        const std::size_t ring_count =
            ch.on_multi_ring ? spec.multi_rings.size() : spec.rings.size();
        if (ch.ring >= ring_count) {
            report.add(Severity::kError, "ring-endpoints", channel_locus(ch),
                       std::string("channel's ") +
                           (ch.on_multi_ring ? "multi-ring" : "ring") +
                           " index " + std::to_string(ch.ring) +
                           " out of range (" + std::to_string(ring_count) +
                           " configured)");
        }
    }
}

void check_channel_ring(const sys::SocSpec& spec, LintReport& report) {
    for (const auto& ch : spec.channels) {
        if (ch.on_multi_ring) {
            const auto& mr = spec.multi_rings[ch.ring];
            const auto member = [&mr](std::size_t sb) {
                for (const auto& m : mr.members) {
                    if (m.sb == sb) return true;
                }
                return false;
            };
            for (const std::size_t sb : {ch.from_sb, ch.to_sb}) {
                if (!member(sb)) {
                    report.add(
                        Severity::kError, "channel-ring", channel_locus(ch),
                        sb_locus(spec, sb) + " is not a member of " +
                            multi_ring_locus(mr) +
                            ", so its interfaces are never token-enabled",
                        "bundle the channel to a ring joining both SBs, or "
                        "add the SB to the multi-ring");
                }
            }
            continue;
        }
        const auto& ring = spec.rings[ch.ring];
        const bool joins =
            (ring.sb_a == ch.from_sb && ring.sb_b == ch.to_sb) ||
            (ring.sb_a == ch.to_sb && ring.sb_b == ch.from_sb);
        if (!joins) {
            std::ostringstream os;
            os << "master handshake " << ring_locus(ring) << " joins "
               << sb_locus(spec, ring.sb_a) << " and "
               << sb_locus(spec, ring.sb_b) << ", not the channel's "
               << sb_locus(spec, ch.from_sb) << " -> "
               << sb_locus(spec, ch.to_sb)
               << "; data exchange would never be enabled on a deterministic "
                  "schedule";
            report.add(Severity::kError, "channel-ring", channel_locus(ch),
                       os.str(),
                       "bundle the channel to the ring joining its two SBs");
        }
    }
}

void check_initial_holder(const sys::SocSpec& spec, LintReport& report) {
    for (const auto& ring : spec.rings) {
        const int holders = (ring.node_a.initial_holder ? 1 : 0) +
                            (ring.node_b.initial_holder ? 1 : 0);
        if (holders != 1) {
            report.add(
                Severity::kError, "initial-holder", ring_locus(ring),
                std::to_string(holders) +
                    " initial token holders; a ring carries exactly one token",
                holders == 0
                    ? "set initial_holder on exactly one of the two nodes"
                    : "clear initial_holder on all but one node");
        }
    }
    for (const auto& mr : spec.multi_rings) {
        int holders = 0;
        for (const auto& m : mr.members) holders += m.node.initial_holder;
        if (holders != 1) {
            report.add(
                Severity::kError, "initial-holder", multi_ring_locus(mr),
                std::to_string(holders) +
                    " initial token holders; a ring carries exactly one token",
                "set initial_holder on exactly one member");
        }
    }
}

void check_isolated_sb(const sys::SocSpec& spec, LintReport& report) {
    std::vector<bool> connected(spec.sbs.size(), false);
    for (const auto& ring : spec.rings) {
        connected[ring.sb_a] = connected[ring.sb_b] = true;
    }
    for (const auto& mr : spec.multi_rings) {
        for (const auto& m : mr.members) connected[m.sb] = true;
    }
    for (const auto& ch : spec.channels) {
        connected[ch.from_sb] = connected[ch.to_sb] = true;
    }
    for (std::size_t i = 0; i < spec.sbs.size(); ++i) {
        if (!connected[i]) {
            report.add(Severity::kWarning, "isolated-sb", sb_locus(spec, i),
                       "SB joins no ring and no channel; it free-runs outside "
                       "the deterministic schedule",
                       "remove the SB or wire it to a ring");
        }
    }
}

void check_param_sanity(const sys::SocSpec& spec, LintReport& report) {
    for (std::size_t i = 0; i < spec.sbs.size(); ++i) {
        const auto& c = spec.sbs[i].clock;
        if (c.base_period == 0) {
            report.add(Severity::kError, "param-sanity", sb_locus(spec, i),
                       "zero clock base period");
        }
        if (c.divider == 0) {
            report.add(Severity::kError, "param-sanity", sb_locus(spec, i),
                       "zero clock divider");
        } else if (dl::effective_period(spec.sbs[i]) / c.divider !=
                   c.base_period) {
            report.add(Severity::kError, "param-sanity", sb_locus(spec, i),
                       "clock period base period * divider overflows");
        }
        if (!spec.sbs[i].make_kernel) {
            report.add(Severity::kError, "param-sanity", sb_locus(spec, i),
                       "no kernel factory; the SB cannot be elaborated");
        }
    }
    const auto check_node = [&](const core::TokenNode::Params& node,
                                const std::string& locus) {
        if (node.hold == 0) {
            report.add(Severity::kError, "param-sanity", locus,
                       "hold register is 0; a node must keep the token for "
                       ">= 1 local cycle to preset its counter");
        }
    };
    for (const auto& ring : spec.rings) {
        check_node(ring.node_a, detail::node_locus(spec, ring, ring.sb_a));
        check_node(ring.node_b, detail::node_locus(spec, ring, ring.sb_b));
        if (ring.delay_ab == 0 || ring.delay_ba == 0) {
            report.add(Severity::kWarning, "param-sanity", ring_locus(ring),
                       "zero token wire delay models an instantaneous "
                       "asynchronous wire; use a positive delay");
        }
    }
    for (const auto& mr : spec.multi_rings) {
        for (const auto& m : mr.members) {
            check_node(m.node, multi_ring_locus(mr) + " node in " +
                                   sb_locus(spec, m.sb));
        }
    }
    for (const auto& ch : spec.channels) {
        if (ch.fifo.depth == 0) {
            report.add(Severity::kError, "param-sanity", channel_locus(ch),
                       "zero-depth FIFO");
        }
        if (ch.fifo.data_bits == 0 || ch.fifo.data_bits > 64) {
            report.add(Severity::kError, "param-sanity", channel_locus(ch),
                       "data width " + std::to_string(ch.fifo.data_bits) +
                           " outside the modelled 1..64 bits");
        }
        if (ch.tail_link.data_bits != ch.fifo.data_bits) {
            report.add(Severity::kWarning, "param-sanity", channel_locus(ch),
                       "tail link width " +
                           std::to_string(ch.tail_link.data_bits) +
                           " != FIFO width " +
                           std::to_string(ch.fifo.data_bits) +
                           "; words will be masked at the boundary");
        }
    }
}

void check_counter_width(const sys::SocSpec& spec, LintReport& report) {
    const auto check_node = [&](const core::TokenNode::Params& node,
                                const std::string& locus) {
        const auto flag = [&](const char* reg, std::uint32_t v) {
            report.add(Severity::kError, "counter-width", locus,
                       std::string(reg) + " register value " +
                           std::to_string(v) +
                           " overflows the 8-bit parallel-loadable counter "
                           "(max 255, Table 1 node netlist)",
                       "lower the value or rescale clock periods so the "
                       "count fits 8 bits");
        };
        if (node.hold > kCounterMax) flag("hold", node.hold);
        if (node.recycle > kCounterMax) flag("recycle", node.recycle);
        if (node.initial_recycle != core::TokenNode::Params::kUseRecycle &&
            node.initial_recycle > kCounterMax) {
            flag("initial_recycle", node.initial_recycle);
        }
    };
    for (const auto& ring : spec.rings) {
        check_node(ring.node_a, detail::node_locus(spec, ring, ring.sb_a));
        check_node(ring.node_b, detail::node_locus(spec, ring, ring.sb_b));
    }
    for (const auto& mr : spec.multi_rings) {
        for (const auto& m : mr.members) {
            check_node(m.node, multi_ring_locus(mr) + " node in " +
                                   sb_locus(spec, m.sb));
        }
    }
}

}  // namespace st::lint
