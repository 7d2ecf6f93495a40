#include "sva/graph.hpp"

namespace st::sva {

namespace {

std::string sb_name(const sys::SocSpec& spec, std::size_t i) {
    return i < spec.sbs.size() ? spec.sbs[i].name : "<out-of-range>";
}

void defect(TokenFlowGraph& g, std::string locus, std::string message,
            bool replayable_trap) {
    lint::Diagnostic d;
    d.severity = lint::Severity::kError;
    d.rule = "sva-structure";
    d.locus = std::move(locus);
    d.message = std::move(message);
    if (replayable_trap) g.trap_defects.push_back(g.structural.size());
    g.structural.push_back(std::move(d));
}

}  // namespace

TokenFlowGraph lower(const sys::SocSpec& spec) {
    TokenFlowGraph g;
    g.spec = &spec;

    g.sbs.reserve(spec.sbs.size());
    for (const auto& sb : spec.sbs) {
        SbNode n;
        n.name = sb.name;
        n.period = dl::effective_period(sb);
        n.restart = sb.clock.restart_delay;
        g.sbs.push_back(std::move(n));
    }

    // --- two-node rings ---------------------------------------------------
    for (std::size_t r = 0; r < spec.rings.size(); ++r) {
        const auto& ring = spec.rings[r];
        const std::string locus = "ring '" + ring.name + "'";
        if (ring.sb_a >= spec.sbs.size() || ring.sb_b >= spec.sbs.size()) {
            defect(g, locus, "SB endpoint index out of range", false);
            continue;
        }
        if (ring.sb_a == ring.sb_b) {
            defect(g, locus, "ring is a self-loop on one SB", false);
            continue;
        }
        RingInfo info;
        info.name = ring.name;
        info.multi = false;
        info.index = r;
        info.holders = (ring.node_a.initial_holder ? 1u : 0u) +
                       (ring.node_b.initial_holder ? 1u : 0u);
        g.rings.push_back(std::move(info));
    }

    // --- multi-rings (token buses) ----------------------------------------
    for (std::size_t r = 0; r < spec.multi_rings.size(); ++r) {
        const auto& mr = spec.multi_rings[r];
        const std::string locus = "multi-ring '" + mr.name + "'";
        if (mr.members.size() < 2) {
            defect(g, locus, "fewer than 2 members", false);
            continue;
        }
        bool bad = false;
        for (const auto& m : mr.members) {
            if (m.sb >= spec.sbs.size()) {
                defect(g, locus, "member SB index out of range", false);
                bad = true;
                break;
            }
        }
        if (bad) continue;
        for (std::size_t i = 0; !bad && i < mr.members.size(); ++i) {
            for (std::size_t j = i + 1; j < mr.members.size(); ++j) {
                if (mr.members[i].sb == mr.members[j].sb) {
                    defect(g, locus,
                           "SB '" + spec.sbs[mr.members[i].sb].name +
                               "' appears twice",
                           false);
                    bad = true;
                    break;
                }
            }
        }
        if (bad) continue;

        RingInfo info;
        info.name = mr.name;
        info.multi = true;
        info.index = r;
        for (const auto& m : mr.members) {
            if (m.node.initial_holder) ++info.holders;
        }
        g.rings.push_back(std::move(info));
    }

    // --- channels ----------------------------------------------------------
    for (std::size_t c = 0; c < spec.channels.size(); ++c) {
        const auto& ch = spec.channels[c];
        const std::string locus = "channel '" + ch.name + "'";
        if (ch.from_sb >= spec.sbs.size() || ch.to_sb >= spec.sbs.size()) {
            defect(g, locus, "SB endpoint index out of range", false);
            continue;
        }
        FifoEdge e;
        e.channel = c;
        e.from_sb = ch.from_sb;
        e.to_sb = ch.to_sb;
        e.multi = ch.on_multi_ring;
        e.depth = ch.fifo.depth;
        e.stage_delay = ch.fifo.stage_delay;
        e.ripple = static_cast<sim::Time>(ch.fifo.depth) * ch.fifo.stage_delay +
                   2 * (ch.fifo.head_req_delay + ch.fifo.head_ack_delay);
        e.t_prod = g.sbs[ch.from_sb].period;
        e.t_cons = g.sbs[ch.to_sb].period;
        e.locus = locus;
        if (!ch.on_multi_ring) {
            if (ch.ring >= spec.rings.size()) {
                defect(g, locus, "ring index out of range", false);
                continue;
            }
            const auto& ring = spec.rings[ch.ring];
            const bool joins = (ring.sb_a == ch.from_sb &&
                                ring.sb_b == ch.to_sb) ||
                               (ring.sb_a == ch.to_sb &&
                                ring.sb_b == ch.from_sb);
            if (!joins) {
                // Elaboration rejects this binding with a clean exception,
                // so the defect is replayable as a model-trap witness.
                defect(g, locus,
                       "bundled ring '" + ring.name +
                           "' does not join SBs '" +
                           sb_name(spec, ch.from_sb) + "' and '" +
                           sb_name(spec, ch.to_sb) + "'",
                       true);
                continue;
            }
            e.ring = ch.ring;
            e.burst = ch.from_sb == ring.sb_a ? ring.node_a.hold
                                              : ring.node_b.hold;
            e.flight =
                ch.from_sb == ring.sb_a ? ring.delay_ab : ring.delay_ba;
        } else {
            if (ch.ring >= spec.multi_rings.size()) {
                defect(g, locus, "multi-ring index out of range", false);
                continue;
            }
            const auto& mr = spec.multi_rings[ch.ring];
            std::size_t from_m = mr.members.size();
            std::size_t to_m = mr.members.size();
            for (std::size_t m = 0; m < mr.members.size(); ++m) {
                if (mr.members[m].sb == ch.from_sb) from_m = m;
                if (mr.members[m].sb == ch.to_sb) to_m = m;
            }
            if (from_m == mr.members.size() || to_m == mr.members.size()) {
                defect(g, locus,
                       "an endpoint is not a member of multi-ring '" +
                           mr.name + "'",
                       false);
                continue;
            }
            e.ring = spec.rings.size() + ch.ring;
            e.burst = mr.members[from_m].node.hold;
            // Token flight: hop distances from producer to consumer in ring
            // order (hop_delay is the wire to the *next* member).
            for (std::size_t m = from_m; m != to_m;
                 m = (m + 1) % mr.members.size()) {
                e.flight += mr.members[m].hop_delay;
            }
        }
        g.sbs[ch.from_sb].out_channels.push_back(g.fifos.size());
        g.sbs[ch.to_sb].in_channels.push_back(g.fifos.size());
        g.fifos.push_back(std::move(e));
    }

    if (g.structural.empty()) g.stall = dl::build_stall_model(spec);
    // A trap witness promises that elaboration throws *cleanly*. That only
    // holds when every structural defect is of the clean-throwing kind: if
    // an ill-indexed defect coexists, elaboration may fault on it first, so
    // no defect is safely replayable.
    if (g.trap_defects.size() != g.structural.size()) g.trap_defects.clear();
    return g;
}

}  // namespace st::sva
