#include "deadlock/stall.hpp"

#include <algorithm>

namespace st::dl {

StallModel build_stall_model(const sys::SocSpec& spec) {
    StallModel m;
    const auto node_locus = [&](const std::string& ring, std::size_t sb) {
        return ring + " node in SB '" + spec.sbs[sb].name + "'";
    };

    for (std::size_t r = 0; r < spec.rings.size(); ++r) {
        const auto& ring = spec.rings[r];
        const std::string name = "ring '" + ring.name + "'";
        const sim::Time round_trip = ring.delay_ab + ring.delay_ba;
        const auto add = [&](std::size_t sb, std::size_t peer_sb,
                             const core::TokenNode::Params& node,
                             const core::TokenNode::Params& peer) {
            Station s;
            s.ring = r;
            s.sb = sb;
            s.peer_sb = peer_sb;
            s.t_local = effective_period(spec.sbs[sb]);
            s.provisioned = static_cast<sim::Time>(node.recycle) * s.t_local;
            s.away = round_trip + static_cast<sim::Time>(peer.hold + 1) *
                                      effective_period(spec.sbs[peer_sb]);
            s.locus = node_locus(name, sb);
            m.stations.push_back(std::move(s));
        };
        add(ring.sb_a, ring.sb_b, ring.node_a, ring.node_b);
        add(ring.sb_b, ring.sb_a, ring.node_b, ring.node_a);
    }

    for (std::size_t r = 0; r < spec.multi_rings.size(); ++r) {
        const auto& members = spec.multi_rings[r].members;
        const std::string name =
            "multi-ring '" + spec.multi_rings[r].name + "'";
        sim::Time hops_total = 0;
        for (const auto& mem : members) hops_total += mem.hop_delay;
        for (std::size_t i = 0; i < members.size(); ++i) {
            const auto& me = members[i];
            Station s;
            s.ring = spec.rings.size() + r;
            s.sb = me.sb;
            s.t_local = effective_period(spec.sbs[me.sb]);
            s.provisioned = static_cast<sim::Time>(me.node.recycle) * s.t_local;
            s.away = hops_total;
            for (std::size_t j = 0; j < members.size(); ++j) {
                if (j == i) continue;
                s.away += static_cast<sim::Time>(members[j].node.hold + 1) *
                          effective_period(spec.sbs[members[j].sb]);
            }
            s.locus = node_locus(name, me.sb);
            for (std::size_t j = 0; j < members.size(); ++j) {
                if (j == i) continue;
                s.peer_sb = members[j].sb;
                m.stations.push_back(s);
            }
        }
    }

    std::vector<std::vector<std::size_t>> by_sb(spec.sbs.size());
    for (std::size_t i = 0; i < m.stations.size(); ++i) {
        by_sb[m.stations[i].sb].push_back(i);
    }
    m.coupling.resize(m.stations.size());
    for (std::size_t n = 0; n < m.stations.size(); ++n) {
        const auto& peers = by_sb[m.stations[n].peer_sb];
        m.coupling[n].reserve(peers.size());
        for (const std::size_t j : peers) {
            if (m.stations[j].ring != m.stations[n].ring) {
                m.coupling[n].push_back(j);
            }
        }
    }
    return m;
}

StallFixpoint solve_stalls(const StallModel& model) {
    const std::size_t V = model.stations.size();
    StallFixpoint fp;
    fp.stall.assign(V, 0);
    fp.pred.assign(V, kNoStation);
    fp.grew.assign(V, 0);
    for (std::size_t round = 0;; ++round) {
        bool changed = false;
        std::fill(fp.grew.begin(), fp.grew.end(), 0);
        for (std::size_t i = 0; i < V; ++i) {
            const auto& n = model.stations[i];
            sim::Time cross = 0;
            std::size_t best = kNoStation;
            for (const std::size_t j : model.coupling[i]) {
                if (fp.stall[j] > cross) {
                    cross = fp.stall[j];
                    best = j;
                }
            }
            const sim::Time pressure = n.away + cross;
            const sim::Time s =
                pressure > n.provisioned ? pressure - n.provisioned : 0;
            if (s > fp.stall[i]) {
                fp.stall[i] = s;
                fp.pred[i] = best;
                fp.grew[i] = 1;
                changed = true;
            }
        }
        fp.rounds = round + 1;
        if (!changed) break;
        if (round >= V + 1) {
            fp.converged = false;
            break;
        }
    }
    return fp;
}

}  // namespace st::dl
