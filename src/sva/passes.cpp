#include "sva/passes.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "sim/time.hpp"

namespace st::sva {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// The paper's audited perturbation envelope (§5): asynchronous delays at
/// 50–200% of nominal, clocks clamped to >= 75% (the bundling constraint).
constexpr unsigned kDelayGrid[] = {50, 75, 100, 150, 200};
constexpr unsigned kClockGrid[] = {75, 100, 150, 200};

std::string ps(sim::Time t) { return sim::format_time(t); }

Witness nominal_trap_witness(const sys::SocSpec& spec) {
    Witness w;
    w.delays = sys::DelayConfig::nominal(spec);
    w.expect_trap = true;
    return w;
}

}  // namespace

const char* verdict_name(Verdict v) {
    switch (v) {
        case Verdict::kProven: return "PROVEN";
        case Verdict::kPlausible: return "PLAUSIBLE";
        case Verdict::kConfirmed: return "CONFIRMED";
        case Verdict::kRetracted: return "RETRACTED";
    }
    return "?";
}

const std::vector<PassInfo>& sva_pass_catalog() {
    static const std::vector<PassInfo> catalog = {
        {"sva-structure",
         "token-flow graph lowering is well-formed (endpoints, bindings, "
         "memberships)"},
        {"sva-deadlock",
         "no positive-deficit coupling cycle: the transitive-stall fixpoint "
         "converges (deadlock freedom), else a minimal cycle + deadlock "
         "witness"},
        {"sva-occupancy",
         "worst-case FIFO occupancy interval [0, H] fits the configured "
         "depth, else a targeted overflow fault witness"},
        {"sva-clocks",
         "tail-handshake service rate keeps its nominal relation to the "
         "producer cycle window across the audited delay envelope, else the "
         "flipping corner as a delay-only witness"},
        {"sva-ordering",
         "token budget is exactly 1 per ring and every same-slot event pair "
         "targets distinct single-writer actors (static race audit)"},
    };
    return catalog;
}

std::vector<Obligation> pass_structure(const TokenFlowGraph& g) {
    std::vector<Obligation> out;
    if (g.ok()) {
        Obligation ob;
        ob.pass = "sva-structure";
        ob.locus = "soc";
        std::size_t multis = 0;
        for (const auto& r : g.rings) multis += r.multi ? 1 : 0;
        std::ostringstream os;
        os << "lowered " << g.sbs.size() << " SB(s), " << g.rings.size()
           << " ring(s) (" << multis << " multi), " << g.stall.stations.size()
           << " station(s), " << g.fifos.size()
           << " channel(s); every endpoint, ring binding, and membership is "
              "well-formed";
        ob.evidence = os.str();
        out.push_back(std::move(ob));
        return out;
    }
    for (std::size_t k = 0; k < g.structural.size(); ++k) {
        const auto& d = g.structural[k];
        Obligation ob;
        ob.pass = "sva-structure";
        ob.locus = d.locus;
        ob.verdict = Verdict::kPlausible;
        ob.evidence = d.message;
        const bool replayable =
            std::find(g.trap_defects.begin(), g.trap_defects.end(), k) !=
            g.trap_defects.end();
        if (replayable) {
            ob.witness = nominal_trap_witness(*g.spec);
        } else {
            ob.evidence +=
                " (not replayable: elaborating an ill-indexed spec is "
                "undefined, fix the indices first)";
        }
        out.push_back(std::move(ob));
    }
    return out;
}

std::vector<Obligation> pass_deadlock(const TokenFlowGraph& g) {
    std::vector<Obligation> out;
    if (!g.ok()) return out;
    Obligation ob;
    ob.pass = "sva-deadlock";
    ob.locus = "soc";
    const auto& stations = g.stall.stations;
    const std::size_t V = stations.size();
    if (V == 0) {
        ob.evidence = "no token rings: trivially deadlock-free";
        out.push_back(std::move(ob));
        return out;
    }

    const dl::StallFixpoint fp = dl::solve_stalls(g.stall);
    if (fp.converged) {
        sim::Time worst = 0;
        std::size_t worst_i = 0;
        std::size_t fragile = 0;
        for (std::size_t i = 0; i < V; ++i) {
            if (fp.stall[i] > worst) {
                worst = fp.stall[i];
                worst_i = i;
            }
            // Worst envelope corner: every away contribution at 200%, the
            // local clock (and with it the provisioned wait) at 75%.
            if (stations[i].provisioned * 75 < stations[i].away * 200) {
                ++fragile;
            }
        }
        std::ostringstream os;
        os << "transitive-stall fixpoint converged over " << V
           << " station(s) in " << fp.rounds
           << " round(s); worst stall bound " << ps(worst);
        if (worst > 0) os << " at " << stations[worst_i].locus;
        os << "; " << fragile << "/" << V
           << " station(s) have negative worst-corner slack under the "
              "50-200% envelope — absorbed by count-quantization (delivery "
              "coordinates are hold/recycle counts, not wall-clock times)";
        ob.evidence = os.str();
        out.push_back(std::move(ob));
        return out;
    }

    // Extract a positive-deficit cycle by walking argmax predecessors from
    // a station that was still growing in the final round.
    std::size_t start = dl::kNoStation;
    for (std::size_t i = 0; i < V; ++i) {
        if (fp.grew[i]) {
            start = i;
            break;
        }
    }
    std::vector<std::size_t> cycle;
    if (start != dl::kNoStation) {
        std::vector<std::size_t> order(V, dl::kNoStation);
        std::vector<std::size_t> path;
        std::size_t cur = start;
        while (cur != dl::kNoStation && order[cur] == dl::kNoStation) {
            order[cur] = path.size();
            path.push_back(cur);
            cur = fp.pred[cur];
        }
        if (cur != dl::kNoStation) {
            cycle.assign(path.begin() +
                             static_cast<std::ptrdiff_t>(order[cur]),
                         path.end());
        }
    }

    ob.verdict = Verdict::kPlausible;
    std::ostringstream os;
    if (!cycle.empty()) {
        ob.locus = stations[cycle.front()].locus;
        std::int64_t gain = 0;
        os << "positive-deficit coupling cycle (stall fixpoint diverges): ";
        for (std::size_t k = 0; k < cycle.size(); ++k) {
            const auto& s = stations[cycle[k]];
            const std::int64_t d = static_cast<std::int64_t>(s.away) -
                                   static_cast<std::int64_t>(s.provisioned);
            gain += d;
            if (k) os << " <- ";
            os << s.locus << " (" << (d >= 0 ? "+" : "") << d << " ps)";
        }
        os << "; net +" << gain
           << " ps per rotation — each rotation returns the tokens later "
              "until every clock in the cycle stalls permanently";
    } else {
        os << "stall fixpoint diverges (cyclic chain of under-provisioned "
              "recycle registers) but no predecessor cycle was recovered";
    }
    ob.evidence = os.str();
    Witness w;
    w.delays = sys::DelayConfig::nominal(*g.spec);
    w.expect = {fuzz::Outcome::kDeadlocked};
    ob.witness = std::move(w);
    out.push_back(std::move(ob));
    return out;
}

std::vector<Obligation> pass_occupancy(const TokenFlowGraph& g) {
    std::vector<Obligation> out;
    if (!g.ok()) return out;
    std::uint32_t max_burst = 0;
    std::uint32_t min_depth = std::numeric_limits<std::uint32_t>::max();
    std::int64_t worst_vis = std::numeric_limits<std::int64_t>::max();
    std::size_t worst_vis_ch = kNone;
    bool violated = false;
    for (const auto& e : g.fifos) {
        max_burst = std::max(max_burst, e.burst);
        min_depth = std::min(min_depth, e.depth);
        if (e.flight > 0) {
            const std::int64_t margin = static_cast<std::int64_t>(e.flight) -
                                        static_cast<std::int64_t>(e.ripple);
            if (margin < worst_vis) {
                worst_vis = margin;
                worst_vis_ch = e.channel;
            }
        }
        if (e.depth >= e.burst) continue;
        violated = true;
        Obligation ob;
        ob.pass = "sva-occupancy";
        ob.locus = e.locus;
        ob.verdict = Verdict::kPlausible;
        std::ostringstream os;
        os << "worst-case occupancy interval [0, H=" << e.burst
           << "] exceeds depth " << e.depth
           << ": one hold phase bursts H words into a " << e.depth
           << "-stage pipeline, so the tail handshake backs up mid-burst "
              "and any extra ripple latency shifts delivery cycles";
        ob.evidence = os.str();
        // Concretize: one targeted ripple stall of two consumer cycles on
        // the overflowed channel. A correctly provisioned FIFO absorbs this
        // (count-quantization re-aligns the head); an overflowed one has no
        // headroom and the delivery schedule diverges.
        Witness w;
        w.delays = sys::DelayConfig::nominal(*g.spec);
        fuzz::Fault f;
        f.cls = fuzz::FaultClass::kFifoStall;
        f.unit = e.channel;
        f.nth = 3;
        f.value = 2 * e.t_cons;
        w.faults.push_back(f);
        w.expect = {fuzz::Outcome::kTraceDivergent,
                    fuzz::Outcome::kInvariantViolation};
        ob.witness = std::move(w);
        out.push_back(std::move(ob));
    }
    if (!violated) {
        Obligation ob;
        ob.pass = "sva-occupancy";
        ob.locus = "soc";
        std::ostringstream os;
        os << "interval dataflow over rotations: occupancy stays in [0, H] "
              "with H <= depth for all "
           << g.fifos.size() << " channel(s) (max burst " << max_burst
           << ", min depth "
           << (g.fifos.empty() ? 0 : min_depth) << ")";
        if (worst_vis_ch != kNone) {
            os << "; worst head-visibility margin "
               << worst_vis << " ps at channel '"
               << g.spec->channels[worst_vis_ch].name
               << "' (negative margins are hidden by backlog buffering, "
                  "see sva-clocks for the envelope obligation)";
        }
        ob.evidence = os.str();
        out.push_back(std::move(ob));
    }
    return out;
}

std::vector<Obligation> pass_clocks(const TokenFlowGraph& g) {
    std::vector<Obligation> out;
    if (!g.ok()) return out;

    // Per-channel service-rate envelope stability. The producer pushes one
    // word per local cycle while holding; each word occupies the FIFO tail
    // for ~stage_delay (scaled by the fifo envelope). If the relation
    // "service time <= producer cycle window" flips anywhere on the
    // envelope, the push gating (can_push: link idle) reorders pushes
    // relative to nominal and the delivery schedule is no longer
    // delay-insensitive.
    std::vector<std::size_t> flipped;
    unsigned corner_f = 0;
    unsigned corner_c = 0;
    for (std::size_t i = 0; i < g.fifos.size(); ++i) {
        const auto& e = g.fifos[i];
        const bool nominal_over = e.stage_delay * 100 > e.t_prod * 100;
        bool flip = false;
        unsigned ff = 0;
        unsigned cc = 0;
        // Scan strongest-first (largest service, smallest window) so the
        // first flip found is the most stressed corner.
        for (const unsigned f : {200u, 150u, 100u, 75u, 50u}) {
            for (const unsigned c : kClockGrid) {
                const bool over = e.stage_delay * f > e.t_prod * c;
                if (over != nominal_over) {
                    flip = true;
                    ff = f;
                    cc = c;
                    break;
                }
            }
            if (flip) break;
        }
        if (flip) {
            flipped.push_back(i);
            if (flipped.size() == 1) {
                corner_f = ff;
                corner_c = cc;
            }
        }
    }

    // Ring clock-ratio and restart margins (reported as interval evidence;
    // lint's clock-hazards pass owns the warning-level thresholds).
    double worst_ratio = 1.0;
    for (const auto& r : g.rings) {
        sim::Time lo = std::numeric_limits<sim::Time>::max();
        sim::Time hi = 0;
        if (!r.multi) {
            const auto& ring = g.spec->rings[r.index];
            lo = std::min(g.sbs[ring.sb_a].period, g.sbs[ring.sb_b].period);
            hi = std::max(g.sbs[ring.sb_a].period, g.sbs[ring.sb_b].period);
        } else {
            for (const auto& m : g.spec->multi_rings[r.index].members) {
                lo = std::min(lo, g.sbs[m.sb].period);
                hi = std::max(hi, g.sbs[m.sb].period);
            }
        }
        if (lo > 0) {
            worst_ratio = std::max(worst_ratio, static_cast<double>(hi) /
                                                    static_cast<double>(lo));
        }
    }
    std::int64_t restart_margin = std::numeric_limits<std::int64_t>::max();
    for (const auto& sb : g.sbs) {
        restart_margin = std::min(
            restart_margin, static_cast<std::int64_t>(sb.period) -
                                2 * static_cast<std::int64_t>(sb.restart));
    }

    if (flipped.empty()) {
        Obligation ob;
        ob.pass = "sva-clocks";
        ob.locus = "soc";
        std::ostringstream os;
        os << "service/window relation stable over the 50-200% x 75-200% "
              "envelope for all "
           << g.fifos.size() << " channel(s)";
        if (!g.sbs.empty()) {
            os << "; worst ring clock ratio " << worst_ratio
               << "; min restart margin " << restart_margin << " ps";
        }
        ob.evidence = os.str();
        out.push_back(std::move(ob));
        return out;
    }

    const auto& first = g.fifos[flipped[0]];
    Obligation ob;
    ob.pass = "sva-clocks";
    ob.locus = first.locus;
    ob.verdict = Verdict::kPlausible;
    std::ostringstream os;
    os << "tail-handshake service rate is not envelope-stable for "
       << flipped.size() << " channel(s) (";
    for (std::size_t k = 0; k < flipped.size(); ++k) {
        os << (k ? ", " : "") << "'"
           << g.spec->channels[g.fifos[flipped[k]].channel].name << "'";
    }
    os << "): at corner (fifo=" << corner_f << "%, producer clock="
       << corner_c << "%) per-word service "
       << first.stage_delay * corner_f / 100 << " ps crosses the cycle "
       << "window " << first.t_prod * corner_c / 100 << " ps (nominal "
       << first.stage_delay << " ps vs " << first.t_prod
       << " ps) — the push schedule shifts and delivery cycles diverge";
    ob.evidence = os.str();

    Witness w;
    w.delays = sys::DelayConfig::nominal(*g.spec);
    for (auto& pct : w.delays.fifo_pct) pct = corner_f;
    if (first.from_sb < w.delays.clock_pct.size()) {
        w.delays.clock_pct[first.from_sb] = corner_c;
    }
    w.expect = {fuzz::Outcome::kTraceDivergent};
    ob.witness = std::move(w);
    out.push_back(std::move(ob));
    return out;
}

std::vector<Obligation> pass_ordering(const TokenFlowGraph& g) {
    std::vector<Obligation> out;
    if (!g.ok()) return out;
    bool violated = false;
    for (const auto& r : g.rings) {
        if (r.holders == 1) continue;
        violated = true;
        Obligation ob;
        ob.pass = "sva-ordering";
        ob.locus = (r.multi ? std::string("multi-ring '")
                            : std::string("ring '")) +
                   r.name + "'";
        ob.verdict = Verdict::kPlausible;
        if (r.holders == 0) {
            ob.evidence =
                "token budget 0: no station can ever enter its hold phase "
                "— total starvation of the ring";
        } else {
            std::ostringstream os;
            os << "token budget " << r.holders
               << " > 1: two tokens share one wire, so same-slot arrival "
                  "pairs at one endpoint commute and the delivery order is "
                  "ambiguous";
            ob.evidence = os.str();
        }
        ob.witness = nominal_trap_witness(*g.spec);
        out.push_back(std::move(ob));
    }
    if (violated) return out;

    // Same-slot census: candidate commuting pairs are inbound async events
    // landing in one SB's timeslot — token arrivals (one per station) and
    // FIFO head deliveries (one per inbound channel). Every such source
    // targets its own single-writer actor (the station's node, the head
    // latch of one channel), so any same-slot pair acts on disjoint state
    // and commutes harmlessly; phases *within* one actor are ordered by the
    // scheduler's priority strata. This is the static mirror of the
    // dynamic race audit, which reports zero races on exactly this census.
    std::vector<std::size_t> sources(g.sbs.size(), 0);
    for (const auto& st : g.stall.stations) ++sources[st.sb];
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < g.sbs.size(); ++i) {
        const std::size_t n = sources[i] + g.sbs[i].in_channels.size();
        pairs += n * (n - 1) / 2;
    }
    Obligation ob;
    ob.pass = "sva-ordering";
    ob.locus = "soc";
    std::ostringstream os;
    os << "each of " << g.rings.size()
       << " ring(s) carries exactly one token (budget == 1); enumerated "
       << pairs << " same-slot candidate pair(s) over "
       << g.stall.stations.size()
       << " station(s) and " << g.fifos.size()
       << " FIFO head(s) — every pair targets distinct single-writer "
          "actors, so same-slot commutation cannot change architectural "
          "state";
    ob.evidence = os.str();
    out.push_back(std::move(ob));
    return out;
}

}  // namespace st::sva
