// Timing lint passes: recycle schedule feasibility, FIFO burst occupancy and
// head visibility, clock-period hazards, and the deadlock fixpoint. The
// recycle and deadlock passes read the spec's dl::StallModel.

#include <algorithm>
#include <sstream>
#include <string>

#include "deadlock/stall.hpp"
#include "lint/lint.hpp"
#include "lint/locus.hpp"
#include "sim/time.hpp"

namespace st::lint {

namespace {

using detail::channel_locus;
using detail::multi_ring_locus;
using detail::ring_locus;

sim::Time sb_period(const sys::SocSpec& spec, std::size_t i) {
    return dl::effective_period(spec.sbs[i]);
}

/// Producer-side hold value of the channel's master-handshake node, i.e. the
/// maximum words that can enter the FIFO tail during one token visit.
std::uint32_t producer_hold(const sys::SocSpec& spec,
                            const sys::ChannelSpec& ch) {
    if (ch.on_multi_ring) {
        for (const auto& m : spec.multi_rings[ch.ring].members) {
            if (m.sb == ch.from_sb) return m.node.hold;
        }
        return 0;  // membership errors are channel-ring's business
    }
    const auto& ring = spec.rings[ch.ring];
    if (ring.sb_a == ch.from_sb) return ring.node_a.hold;
    if (ring.sb_b == ch.from_sb) return ring.node_b.hold;
    return 0;
}

/// Token flight time from the producer's node to the consumer's node — the
/// minimum quiet window the FIFO has to ripple freshly written words to the
/// head before the consumer's interfaces enable.
sim::Time token_flight(const sys::SocSpec& spec, const sys::ChannelSpec& ch) {
    if (ch.on_multi_ring) {
        const auto& members = spec.multi_rings[ch.ring].members;
        for (const auto& m : members) {
            if (m.sb == ch.from_sb) return m.hop_delay;  // one hop minimum
        }
        return 0;
    }
    const auto& ring = spec.rings[ch.ring];
    return ring.sb_a == ch.from_sb ? ring.delay_ab : ring.delay_ba;
}

}  // namespace

void check_recycle_feasibility(const dl::StallModel& stalls,
                               LintReport& report) {
    const dl::Station* prev = nullptr;
    for (const auto& s : stalls.stations) {
        // A multi-ring member's stations differ only in their peer SB:
        // judge the node once.
        const bool same_node = prev && prev->ring == s.ring && prev->sb == s.sb;
        prev = &s;
        if (same_node || s.provisioned >= s.away) continue;
        if (s.away - s.provisioned <= s.t_local) {
            // Within one alignment cycle: a tuned schedule (initial_recycle
            // phase alignment) legitimately runs here — the pair testbench
            // does.
            report.add(Severity::kNote, "recycle-feasibility", s.locus,
                       "provisioned wait " + sim::format_time(s.provisioned) +
                           " trails the nominal token absence " +
                           sim::format_time(s.away) +
                           " by less than one local cycle; requires tuned "
                           "initial_recycle phase alignment to avoid stalls");
            continue;
        }
        report.add(Severity::kError, "recycle-feasibility", s.locus,
                   "provisioned wait " + sim::format_time(s.provisioned) +
                       " cannot cover the nominal token absence " +
                       sim::format_time(s.away) +
                       "; the local clock stalls on every rotation",
                   "raise the recycle register to >= " +
                       std::to_string(s.min_recycle()));
    }
}

void check_fifo_provisioning(const sys::SocSpec& spec, LintReport& report) {
    for (const auto& ch : spec.channels) {
        const std::uint32_t burst = producer_hold(spec, ch);
        if (burst != 0 && ch.fifo.depth < burst) {
            std::ostringstream os;
            os << "FIFO depth " << ch.fifo.depth
               << " cannot absorb the worst-case burst of " << burst
               << " words written during one hold phase; tail backpressure "
                  "breaks the handshake-within-one-cycle contract";
            report.add(Severity::kError, "fifo-depth", channel_locus(ch),
                       os.str(),
                       "set depth >= the producer node's hold value (" +
                           std::to_string(burst) + ")");
        }

        // Head visibility (paper §4.1): a word written on the producer's
        // last hold cycle must ripple through every stage and complete the
        // head handshake before the token reaches the consumer and enables
        // the head interface. Static worst case: full ripple plus the head
        // link's unloaded handshake vs. the token flight time.
        const sim::Time ripple =
            static_cast<sim::Time>(ch.fifo.depth) * ch.fifo.stage_delay +
            2 * (ch.fifo.head_req_delay + ch.fifo.head_ack_delay);
        const sim::Time flight = token_flight(spec, ch);
        if (flight != 0 && ripple > flight) {
            std::ostringstream os;
            os << "worst-case head arrival " << sim::format_time(ripple)
               << " (full ripple + head handshake) exceeds the token flight "
                  "time "
               << sim::format_time(flight)
               << "; the consumer may enable its head interface before the "
                  "last word is visible";
            report.add(Severity::kWarning, "fifo-head-visibility",
                       channel_locus(ch), os.str(),
                       "shorten the FIFO, reduce stage delay, or lengthen "
                       "the token wire relative to the data path");
        }
    }
}

void check_clock_hazards(const sys::SocSpec& spec, LintReport& report) {
    constexpr double kRatioLimit = 4.0;
    const auto ratio_check = [&](const std::string& locus, sim::Time t_a,
                                 sim::Time t_b) {
        const double hi = static_cast<double>(std::max(t_a, t_b));
        const double lo = static_cast<double>(std::min(t_a, t_b));
        if (lo > 0 && hi / lo > kRatioLimit) {
            std::ostringstream os;
            os << "clock-period ratio " << hi / lo << " exceeds " << kRatioLimit
               << "; the fast side idles most of each rotation and recycle "
                  "counts grow toward the 8-bit ceiling";
            report.add(Severity::kWarning, "clock-ratio", locus, os.str(),
                       "re-tune dividers or split the ring so paired clocks "
                       "are within ~4x");
        }
    };
    for (const auto& ring : spec.rings) {
        ratio_check(ring_locus(ring), sb_period(spec, ring.sb_a),
                    sb_period(spec, ring.sb_b));
    }
    for (const auto& mr : spec.multi_rings) {
        sim::Time hi = 0;
        sim::Time lo = ~sim::Time{0};
        for (const auto& m : mr.members) {
            hi = std::max(hi, sb_period(spec, m.sb));
            lo = std::min(lo, sb_period(spec, m.sb));
        }
        ratio_check(multi_ring_locus(mr), hi, lo);
    }
    for (std::size_t i = 0; i < spec.sbs.size(); ++i) {
        const sim::Time period = sb_period(spec, i);
        const sim::Time restart = spec.sbs[i].clock.restart_delay;
        if (period > 0 && restart * 2 >= period) {
            report.add(Severity::kWarning, "restart-delay",
                       detail::sb_locus(spec, i),
                       "async restart latency " + sim::format_time(restart) +
                           " is >= half the local period " +
                           sim::format_time(period) +
                           "; every stall costs an extra effective cycle",
                       "lower restart_delay or provision recycle slack for "
                       "the added recovery time");
        }
    }
}

void check_deadlock_rules(const dl::StallModel& stalls, LintReport& report) {
    if (dl::solve_stalls(stalls).converged) return;
    report.add(Severity::kError, "deadlock-fixpoint", "spec",
               "transitive stall bounds diverge: a cyclic chain of "
               "under-provisioned recycle registers can deadlock the "
               "stopped clocks",
               "add recycle slack on at least one ring of every "
               "potential cycle (DESIGN.md section 6)");
}

}  // namespace st::lint
