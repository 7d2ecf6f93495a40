#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "system/spec.hpp"

namespace st::dl {

/// Static stall model for hold/recycle provisioning (the deadlock-preventing
/// rules the paper derives but leaves out; DESIGN.md §6). It is the one
/// stall-feasibility oracle: lint's `recycle-feasibility` and
/// `deadlock-rules` passes and the sva `sva-deadlock` obligation all read it.

/// Effective local clock period of an SB: ring-oscillator base period times
/// the output divider, ps.
inline sim::Time effective_period(const sys::SbSpec& sb) {
    return sb.clock.base_period * sb.clock.divider;
}

/// One token-ring station: a ring node's view of its token schedule. A
/// two-node ring gives one station per endpoint; a multi-ring gives one
/// station per (member, other member) pair, so the stall of every
/// co-member's SB can propagate. A member's stations are consecutive and
/// differ only in `peer_sb`.
struct Station {
    std::size_t ring = 0;     ///< unified id: spec.rings, then multi_rings
    std::size_t sb = 0;       ///< SB hosting the node
    std::size_t peer_sb = 0;  ///< SB whose stall delays the returning token
    sim::Time t_local = 0;    ///< effective local clock period, ps
    /// R * T_local: the wait the node budgets after passing the token.
    sim::Time provisioned = 0;
    /// Nominal token absence, ps: the wire round trip (every hop of a
    /// multi-ring) plus each other node's hold phase and one alignment
    /// cycle, (H + 1) * T_peer.
    sim::Time away = 0;
    /// "ring 'r' node in SB 's'" or "multi-ring 'm' node in SB 's'".
    std::string locus;

    /// Smallest recycle value whose wait covers the nominal absence,
    /// ceil(away / T_local). Requires t_local > 0.
    std::uint64_t min_recycle() const {
        return away / t_local + (away % t_local != 0 ? 1 : 0);
    }
};

/// The stations of one spec and their coupling. Station j couples into
/// station n when j sits in n's peer SB on a different ring: j's stall
/// delays the token n waits for. n's own ring is excluded — n has just
/// passed that token, so its wait cannot delay it, and a lone two-node ring
/// never deadlocks.
struct StallModel {
    std::vector<Station> stations;
    /// coupling[n] = the stations feeding station n's transitive stall.
    std::vector<std::vector<std::size_t>> coupling;
};

/// Lower a spec into its stall model. Requires every ring endpoint and
/// multi-ring member SB index in range (lint's `ring-endpoints`, sva's
/// `sva-structure`); other parameters are taken as they are.
StallModel build_stall_model(const sys::SocSpec& spec);

inline constexpr std::size_t kNoStation =
    std::numeric_limits<std::size_t>::max();

/// The bounded max-plus fixpoint of the transitive-stall recurrence
///   stall(n) = max(0, away(n) + max_{j in coupling(n)} stall(j)
///                     - provisioned(n)),
/// iterated in place from zero for at most |V| + 2 rounds.
struct StallFixpoint {
    /// False when a station still grew in the last allowed round, which
    /// certifies a positive-deficit coupling cycle: a cyclic chain of
    /// under-provisioned recycle registers that can deadlock.
    bool converged = true;
    std::size_t rounds = 0;
    std::vector<sim::Time> stall;   ///< per station, ps
    /// The coupling station that set each station's last growth, or
    /// kNoStation.
    std::vector<std::size_t> pred;
    std::vector<char> grew;  ///< grew in the final round
};

/// Values only grow. A growth after |V| rounds needs a dependency walk
/// longer than |V| stations, which revisits one, and the revisited segment
/// has a net-positive deficit; following `pred` from a station that `grew`
/// walks into such a cycle.
StallFixpoint solve_stalls(const StallModel& model);

}  // namespace st::dl
