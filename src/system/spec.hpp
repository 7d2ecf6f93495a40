#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "async/four_phase.hpp"
#include "async/self_timed_fifo.hpp"
#include "clock/stoppable_clock.hpp"
#include "sb/kernel.hpp"
#include "sim/time.hpp"
#include "synchro/token_node.hpp"

namespace st::sys {

/// One synchronous block of the SoC.
struct SbSpec {
    std::string name;
    clk::StoppableClock::Params clock;
    /// Factory, not instance: the same SocSpec elaborates many independent
    /// simulations (the determinism sweep re-runs the system thousands of
    /// times).
    std::function<std::unique_ptr<sb::Kernel>()> make_kernel;
};

/// One token ring between a pair of SBs (paper: one ring per communicating
/// pair; the model also supports >2-node rings via Soc extensions).
struct RingSpec {
    std::string name;
    std::size_t sb_a = 0;
    std::size_t sb_b = 0;
    core::TokenNode::Params node_a;  ///< node inside sb_a's wrapper
    core::TokenNode::Params node_b;  ///< node inside sb_b's wrapper
    sim::Time delay_ab = 900;        ///< token wire delay a -> b, ps
    sim::Time delay_ba = 900;        ///< token wire delay b -> a, ps
};

/// A token ring threading more than two SBs round-robin — the shared-bus
/// generalization: since exactly one member holds the token at a time, all
/// channels bundled to the ring share the medium with deterministic,
/// arbiter-free arbitration.
struct MultiRingSpec {
    struct Member {
        std::size_t sb = 0;
        core::TokenNode::Params node;
        sim::Time hop_delay = 900;  ///< wire delay to the *next* member
    };
    std::string name;
    std::vector<Member> members;  ///< >= 2, exactly one initial holder
};

/// One unidirectional communication channel (self-timed FIFO + handshakes),
/// bundled to a ring's token (its master handshake).
struct ChannelSpec {
    std::string name;
    std::size_t from_sb = 0;
    std::size_t to_sb = 0;
    std::size_t ring = 0;  ///< ring index; must join the SBs
    /// When true, `ring` indexes SocSpec::multi_rings instead of rings and
    /// both endpoints must be members of that multi-ring.
    bool on_multi_ring = false;
    achan::SelfTimedFifo::Params fifo;
    achan::FourPhaseLink::Params tail_link;  ///< output-interface link
};

/// Whole-SoC structural description.
struct SocSpec {
    std::vector<SbSpec> sbs;
    std::vector<RingSpec> rings;
    std::vector<MultiRingSpec> multi_rings;
    std::vector<ChannelSpec> channels;
};

}  // namespace st::sys
