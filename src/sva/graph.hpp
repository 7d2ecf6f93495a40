#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "deadlock/stall.hpp"
#include "lint/diagnostic.hpp"
#include "system/spec.hpp"

namespace st::sva {

/// One channel (self-timed FIFO + handshakes) as a data edge of the graph,
/// annotated with the occupancy and timing intervals the passes need.
struct FifoEdge {
    std::size_t channel = 0;  ///< index into SocSpec::channels
    std::size_t from_sb = 0;
    std::size_t to_sb = 0;
    std::size_t ring = 0;  ///< unified ring id the channel is bundled to
    bool multi = false;
    std::uint32_t depth = 0;
    sim::Time stage_delay = 0;
    std::uint32_t burst = 0;  ///< producer hold H: words pushed per rotation
    sim::Time ripple = 0;     ///< full ripple + head handshake, ps
    sim::Time flight = 0;     ///< token flight producer -> consumer, ps
    sim::Time t_prod = 0;     ///< producer effective clock period
    sim::Time t_cons = 0;     ///< consumer effective clock period
    std::string locus;
};

/// One SB with its schedule-relevant clock parameters and adjacency.
struct SbNode {
    std::string name;
    sim::Time period = 0;   ///< effective period (base * divider)
    sim::Time restart = 0;  ///< async restart latency
    std::vector<std::size_t> out_channels;
    std::vector<std::size_t> in_channels;
};

/// One unified ring (two-node rings first, then multi-rings).
struct RingInfo {
    std::string name;
    bool multi = false;
    std::size_t index = 0;    ///< into spec.rings or spec.multi_rings
    std::size_t holders = 0;  ///< number of initial token holders (budget)
};

/// The token-flow graph IR every sva pass runs over: SBs, rings, FIFO
/// edges, and the spec's stall model (dl::StallModel: the ring stations and
/// their coupling, shared with lint). Structural defects found while
/// lowering are recorded instead of thrown, so the structure pass can report
/// them as obligations.
struct TokenFlowGraph {
    const sys::SocSpec* spec = nullptr;
    std::vector<SbNode> sbs;
    std::vector<RingInfo> rings;
    std::vector<FifoEdge> fifos;
    /// Built only when the lowering found no structural defect; empty
    /// otherwise (no pass reads it on a defective graph).
    dl::StallModel stall;
    /// Lowering-time structural defects (rule `sva-structure`). When any
    /// defect makes an element un-lowerable the element is skipped; deeper
    /// passes run only on a graph with no defects.
    std::vector<lint::Diagnostic> structural;
    /// Defects that a plain elaboration would reject with a clean exception
    /// (replayable as a model-trap witness), as indices into `structural`.
    std::vector<std::size_t> trap_defects;

    bool ok() const { return structural.empty(); }
};

/// Lower a SocSpec into the token-flow graph. Never throws: malformed
/// structure lands in `structural` and the affected elements are skipped.
TokenFlowGraph lower(const sys::SocSpec& spec);

}  // namespace st::sva
