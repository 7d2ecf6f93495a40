#include "system/invariant_monitor.hpp"

namespace st::sys {

namespace {
using Phase = core::TokenNode::Phase;

/// Apply one phase transition to a holder count, keeping `flagged` (the
/// number of counts at-or-above `limit`) in sync.
void apply_transition(std::uint8_t& holders, Phase now, std::uint8_t limit,
                      std::size_t& flagged) {
    if (now == Phase::kHolding) {
        if (++holders == limit) ++flagged;
    } else {
        if (holders-- == limit) --flagged;
    }
}
}  // namespace

InvariantMonitor::InvariantMonitor(Soc& soc) : soc_(soc) {
    ring_holders_.assign(soc_.num_rings(), 0);
    multi_holders_.assign(soc_.num_multi_rings(), 0);
    // Each TokenNode belongs to exactly one ring (or one multi-ring
    // membership), so the single observer slot per node is enough.
    for (std::size_t r = 0; r < soc_.num_rings(); ++r) {
        const auto& spec = soc_.spec().rings[r];
        for (const std::size_t sb : {spec.sb_a, spec.sb_b}) {
            soc_.ring_node(r, sb).set_phase_observer([this, r](Phase now) {
                apply_transition(ring_holders_[r], now, 2, rings_both_);
            });
        }
    }
    for (std::size_t r = 0; r < soc_.num_multi_rings(); ++r) {
        const auto& spec = soc_.spec().multi_rings[r];
        for (const auto& m : spec.members) {
            soc_.multi_ring_node(r, m.sb).set_phase_observer(
                [this, r](Phase now) {
                    apply_transition(multi_holders_[r], now, 2, multis_over_);
                });
        }
    }
    recount();
    wrappers_.resize(soc_.num_sbs());
    for (std::size_t i = 0; i < soc_.num_sbs(); ++i) {
        auto& w = soc_.wrapper(i);
        wrappers_[i].clock = &w.clock();
        for (std::size_t n = 0; n < w.num_nodes(); ++n) {
            wrappers_[i].nodes.push_back(&w.node(n));
        }
        w.clock().on_edge(
            [this, i](std::uint64_t cycle, sim::Time) { check(i, cycle); });
    }
}

void InvariantMonitor::reset() {
    violations_.clear();
    checks_ = 0;
    recount();
}

void InvariantMonitor::recount() {
    rings_both_ = 0;
    multis_over_ = 0;
    for (std::size_t r = 0; r < soc_.num_rings(); ++r) {
        const auto& spec = soc_.spec().rings[r];
        std::uint8_t holders = 0;
        for (const std::size_t sb : {spec.sb_a, spec.sb_b}) {
            if (soc_.ring_node(r, sb).phase() == Phase::kHolding) ++holders;
        }
        ring_holders_[r] = holders;
        if (holders >= 2) ++rings_both_;
    }
    for (std::size_t r = 0; r < soc_.num_multi_rings(); ++r) {
        const auto& spec = soc_.spec().multi_rings[r];
        std::uint8_t holders = 0;
        for (const auto& m : spec.members) {
            if (soc_.multi_ring_node(r, m.sb).phase() == Phase::kHolding) {
                ++holders;
            }
        }
        multi_holders_[r] = holders;
        if (holders >= 2) ++multis_over_;
    }
}

void InvariantMonitor::record(std::string what) {
    if (violations_.size() < kMaxRecorded) violations_.push_back(std::move(what));
}

void InvariantMonitor::check(std::size_t wrapper_index, std::uint64_t cycle) {
    ++checks_;
    const WrapperCtx& w = wrappers_[wrapper_index];
    const bool running = !w.clock->stopped();

    for (const core::TokenNode* np : w.nodes) {
        const auto& node = *np;
        const bool bad_en = node.sb_en() && node.phase() != Phase::kHolding;
        const bool bad_wait = node.waiting() && node.clken();
        const bool bad_proto = node.protocol_errors() != 0;
        const bool bad_clk = running && !node.clken();
        if (!(bad_en || bad_wait || bad_proto || bad_clk)) continue;
        // Slow path: a violation is in force — now pay for formatting.
        const std::string loc =
            node.name() + " @cycle " + std::to_string(cycle) + ": ";
        if (bad_en) record(loc + "sb_en asserted while not holding");
        if (bad_wait) record(loc + "waiting with clken asserted");
        if (bad_proto) record(loc + "token protocol error observed");
        if (bad_clk) {
            // Settled post-edge state: a deasserted clken must have stopped
            // the clock by now (the edge decides its enable before monitors).
            record(loc + "clken low but clock still running");
        }
    }

    // Single-token mutual exclusion per ring (both endpoints visible). The
    // counts are maintained by the nodes' phase observers; scanning for the
    // offending ring only happens while some ring is actually violated.
    if (rings_both_ != 0) {
        for (std::size_t r = 0; r < soc_.num_rings(); ++r) {
            if (ring_holders_[r] < 2) continue;
            record("ring '" + soc_.ring(r).name() + "' @cycle " +
                   std::to_string(cycle) + ": both endpoints holding");
        }
    }
    // Multi-rings: at most one member holding (token-bus arbitration).
    if (multis_over_ != 0) {
        for (std::size_t r = 0; r < soc_.num_multi_rings(); ++r) {
            if (multi_holders_[r] < 2) continue;
            record("multi-ring '" + soc_.multi_ring(r).name() + "' @cycle " +
                   std::to_string(cycle) + ": " +
                   std::to_string(static_cast<unsigned>(multi_holders_[r])) +
                   " members holding");
        }
    }
}

}  // namespace st::sys
