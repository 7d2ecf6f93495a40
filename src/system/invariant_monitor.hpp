#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "system/soc.hpp"

namespace st::sys {

/// Runtime invariant monitor: hooks every wrapper clock of a Soc and checks
/// the synchro-tokens protocol invariants after each settled edge:
///
///  * per ring, at most one endpoint is in the holding phase (single-token
///    mutual exclusion of the master handshake),
///  * sb_en implies the node is holding, and a waiting node has clken low,
///  * no node ever observes a protocol error (second token while holding),
///  * a running clock implies every one of its nodes asserts clken.
///
/// Attach after elaboration, before start; assert `violations().empty()` at
/// the end of the run.
///
/// **Cost model** (docs/PERF.md): the mutual-exclusion checks are evaluated
/// from per-ring holding counts maintained *incrementally* via the token
/// nodes' phase observers, not by polling every node of every ring at every
/// edge — on the mesh-64 bench the polling formulation was ~70% of total
/// case time. The counts change exactly when a phase changes, so "count == 2
/// at a check" is equivalent to "both endpoints holding at that check": the
/// recorded violations (text and order) are identical to the polling
/// implementation's. Violation messages are only formatted when a check
/// fires, so the fault-free fast path allocates nothing.
///
/// The monitor is reusable across runs of the same Soc (a gang::Lane keeps
/// one for every case): call `reset()` after a snapshot restore to clear
/// the log and re-derive the holding counts from the restored phases.
class InvariantMonitor {
  public:
    explicit InvariantMonitor(Soc& soc);

    InvariantMonitor(const InvariantMonitor&) = delete;
    InvariantMonitor& operator=(const InvariantMonitor&) = delete;

    /// Re-arm for a fresh run on the same Soc: clears the violation log and
    /// the check counter and recounts ring holders from the current node
    /// phases (snapshot restores bypass the phase observers by design).
    void reset();

    const std::vector<std::string>& violations() const { return violations_; }
    std::uint64_t checks_performed() const { return checks_; }

  private:
    void check(std::size_t wrapper_index, std::uint64_t cycle);
    void record(std::string what);
    void recount();

    Soc& soc_;
    std::vector<std::string> violations_;
    std::uint64_t checks_ = 0;

    /// Per-wrapper check context, resolved once at attach: the clock and
    /// node pointers the hot per-edge loop reads (topology is immutable
    /// after elaboration, so the indirection through Soc/wrapper accessors
    /// is pure overhead at check time).
    struct WrapperCtx {
        const clk::StoppableClock* clock = nullptr;
        std::vector<const core::TokenNode*> nodes;
    };
    std::vector<WrapperCtx> wrappers_;

    /// Endpoints currently holding, per ring (0..2) / per multi-ring.
    std::vector<std::uint8_t> ring_holders_;
    std::vector<std::uint8_t> multi_holders_;
    /// Rings at count 2 / multi-rings above count 1 right now. The per-edge
    /// fast path is two zero tests; the ring scans only run while a
    /// violation is actually in force.
    std::size_t rings_both_ = 0;
    std::size_t multis_over_ = 0;

    static constexpr std::size_t kMaxRecorded = 16;
};

}  // namespace st::sys
