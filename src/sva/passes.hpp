#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sva/graph.hpp"
#include "sva/witness.hpp"

namespace st::sva {

/// Lifecycle of one proof obligation:
///   kProven     — discharged statically; no dynamic run needed.
///   kPlausible  — not provable; carries a concretized witness (when the
///                 defect is replayable) awaiting the cross-check.
///   kConfirmed  — the witness reproduced the predicted failure through the
///                 st_fuzz classifier.
///   kRetracted  — the witness did NOT reproduce it: the static analysis
///                 over-approximated (e.g. a conservative fixpoint) and the
///                 finding is demoted to an advisory note.
enum class Verdict : std::uint8_t {
    kProven = 0,
    kPlausible = 1,
    kConfirmed = 2,
    kRetracted = 3,
};

const char* verdict_name(Verdict v);

/// One proof obligation emitted by a pass.
struct Obligation {
    std::string pass;   ///< pass id (== diagnostic rule id), e.g. sva-deadlock
    std::string locus;  ///< lint-style locus
    Verdict verdict = Verdict::kProven;
    std::string evidence;  ///< proof summary or counterexample description
    std::optional<Witness> witness;  ///< present when not proven + replayable
    std::string replay;  ///< cross-check transcript (confirm/retract detail)
};

/// Catalog entry mirroring lint::PassInfo, for --list and docs/LINT.md.
struct PassInfo {
    const char* id;
    const char* summary;
};

/// The five sva passes, in execution order.
const std::vector<PassInfo>& sva_pass_catalog();

/// Well-formedness of the lowering itself: every structural defect becomes
/// an obligation (replayable ones carry a nominal model-trap witness).
std::vector<Obligation> pass_structure(const TokenFlowGraph& g);

/// Deadlock freedom: the stall model's bounded max-plus fixpoint
/// (dl::solve_stalls, DESIGN.md §6 — the same one lint's `deadlock-rules`
/// pass runs). It stabilizes within |stations| rounds unless a
/// positive-deficit coupling cycle exists; on divergence the argmax
/// predecessors lead to one such cycle, reported as the certificate along
/// with a nominal-delay deadlock witness.
std::vector<Obligation> pass_deadlock(const TokenFlowGraph& g);

/// Worst-case FIFO occupancy by interval dataflow over token rotations:
/// per rotation the producer bursts H words into a depth-D pipeline, so
/// occupancy stays in [0, H]; H > D yields an overflow witness (a targeted
/// fifo-stall fault plan that the overflowed channel cannot absorb).
std::vector<Obligation> pass_occupancy(const TokenFlowGraph& g);

/// Clock-ratio / restart feasibility intervals per station: the per-word
/// tail-handshake service time against the producer's cycle window must
/// keep its nominal relation across the whole audited delay envelope
/// (fifo 50–200%, clocks 75–200%); a relation flip concretizes the exact
/// envelope corner as a delay-only divergence witness.
std::vector<Obligation> pass_clocks(const TokenFlowGraph& g);

/// Ordering ambiguity (the static counterpart of the dynamic race audit):
/// token budget must be exactly 1 per ring, and every same-slot candidate
/// event pair must target distinct single-writer actors.
std::vector<Obligation> pass_ordering(const TokenFlowGraph& g);

}  // namespace st::sva
