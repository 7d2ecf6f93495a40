#pragma once

#include <string>
#include <vector>

#include "deadlock/stall.hpp"
#include "lint/diagnostic.hpp"
#include "system/spec.hpp"

namespace st::lint {

/// Catalog entry describing one analysis pass (docs/LINT.md mirrors this).
struct PassInfo {
    const char* id;       ///< pass name (== primary rule id it emits)
    const char* summary;  ///< one-line description
};

/// All registered passes, in execution order.
const std::vector<PassInfo>& pass_catalog();

/// Run every static analysis pass over `spec`.
///
/// Structural validity (index ranges) is checked first; when the topology is
/// malformed the deeper schedule/occupancy passes are skipped — their
/// arithmetic would dereference out-of-range spec entries — and a note
/// records the early exit. A zero effective clock period likewise skips the
/// timing passes, whose arithmetic divides by it. Otherwise the spec's
/// dl::StallModel is built once and shared by the recycle and deadlock
/// passes.
LintReport lint(const sys::SocSpec& spec);

// --- individual passes (exposed for targeted tests) -----------------------
// Every pass assumes `check_endpoints` reported no error unless noted.

/// rule `ring-endpoints`: SB indices of rings / multi-rings / channels are in
/// range, rings are not self-loops, multi-rings have >= 2 distinct members.
/// Safe on arbitrary specs; everything else requires it to pass first.
void check_endpoints(const sys::SocSpec& spec, LintReport& report);

/// rule `channel-ring`: each channel's ring actually joins the channel's two
/// SBs (or, on a multi-ring, both endpoints are members).
void check_channel_ring(const sys::SocSpec& spec, LintReport& report);

/// rule `initial-holder`: every ring and multi-ring has exactly one initial
/// token holder.
void check_initial_holder(const sys::SocSpec& spec, LintReport& report);

/// rule `isolated-sb` (warning): an SB that joins no ring and no channel can
/// never exchange data deterministically — dead weight or a wiring mistake.
void check_isolated_sb(const sys::SocSpec& spec, LintReport& report);

/// rule `param-sanity`: hold >= 1, FIFO depth >= 1, data bits in [1, 64],
/// clock period/divider nonzero and their product in range, nonzero token
/// wire delays.
void check_param_sanity(const sys::SocSpec& spec, LintReport& report);

/// rule `counter-width`: hold / recycle / initial-recycle register values fit
/// the 8-bit parallel-loadable counters of the node netlist (Table 1).
void check_counter_width(const sys::SocSpec& spec, LintReport& report);

/// rule `recycle-feasibility`: per ring node (and multi-ring member), the
/// station's provisioned recycle wait R*T_local against its nominal token
/// absence (wire round trip + peer hold phases + alignment). A deficit
/// beyond one local cycle is an error (the schedule cannot work) whose fix
/// hint is ceil(absence / T_local); a sub-cycle deficit is a note (tuned
/// schedules legitimately shave the alignment cycle via initial_recycle).
/// Requires every effective clock period nonzero.
void check_recycle_feasibility(const dl::StallModel& stalls,
                               LintReport& report);

/// rules `fifo-depth` (error) and `fifo-head-visibility` (warning):
/// worst-case burst occupancy during one hold phase vs. configured depth, and
/// the static head-visibility margin (full ripple + handshake vs. token
/// flight time).
void check_fifo_provisioning(const sys::SocSpec& spec, LintReport& report);

/// rules `clock-ratio` and `restart-delay` (warnings): extreme clock-period
/// ratios across a ring starve the slow side; an async restart latency close
/// to the local period erodes the stall-recovery margin.
void check_clock_hazards(const sys::SocSpec& spec, LintReport& report);

/// rule `deadlock-fixpoint` (error): the stall model's bounded max-plus
/// fixpoint (dl::solve_stalls, DESIGN.md §6) diverges — a cyclic chain of
/// under-provisioned recycle registers can deadlock the stopped clocks.
void check_deadlock_rules(const dl::StallModel& stalls, LintReport& report);

}  // namespace st::lint
