#include "fuzz/case_exec.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace st::fuzz {

sim::Time max_effective_period(const sys::SocSpec& spec) {
    sim::Time max_p = 1;
    for (const auto& sb : spec.sbs) {
        const sim::Time p =
            sb.clock.base_period * std::max(1u, sb.clock.divider);
        max_p = std::max(max_p, p);
    }
    return max_p;
}

sim::Time perturbed_max_effective_period(const sys::SocSpec& nominal,
                                         const sys::DelayConfig& delays) {
    // Mirrors sys::apply: the only delay dimension entering the period is
    // the clock base period, scaled by clock_pct.
    sim::Time max_p = 1;
    for (std::size_t i = 0; i < nominal.sbs.size(); ++i) {
        const auto& sb = nominal.sbs[i];
        const sim::Time p =
            sim::scale_percent(sb.clock.base_period, delays.clock_pct[i]) *
            std::max(1u, sb.clock.divider);
        max_p = std::max(max_p, p);
    }
    return max_p;
}

bool run_bounded(sys::Soc& soc, std::uint64_t n_cycles, sim::Time deadline,
                 std::uint64_t max_events, bool& budget_expired) {
    soc.start();
    budget_expired = false;
    auto& sched = soc.scheduler();
    const std::uint64_t budget0 = sched.events_executed();
    // O(1) per event: watch one laggard SB at a time (cycle counts only
    // grow), mirroring Soc::run_cycles — the run stops at the same event
    // boundary as the full-scan formulation.
    std::size_t lag = 0;
    for (;;) {
        while (lag < soc.num_sbs() &&
               soc.wrapper(lag).clock().cycles() >= n_cycles) {
            ++lag;
        }
        if (lag == soc.num_sbs()) return true;
        while (soc.wrapper(lag).clock().cycles() < n_cycles) {
            if (sched.stop_requested()) {
                // Cooperative early exit (streaming checker classified the
                // run divergent): at most the event in flight ran past the
                // mismatch. A campaign's window stop never lands here: its
                // window is the goal, met on the stop's own event.
                return false;
            }
            if (sched.quiescent() || sched.next_event_time() > deadline) {
                return false;
            }
            if (sched.events_executed() - budget0 >= max_events) {
                budget_expired = true;
                return false;
            }
            sched.step();
        }
    }
}

std::uint64_t total_protocol_errors(sys::Soc& soc) {
    std::uint64_t n = 0;
    const auto& spec = soc.spec();
    for (std::size_t r = 0; r < spec.rings.size(); ++r) {
        n += soc.ring_node(r, spec.rings[r].sb_a).protocol_errors();
        n += soc.ring_node(r, spec.rings[r].sb_b).protocol_errors();
    }
    for (std::size_t r = 0; r < spec.multi_rings.size(); ++r) {
        for (const auto& m : spec.multi_rings[r].members) {
            n += soc.multi_ring_node(r, m.sb).protocol_errors();
        }
    }
    return n;
}

RunReport classify_case(sys::Soc& soc, std::uint64_t faults_fired, bool goal,
                        bool budget_expired,
                        const std::vector<std::string>& violations,
                        const std::vector<std::string>* violations_tail,
                        verify::StreamingChecker* checker,
                        const verify::GoldenIndex& golden,
                        const verify::RunCapture& cap) {
    if (checker == nullptr || &checker->golden() != &golden ||
        cap.checker() != checker) {
        throw std::invalid_argument(
            "classify_case: needs a checker over `golden` attached to `cap`");
    }
    const bool stopped_early = soc.scheduler().stop_requested();

    RunReport r;
    r.goal_met = goal;
    r.faults_fired = faults_fired;
    r.events = soc.scheduler().events_executed();
    r.protocol_errors = total_protocol_errors(soc);

    const bool tail_violation =
        violations_tail != nullptr && !violations_tail->empty();
    if (!violations.empty() || tail_violation || r.protocol_errors > 0) {
        r.outcome = Outcome::kInvariantViolation;
        if (!violations.empty()) {
            r.detail = violations.front();
        } else if (tail_violation) {
            r.detail = violations_tail->front();
        } else {
            std::ostringstream os;
            os << r.protocol_errors << " token protocol error(s)";
            r.detail = os.str();
        }
        return r;
    }
    if (stopped_early && checker->diverged()) {
        // The checker classified the run at its first mismatching event and
        // stopped the scheduler; the remaining cycles could only have
        // changed the verdict through an invariant violation (checked
        // above), which early exit forgoes by being enabled only in
        // fault-free campaigns.
        const verify::TraceDiff diff = checker->finish();
        r.outcome = Outcome::kTraceDivergent;
        r.detail = diff.first_mismatch;
        r.locus = diff.locus;
        return r;
    }
    if (!goal) {
        r.outcome = Outcome::kDeadlocked;
        if (budget_expired) {
            r.detail = "event budget expired (livelock watchdog)";
        } else if (soc.deadlocked()) {
            r.detail = "quiescent with stopped clock(s)";
        } else {
            r.detail = "cycle goal not met before deadline";
        }
        return r;
    }
    // The online verdict: O(#SBs) for a deterministic run.
    const verify::TraceDiff diff = checker->finish();
    if (!diff.identical) {
        r.outcome = Outcome::kTraceDivergent;
        r.detail = diff.first_mismatch;
        r.locus = diff.locus;
        return r;
    }
    r.outcome = Outcome::kDeterministic;
    return r;
}

}  // namespace st::fuzz
