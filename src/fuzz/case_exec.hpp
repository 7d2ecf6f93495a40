#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "verify/streaming.hpp"

namespace st::fuzz {

/// Case-execution core of fuzz::CaseRunner, exposed so probes and tests can
/// replay a case call for call: the bounded run loop, the deadline formula,
/// and the outcome-precedence classification. tests/test_gang.cpp replays
/// cases on freshly elaborated Socs through these same calls and holds the
/// rewinding engine to the same reports.

/// Slowest effective clock period of `spec` (base period x divider).
sim::Time max_effective_period(const sys::SocSpec& spec);

/// The campaign's per-case wall deadline: generous slack over the slowest
/// clock so only a genuine stall (not a merely slow perturbation) misses
/// the cycle goal.
inline sim::Time case_deadline(sim::Time max_period, std::uint64_t cycles) {
    return static_cast<sim::Time>(cycles + 64) * max_period * 8;
}

/// max_effective_period(sys::apply(nominal, delays)) without materializing
/// the perturbed spec — a rewound lane never elaborates one.
sim::Time perturbed_max_effective_period(const sys::SocSpec& nominal,
                                         const sys::DelayConfig& delays);

/// Soc::run_cycles plus an event-budget watchdog. Returns true when every
/// SB reached the cycle goal; `budget_expired` distinguishes livelock from
/// quiescence / time overrun.
bool run_bounded(sys::Soc& soc, std::uint64_t n_cycles, sim::Time deadline,
                 std::uint64_t max_events, bool& budget_expired);

/// Sum of protocol-error counters over every token node of `soc`.
std::uint64_t total_protocol_errors(sys::Soc& soc);

/// Classify a finished bounded run into a RunReport (Outcome precedence:
/// invariant > deadlock > divergent). Reads the terminal simulation state
/// (event counter, protocol errors, stop flag, deadlock witness) off `soc`.
///
/// `violations_tail` optionally continues `violations` (a monitor log split
/// across two monitors reads as their concatenation, so "any violation" and
/// "first violation" read across both in order). CaseRunner passes nullptr.
///
/// The trace verdict is `checker`'s: it must be built over `golden` and
/// attached to `cap`, the run's capture. A null or mismatched checker throws
/// std::invalid_argument.
RunReport classify_case(sys::Soc& soc, std::uint64_t faults_fired, bool goal,
                        bool budget_expired,
                        const std::vector<std::string>& violations,
                        const std::vector<std::string>* violations_tail,
                        verify::StreamingChecker* checker,
                        const verify::GoldenIndex& golden,
                        const verify::RunCapture& cap);

}  // namespace st::fuzz
