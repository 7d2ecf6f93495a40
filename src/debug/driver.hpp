#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "snap/snapshot.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"

namespace st::debug {

/// A breakpoint in local-cycle space: fire when SB `sb` has executed at
/// least `cycle` local clock cycles. Local cycle indices — not picoseconds —
/// are the deterministic coordinate system of the paper: the same (SB,
/// cycle) pair names the same architectural state in every run, under every
/// delay perturbation.
struct Breakpoint {
    std::size_t sb = 0;
    std::uint64_t cycle = 0;

    bool operator==(const Breakpoint&) const = default;
};

/// Outcome of one Driver::run / run_to_cycle leg.
enum class StopReason : std::uint8_t {
    kBreakpoint,  ///< a breakpoint's SB reached its cycle
    kQuiescent,   ///< no events pending (deadlock when clocks are stopped)
    kDeadline,    ///< simulated-time deadline passed
};

struct StopInfo {
    StopReason reason = StopReason::kQuiescent;
    std::optional<Breakpoint> hit;  ///< set when reason == kBreakpoint
};

/// Deterministic debug driver: wraps a Soc elaborated from a spec and
/// provides run-to-cycle breakpoints, event-level single-stepping, and
/// snapshot save/load — the simulator-side analogue of the paper's
/// tester-side debug flow (stop deterministically, examine state, resume).
///
/// Every stop lands on a slot boundary (the driver settles the current
/// timeslot), so the state is always snapshottable and two sessions that
/// issue the same commands observe identical digests at every stop.
class Driver {
  public:
    /// Elaborate a fresh Soc from `spec` (not started until the first run).
    explicit Driver(sys::SocSpec spec);

    /// Convenience: elaborate a shipped testbench by name.
    static Driver from_named_spec(const std::string& name) {
        return Driver(sys::make_named_spec(name));
    }

    sys::Soc& soc() { return *soc_; }

    // --- breakpoints ---
    void add_breakpoint(Breakpoint bp) { breakpoints_.push_back(bp); }
    void clear_breakpoints() { breakpoints_.clear(); }
    const std::vector<Breakpoint>& breakpoints() const { return breakpoints_; }

    /// Run until any breakpoint fires, the system goes quiescent, or the
    /// deadline passes. Already-satisfied breakpoints fire immediately.
    StopInfo run(sim::Time deadline);

    /// Run until SB `sb` has executed >= `cycle` local cycles (a one-shot
    /// breakpoint that does not disturb the persistent set).
    StopInfo run_to_cycle(std::size_t sb, std::uint64_t cycle,
                          sim::Time deadline);

    /// Execute up to `n` scheduler events, then settle to a slot boundary.
    /// Returns events executed (< `n` when quiescent); an edge is one event.
    std::uint64_t step(std::uint64_t n);

    // --- observation ---
    std::uint64_t cycle(std::size_t sb) const;
    sim::Time now() const { return soc_->scheduler().now(); }
    bool quiescent() const { return soc_->scheduler().quiescent(); }

    // --- race audit ---
    /// Toggle the scheduler's same-slot race audit. The setting is driver
    /// state, not Soc state: it survives restore()/load() (which elaborate a
    /// fresh Soc), so a resumed debug session audits exactly like the cold
    /// session it was snapshotted from.
    void set_race_audit(bool on);
    bool race_audit() const { return race_audit_; }
    /// Races recorded by the current Soc (cleared by a restore — the races
    /// belong to the discarded simulation, not the restored one).
    const std::vector<sim::RaceRecord>& races() const {
        return soc_->scheduler().races();
    }

    // --- snapshot/restore ---
    snap::Snapshot snapshot();
    std::uint64_t digest() { return snapshot().digest(); }
    void save(const std::string& path);

    /// Discard the current Soc, elaborate a fresh one from the same spec,
    /// and restore `snapshot` into it. Breakpoints survive a load.
    void restore(const snap::Snapshot& snapshot);
    void load(const std::string& path);

  private:
    StopInfo run_impl(sim::Time deadline,
                      const std::vector<Breakpoint>& stops);
    bool any_hit(const std::vector<Breakpoint>& stops,
                 std::optional<Breakpoint>& which) const;

    sys::SocSpec spec_;
    std::unique_ptr<sys::Soc> soc_;
    std::vector<Breakpoint> breakpoints_;
    bool race_audit_ = false;
};

/// Human-readable stop description for CLI output.
std::string format_stop(const StopInfo& info);

}  // namespace st::debug
