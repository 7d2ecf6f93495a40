#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clock/clock_sink.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"

namespace st::clk {

/// Stoppable local clock modelling the paper's escapement ring oscillator.
///
/// Semantics (paper §2, Chapiro's escapement organization):
///  * the enable is evaluated *synchronously*, once per edge, after all
///    clocked processes have committed, in the edge's one event (ClockSink)
///    — a deasserted enable means the next edge is simply never generated
///    ("the clock enable interrupts the ring oscillator instead of gating
///    its output"),
///  * `async_restart()` restarts a stopped clock asynchronously with a
///    configurable restart latency; because only full edges are modelled the
///    restart is runt-pulse-free by construction,
///  * frequency is digitally controllable: a base ring period (variable delay
///    inverters) times an output divider (paper §4.1).
///
/// The cycle counter gives every edge a *local cycle index*; the determinism
/// property of synchro-tokens is stated in this index space (DESIGN.md §5).
class StoppableClock : public snap::Snapshottable {
  public:
    struct Params {
        sim::Time base_period = 1000;    ///< ring oscillator period, ps
        unsigned divider = 1;            ///< output clock divider setting
        sim::Time phase = 0;             ///< absolute time of the first edge
        sim::Time restart_delay = 50;    ///< async restart latency, ps
    };

    StoppableClock(sim::Scheduler& sched, std::string name, Params p);

    StoppableClock(const StoppableClock&) = delete;
    StoppableClock& operator=(const StoppableClock&) = delete;

    /// Register a clocked process. Sample/commit run over sinks in
    /// registration order (behaviour must not depend on it; see ClockSink).
    void add_sink(ClockSink* sink);

    /// Enable function evaluated after each edge's commit phase; typically
    /// the AND of all wrapper-node clken outputs. Defaults to always-on.
    void set_enable_fn(std::function<bool()> fn) { enable_fn_ = std::move(fn); }

    /// Schedule the first edge (at `phase`). Idempotent.
    void start();

    /// Asynchronously restart a stopped clock (token arrival). No-op when
    /// the clock is running or was never started.
    void async_restart();

    /// Permanently halt (end of simulation teardown).
    void halt() { halted_ = true; }

    const std::string& name() const { return name_; }
    std::uint64_t cycles() const { return cycles_; }
    bool stopped() const { return stopped_; }
    sim::Time effective_period() const {
        return params_.base_period * params_.divider;
    }

    /// Digital frequency controls (loadable from the tester via TAP).
    void set_divider(unsigned d);
    void set_base_period(sim::Time p);
    unsigned divider() const { return params_.divider; }
    sim::Time base_period() const { return params_.base_period; }

    /// Stall statistics: cumulative time spent stopped and stop count.
    sim::Time total_stopped_time() const { return total_stopped_; }
    std::uint64_t stop_events() const { return stop_events_; }

    /// Opt-in fault hook (fuzz harness): extra latency added to the next
    /// asynchronous restart edge — a restart glitch in the escapement logic.
    /// Consulted once per restart that actually schedules an edge.
    void set_restart_fault(std::function<sim::Time()> fn) {
        restart_fault_ = std::move(fn);
    }

    /// Observer invoked at each rising edge (monitor priority) — used by
    /// trace capture.
    void on_edge(std::function<void(std::uint64_t cycle, sim::Time t)> fn) {
        edge_observers_.push_back(std::move(fn));
    }

    sim::Scheduler& scheduler() const { return sched_; }

    /// Snapshot: full register state plus the fire slot of the pending
    /// edge event (if any), which restore_state re-arms. Taken only at
    /// slot boundaries, so the same-time monitor event is never in flight.
    void save_state(snap::StateWriter& w) const override;
    void restore_state(snap::StateReader& r) override;

  private:
    void schedule_edge(sim::Time t);
    void edge();

    sim::Scheduler& sched_;
    std::string name_;
    Params params_;
    std::vector<ClockSink*> sinks_;
    std::function<bool()> enable_fn_;
    std::function<sim::Time()> restart_fault_;
    std::vector<std::function<void(std::uint64_t, sim::Time)>> edge_observers_;

    bool started_ = false;
    bool halted_ = false;
    bool stopped_ = false;
    bool edge_pending_ = false;
    std::uint64_t cycles_ = 0;
    sim::Time stop_began_ = 0;
    sim::Time total_stopped_ = 0;
    std::uint64_t stop_events_ = 0;
    // Fire slot of the pending edge event, valid while edge_pending_.
    sim::Time edge_time_ = 0;
    std::uint64_t edge_seq_ = 0;
};

}  // namespace st::clk
