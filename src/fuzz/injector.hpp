#pragma once

#include <cstdint>
#include <vector>

#include "fuzz/fault.hpp"
#include "system/soc.hpp"

namespace st::fuzz {

/// Binds a fault list onto an elaborated Soc through the opt-in hooks on
/// the scheduler, token nodes, FIFOs and clocks. Construct after the Soc,
/// before the run; the Injector must outlive the simulation (the installed
/// hooks reference its counters).
///
/// Faults referring to units the spec does not have (ring/channel/SB index
/// out of range) are rejected with std::invalid_argument — a repro file for
/// one spec cannot be silently misapplied to another.
class Injector {
  public:
    /// With `defer_spurious` the spurious-token events are NOT scheduled at
    /// construction — the injector is being built for a Soc about to be
    /// restored from a snapshot, and restore_state re-arms the pending ones
    /// in their original slots instead. Spurious fire times are clamped to
    /// `max(value, now)` so a fault list drawn against time 0 stays legal
    /// when injection starts after a warm-up prefix.
    Injector(sys::Soc& soc, const std::vector<Fault>& faults,
             bool defer_spurious = false);

    Injector(const Injector&) = delete;
    Injector& operator=(const Injector&) = delete;

    ~Injector() { detach(); }

    /// Remove every hook this Injector installed (scheduler interceptor,
    /// node pass faults, FIFO stage faults, clock restart faults), so a
    /// reused Soc never carries a previous case's fault plan into the next
    /// run. Idempotent; the destructor calls it. Pending spurious-token
    /// events are NOT descheduled — the lane's next rewind
    /// (Soc::reset_from_image) drops them with the rest of the pending set,
    /// and a Soc torn down with the Injector never fires them.
    void detach();

    /// Number of fault occurrences that actually fired during the run.
    std::uint64_t fired() const { return fired_; }

    /// Trigger counters + pending spurious events, as an extra chunk inside
    /// a Soc snapshot (pass via Soc::save_snapshot's extra hook).
    void save_state(snap::StateWriter& w) const;

    /// Counterpart: must run inside Soc::restore_snapshot's extra hook (the
    /// scheduler's restore window), on an Injector constructed with
    /// `defer_spurious = true` from the identical fault list.
    void restore_state(snap::StateReader& r);

  private:
    /// Occurrence-count trigger shared by every hook kind.
    struct Trigger {
        Fault fault;
        std::uint64_t seen = 0;
        bool done = false;
        const void* actor = nullptr;  ///< wire drops: the receiving node
    };

    core::TokenNode& ring_endpoint(sys::Soc& soc, const Fault& f) const;

    /// One scheduled (or deferred) spurious-token transition.
    struct Spurious {
        core::TokenNode* node = nullptr;
        sim::Time t = 0;
        std::uint64_t seq = 0;
        bool fired = false;
    };

    sim::Scheduler* sched_ = nullptr;
    sys::Soc* soc_ = nullptr;  ///< null once detached
    std::uint64_t fired_ = 0;
    std::vector<Spurious> spurious_;
    // Stable storage: hook lambdas capture `this` and index into these.
    std::vector<Trigger> wire_drops_;
    std::vector<std::vector<Trigger>> node_triggers_;   // per faulted node
    std::vector<std::vector<Trigger>> fifo_triggers_;   // per faulted FIFO
    std::vector<std::vector<Trigger>> clock_triggers_;  // per faulted clock
    // Hooked units, for detach().
    std::vector<core::TokenNode*> hooked_nodes_;
    std::vector<std::size_t> hooked_fifos_;
    std::vector<std::size_t> hooked_clocks_;
};

}  // namespace st::fuzz
