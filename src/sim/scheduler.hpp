#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/dispatch.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"
#include "snap/state_io.hpp"

namespace st::sim {

/// Event evaluation priority within one timestamp. Smaller runs first.
///
/// Priorities encode the two-phase clock-edge semantics (DESIGN.md §5):
/// at a given instant all clock edges fire, clocked processes sample their
/// inputs, then commit their new state, then combinational settling /
/// clock-gating decisions run last.
enum class Priority : int {
    kClockEdge = 0,   ///< clock edge bookkeeping, sample phase
    kCommit = 1,      ///< registered-state update phase
    kPostCommit = 2,  ///< clock-enable evaluation, gating decisions
    kDefault = 3,     ///< plain asynchronous events (handshakes, wires)
    kMonitor = 4,     ///< trace capture, checkers — observe settled state
};

/// Optional provenance attached to an event for the race audit: the object
/// whose state the callback mutates (or delivers into) and a static label.
/// Untagged events are invisible to the audit.
struct EventTag {
    const void* actor = nullptr;
    const char* label = nullptr;
};

/// One same-slot collision found by the race audit: two events executed at
/// the same (time, priority) targeting the same actor. Their relative order
/// is observable by that actor, yet it is fixed only by insertion sequence —
/// exactly the class of hidden ordering the determinism argument forbids the
/// kernel to introduce (DESIGN.md §5).
struct RaceRecord {
    Time t = 0;
    int priority = 0;
    const void* actor = nullptr;
    std::string first;   ///< label of the earlier event
    std::string second;  ///< label of the later event
};

/// Deterministic discrete-event scheduler.
///
/// Events are totally ordered by (time, priority, insertion sequence), so two
/// runs that schedule the same events in the same order replay identically —
/// the kernel itself contributes no nondeterminism. Model nondeterminism (the
/// subject of the paper) is represented as *data*: perturbed delay values fed
/// to the models, never hidden simulator state.
///
/// **Hot path**: callbacks are stored in a move-only small-buffer type
/// (`SmallFn`, no heap allocation for the models' capture sizes) inside
/// pool-allocated event records. Ordering lives in `sim::DispatchCore` — the
/// (time, priority, seq) dispatch kernel — whose packed 24-byte entries order
/// fixed-size keys only, so sift operations never move a callback, and
/// records return to a free list after execution: steady-state simulation
/// performs no allocation per event. The order is byte-for-byte the same
/// (time, priority, seq) total order as the original `std::priority_queue`
/// kernel; golden traces are unchanged.
///
/// A Scheduler is confined to one thread. Run-level parallelism lives in
/// `st::runner`, strictly *across* independent SoC instances, each owning a
/// private Scheduler (docs/PERF.md).
///
/// **Race audit**: with `set_race_audit(true)`, executed events that carry an
/// EventTag are grouped by (time, priority); two events in one group with the
/// same actor are recorded as a RaceRecord. The audit is an instrumentation
/// mode (off by default, near-zero cost when off) used by `st::lint` to
/// demonstrate that the shipped models never rely on insertion-sequence
/// tie-breaking.
class Scheduler {
  public:
    using Callback = SmallFn;

    Scheduler() = default;
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;
    ~Scheduler();

    /// Current simulation time.
    Time now() const { return now_; }

    /// Schedule `cb` at absolute time `t` (must be >= now()). Returns the
    /// event's insertion sequence number — the tie-break key of the total
    /// order. Components that participate in snapshot/restore record it so
    /// the event can be re-armed in exactly its original slot (see rearm).
    std::uint64_t schedule_at(Time t, Priority p, Callback cb) {
        return schedule_at(t, p, EventTag{}, std::move(cb));
    }

    /// Schedule a tagged event (visible to the race audit).
    std::uint64_t schedule_at(Time t, Priority p, EventTag tag, Callback cb);

    /// Schedule `cb` `delay` picoseconds from now.
    std::uint64_t schedule_after(Time delay, Priority p, Callback cb) {
        return schedule_at(now_ + delay, p, std::move(cb));
    }

    std::uint64_t schedule_after(Time delay, Priority p, EventTag tag,
                                 Callback cb) {
        return schedule_at(now_ + delay, p, tag, std::move(cb));
    }

    /// Schedule with default (asynchronous-event) priority.
    std::uint64_t schedule_after(Time delay, Callback cb) {
        return schedule_after(delay, Priority::kDefault, std::move(cb));
    }

    std::uint64_t schedule_after(Time delay, EventTag tag, Callback cb) {
        return schedule_after(delay, Priority::kDefault, tag,
                              std::move(cb));
    }

    /// Execute the single earliest event. Returns false if the queue is empty.
    bool step();

    /// Run until the queue is empty or simulated time would exceed `t_end`.
    /// Events at exactly `t_end` are executed. Returns events executed.
    std::uint64_t run_until(Time t_end);

    /// Run until the queue is empty or `max_events` executed.
    std::uint64_t run(std::uint64_t max_events = ~0ull);

    /// True when no event is pending — with stopped clocks this means the
    /// system is quiescent (the deadlock detector builds on this).
    bool quiescent() const { return queue_.empty(); }

    /// Time of the earliest pending event, or kNever when quiescent.
    Time next_event_time() const {
        return queue_.empty() ? kNever : queue_.front().t;
    }

    /// Total events executed since construction.
    std::uint64_t events_executed() const { return executed_; }

    // --- cooperative stop ---
    /// Ask the current run loop to stop at the next event boundary. Safe to
    /// call from inside an executing callback (the streaming trace checker
    /// calls it the instant a run is classified divergent — the remaining
    /// cycles can no longer change the verdict). `run()` / `run_until()` and
    /// the Soc-level cycle loops check the flag before popping the next
    /// event; the event in flight always completes, so a stopped run still
    /// sits at a well-formed boundary. The flag is sticky until cleared.
    void request_stop() { stop_requested_ = true; }
    bool stop_requested() const { return stop_requested_; }
    void clear_stop_request() { stop_requested_ = false; }

    /// Instrumentation: total event records in the slab pool (pending + free).
    /// Stays bounded by the high-water mark of *concurrently pending* events —
    /// records are recycled across `run_until` calls, not reallocated — so a
    /// long run with shallow queues keeps this at one slab.
    std::size_t pool_capacity() const { return slabs_.size() * kSlabSize; }

    /// Slabs parked in the calling thread's recycle pool (instrumentation
    /// for soak tests). Destroyed Schedulers donate their slabs here and new
    /// ones on the same thread draw from it, so a sweep worker constructing
    /// one `Soc` per case stops hitting the allocator after its first case —
    /// per-run slab malloc/free was a cross-thread allocator contention
    /// point in parallel campaigns.
    static std::size_t tls_pooled_slabs();

    // --- fault injection (opt-in) ---
    /// Event-level fault surface used by the fuzz harness: when installed,
    /// every *tagged* event is offered to the interceptor just before its
    /// callback would run; returning false drops the event silently — the
    /// model of a transition lost on an asynchronous wire. Untagged events
    /// always execute, so the kernel's own bookkeeping cannot be faulted.
    ///
    /// Small-buffer type (same machinery as the event callbacks), so
    /// installing a fault plan — and consulting it per tagged event — stays
    /// on the allocation-free hot path of fault-injected campaigns.
    using Interceptor = BasicSmallFn<bool(const EventTag&, Time)>;
    void set_interceptor(Interceptor fn) { interceptor_ = std::move(fn); }

    /// Events dropped by the interceptor (not counted in events_executed()).
    std::uint64_t events_dropped() const { return dropped_; }

    // --- snapshot/restore ---
    /// True when no pending event shares the current timestamp — the only
    /// states in which a snapshot may be taken (mid-slot the two-phase
    /// clock-edge protocol is half-applied).
    bool at_slot_boundary() const {
        return queue_.empty() || queue_.front().t > now_;
    }

    /// Drop every pending event, recycling the records, and clear any stop
    /// request. Counters (now, seq, executed, dropped) are left as-is — a
    /// lane rewind (Soc::reset_from_image) calls this immediately before a
    /// restore, which overwrites them from the image. The interceptor and
    /// race-audit configuration are wiring, not run state, and survive.
    void clear_pending();

    /// Execute every event scheduled at exactly now(). Behaviour-neutral:
    /// these events would run before anything else anyway, in this order.
    /// Returns events executed.
    std::uint64_t settle();

    /// Write the kernel's own state: counters plus the pending-event count.
    /// The pending events themselves are NOT serialized here — closures
    /// cannot be; instead every component records the (fire time, seq) of
    /// its in-flight events and re-arms them on restore. The count saved
    /// here cross-checks that no component forgot.
    ///
    /// `require_boundary = false` skips the slot-boundary precondition: only
    /// valid when nothing has executed yet (Soc::pristine_image — a freshly
    /// started system whose first edges sit at t=0 is still consistent,
    /// since no two-phase edge protocol can be half-applied).
    void save_state(snap::StateWriter& w, bool require_boundary = true) const;

    /// Begin a restore: load counters, then accept rearm() calls from the
    /// components' restore_state methods. schedule_at is rejected until
    /// end_restore() — restoring code must use rearm so ordering is exact.
    void begin_restore(snap::StateReader& r);

    /// Re-create one pending event during restore. `orig_seq` is the seq
    /// the event had in the saving run; staged events are replayed in
    /// orig_seq order, so every same-(time, priority) tie breaks exactly
    /// as it did before the snapshot.
    void rearm(Time t, Priority p, EventTag tag, std::uint64_t orig_seq,
               Callback cb);

    /// Finish a restore: verify the staged count matches the saved pending
    /// count (throws snap::SnapshotError otherwise) and push the staged
    /// events into the heap in orig_seq order.
    void end_restore();

    bool restoring() const { return restoring_; }

    // --- race audit ---
    /// Enable/disable the same-slot collision audit. Toggling clears the
    /// current group but keeps previously recorded races.
    void set_race_audit(bool on);
    bool race_audit() const { return audit_; }
    const std::vector<RaceRecord>& races() const { return races_; }
    void clear_races() { races_.clear(); }

  private:
    /// Pool-resident payload: everything the dispatch core does not need
    /// for ordering.
    struct Event {
        EventTag tag;
        Callback cb;
    };

    static constexpr std::size_t kSlabSize = 64;

    Event* acquire_event();
    void release_event(Event* ev);
    void audit_step(Time t, int priority, const EventTag& tag);

    /// The calling thread's slab recycle pool (see tls_pooled_slabs).
    static std::vector<std::unique_ptr<Event[]>>& slab_pool();

    Time now_ = 0;
    bool stop_requested_ = false;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t dropped_ = 0;
    Interceptor interceptor_;

    // Restore staging (see begin_restore/rearm/end_restore).
    struct Staged {
        Time t = 0;
        Priority p = Priority::kDefault;
        EventTag tag;
        std::uint64_t orig_seq = 0;
        Callback cb;
    };
    bool restoring_ = false;
    std::uint64_t expected_pending_ = 0;
    std::vector<Staged> staged_;

    DispatchCore<Event*> queue_;
    // Slab pool: fixed-size chunks keep Event addresses stable (queue entries
    // point into them); the free list recycles records across the whole life
    // of the scheduler.
    std::vector<std::unique_ptr<Event[]>> slabs_;
    std::vector<Event*> free_;

    // Race-audit state: tagged members of the (time, priority) group
    // currently executing.
    struct GroupMember {
        const void* actor = nullptr;
        const char* label = nullptr;
    };
    bool audit_ = false;
    Time group_t_ = 0;
    int group_priority_ = -1;
    std::vector<GroupMember> group_;
    std::vector<RaceRecord> races_;
};

}  // namespace st::sim
