#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"
#include "snap/state_io.hpp"

namespace st::sim {

/// Event evaluation priority within one timestamp. Smaller runs first.
///
/// Priorities order one instant (DESIGN.md §5): clock edges, then
/// asynchronous settling, then observers. Race-audit loci print the values.
enum class Priority : int {
    kClockEdge = 0,  ///< clock edge: sample, commit, enable decision
    kCommit = 1,     ///< PausibleClock's registered-state update phase
    kDefault = 3,    ///< plain asynchronous events (handshakes, wires)
    kMonitor = 4,    ///< trace capture, checkers — observe settled state
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
/// **Hot path**: one intrusive event store. Every pending event is a slab
/// pool record `(t, key, next, run_last, tag, callback)`; `key` packs the
/// priority (3 bits) over the seq (61 bits), so the total order is a compare
/// of `(t, key)`. Records within the 16.4 ns horizon sit on a timing wheel of
/// 512 slots x 32 ps with a 512-bit occupancy bitmap; later ones wait in a
/// small `(t, key)` heap. A slot is a list of runs, one per (t, priority),
/// each in seq order, so a push walks the slot's runs (about one, however
/// many events share a timestamp) and appends; a pop is a bitmap scan plus
/// an unlink of the head, and `peek` caches the minimum until the next pop.
/// Callbacks (`SmallFn`) are constructed in their record by `schedule_at`,
/// invoked there, and the record returns to a free list afterwards: no
/// per-event allocation and no callback moves. The pop order is exactly the
/// (time, priority, seq) order of the original `std::priority_queue` kernel
/// (docs/PERF.md "The kernel hot path").
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

    /// Schedule `f` (any `void()` callable, or a Callback) at absolute time
    /// `t` (must be >= now()). Returns the event's insertion sequence number
    /// — the tie-break key of the total order. Components that participate
    /// in snapshot/restore record it so the event can be re-armed in exactly
    /// its original slot (see rearm). Throws std::overflow_error once the
    /// seq counter has left the 61-bit field of the packed key (reachable
    /// only from a restored image whose next_seq sits at that limit).
    template <typename F>
    std::uint64_t schedule_at(Time t, Priority p, F&& f) {
        return schedule_at(t, p, EventTag{}, std::forward<F>(f));
    }

    /// Schedule a tagged event (visible to the race audit).
    template <typename F>
    std::uint64_t schedule_at(Time t, Priority p, EventTag tag, F&& f) {
        if (t < now_ || restoring_ || next_seq_ > kSeqMask) reject_schedule(t);
        Event* ev = take_record();
        try {
            ev->cb.emplace(std::forward<F>(f));
        } catch (...) {
            release_event(ev);
            throw;
        }
        const std::uint64_t seq = next_seq_++;
        fill(ev, t, p, seq, tag);
        link(ev);
        return seq;
    }

    /// Schedule `f` `delay` picoseconds from now.
    template <typename F>
    std::uint64_t schedule_after(Time delay, Priority p, F&& f) {
        return schedule_at(now_ + delay, p, std::forward<F>(f));
    }

    template <typename F>
    std::uint64_t schedule_after(Time delay, Priority p, EventTag tag, F&& f) {
        return schedule_at(now_ + delay, p, tag, std::forward<F>(f));
    }

    /// Schedule with default (asynchronous-event) priority.
    template <typename F>
    std::uint64_t schedule_after(Time delay, F&& f) {
        return schedule_after(delay, Priority::kDefault, std::forward<F>(f));
    }

    template <typename F>
    std::uint64_t schedule_after(Time delay, EventTag tag, F&& f) {
        return schedule_after(delay, Priority::kDefault, tag,
                              std::forward<F>(f));
    }

    /// Execute the single earliest event: unlink its record, run the
    /// callback in place, then return the record to the free list (also
    /// when the callback throws). Returns false if the queue is empty.
    bool step();

    /// Run until the queue is empty or simulated time would exceed `t_end`.
    /// Events at exactly `t_end` are executed. Returns events executed.
    std::uint64_t run_until(Time t_end);

    /// Run until the queue is empty or `max_events` executed.
    std::uint64_t run(std::uint64_t max_events = ~0ull);

    /// True when no event is pending — with stopped clocks this means the
    /// system is quiescent (the deadlock detector builds on this).
    bool quiescent() const { return pending_ == 0; }

    /// Time of the earliest pending event, or kNever when quiescent.
    Time next_event_time() const {
        const Event* m = peek();
        return m == nullptr ? kNever : m->t;
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
        const Event* m = peek();
        return m == nullptr || m->t > now_;
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
    /// Throws snap::SnapshotError when the image's next_seq exceeds 2^61:
    /// every re-armed seq lies below it, so this keeps them all inside the
    /// 61-bit seq field of the packed key.
    void begin_restore(snap::StateReader& r);

    /// Re-create one pending event during restore. `orig_seq` is the seq
    /// the event had in the saving run; staged events are replayed in
    /// orig_seq order, so every same-(time, priority) tie breaks exactly
    /// as it did before the snapshot.
    void rearm(Time t, Priority p, EventTag tag, std::uint64_t orig_seq,
               Callback cb);

    /// Finish a restore: verify the staged count matches the saved pending
    /// count (throws snap::SnapshotError otherwise) and link the staged
    /// events into the queue under their original seqs.
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
    /// One pending (or free) event. `next` links the record into its wheel
    /// slot's list, or once released into the free list. A slot list is a
    /// sequence of runs, the records sharing one (t, priority); only a run's
    /// first record keeps `run_last` current.
    struct Event {
        Time t = 0;
        std::uint64_t key = 0;  ///< (priority << kSeqBits) | seq
        Event* next = nullptr;
        Event* run_last = nullptr;  ///< last record of the run this one heads
        EventTag tag;
        Callback cb;
    };

    static constexpr unsigned kSeqBits = 61;
    static constexpr std::uint64_t kSeqMask = (1ull << kSeqBits) - 1;
    static constexpr std::size_t kSlabSize = 64;
    static constexpr unsigned kSlotShift = 5;  ///< 32 ps per wheel slot
    static constexpr std::size_t kSlots = 512;  ///< 16.4 ns horizon
    static constexpr std::size_t kWords = kSlots / 64;

    static bool earlier(const Event* a, const Event* b) {
        return a->t != b->t ? a->t < b->t : a->key < b->key;
    }
    static bool later(const Event* a, const Event* b) { return earlier(b, a); }
    /// (t, priority) order: the order of runs within a slot.
    static bool rank_less(const Event* a, const Event* b) {
        return a->t != b->t ? a->t < b->t
                            : (a->key >> kSeqBits) < (b->key >> kSeqBits);
    }
    static std::size_t slot_of(Time t) {
        return static_cast<std::size_t>(t >> kSlotShift) % kSlots;
    }

    /// Pop from the free list, growing the pool by one slab when empty.
    Event* take_record() {
        if (free_ == nullptr) grow_pool();
        Event* ev = free_;
        free_ = ev->next;
        return ev;
    }
    void release_event(Event* ev) {
        ev->cb.reset();
        ev->next = free_;
        free_ = ev;
    }
    void grow_pool();
    [[noreturn]] void reject_schedule(Time t) const;

    static void fill(Event* ev, Time t, Priority p, std::uint64_t seq,
                     EventTag tag) {
        assert(seq <= kSeqMask && "Scheduler: seq overflows the packed key");
        ev->t = t;
        ev->key = (static_cast<std::uint64_t>(p) << kSeqBits) | seq;
        ev->tag = tag;
    }
    /// Link a filled record into the queue.
    void link(Event* ev);
    /// Earliest pending record (cached until the next pop), or nullptr.
    const Event* peek() const {
        if (min_ == nullptr && pending_ != 0) min_ = find_min();
        return min_;
    }
    Event* find_min() const;
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

    // The event store. Wheel slot `(t >> kSlotShift) % kSlots` holds the
    // records whose tick lies within kSlots of now()'s tick; the rest wait
    // in `far_`, a (t, key) min-heap. Slab-owned records keep stable
    // addresses; `free_` threads the unused ones through `next`.
    Event* slots_[kSlots] = {};
    std::uint64_t occupied_[kWords] = {};  ///< bit s set ⇔ slots_[s] non-empty
    std::vector<Event*> far_;
    std::size_t pending_ = 0;
    mutable Event* min_ = nullptr;  ///< cached earliest record, or unknown
    std::vector<std::unique_ptr<Event[]>> slabs_;
    Event* free_ = nullptr;

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
