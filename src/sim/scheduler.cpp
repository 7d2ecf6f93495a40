#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace st::sim {

namespace {
/// Cap on recorded races: a systemic ordering bug would otherwise flood the
/// record with one entry per clock cycle.
constexpr std::size_t kMaxRaceRecords = 64;

/// Cap on thread-local recycled slabs: 256 slabs x 64 events bounds a worker
/// thread's parked pool at a few MB while still covering the deepest queue
/// any bench topology produces.
constexpr std::size_t kMaxPooledSlabs = 256;
}  // namespace

std::vector<std::unique_ptr<Scheduler::Event[]>>& Scheduler::slab_pool() {
    thread_local std::vector<std::unique_ptr<Event[]>> pool;
    return pool;
}

std::size_t Scheduler::tls_pooled_slabs() { return slab_pool().size(); }

Scheduler::~Scheduler() {
    // Donate slabs to the thread's recycle pool instead of freeing them: a
    // sweep worker builds one Soc (one Scheduler) per case, and per-case
    // slab churn was contended allocator traffic across worker threads.
    // Only pending records still hold callbacks; drop them first so nothing
    // owned by a dead run survives into the pool.
    clear_pending();
    auto& pool = slab_pool();
    for (auto& slab : slabs_) {
        if (pool.size() >= kMaxPooledSlabs) break;
        pool.push_back(std::move(slab));
    }
}

void Scheduler::grow_pool() {
    auto& pool = slab_pool();
    if (!pool.empty()) {
        slabs_.push_back(std::move(pool.back()));
        pool.pop_back();
    } else {
        slabs_.push_back(std::make_unique<Event[]>(kSlabSize));
    }
    Event* base = slabs_.back().get();
    for (std::size_t i = kSlabSize; i-- > 0;) {
        base[i].next = free_;
        free_ = base + i;
    }
}

void Scheduler::reject_schedule(Time t) const {
    if (t < now_) {
        throw std::logic_error("Scheduler: event scheduled in the past");
    }
    if (restoring_) {
        throw std::logic_error(
            "Scheduler: schedule_at during restore — use rearm()");
    }
    throw std::overflow_error(
        "Scheduler: event seq overflows the 61-bit field of the packed key");
}

void Scheduler::link(Event* ev) {
    const Time t = ev->t;
    ++pending_;
    if (min_ != nullptr && earlier(ev, min_)) min_ = ev;
    if ((t >> kSlotShift) - (now_ >> kSlotShift) >= kSlots) {
        far_.push_back(ev);
        std::push_heap(far_.begin(), far_.end(), later);
        return;
    }
    // Walk the slot's runs, not its records, to the first run not below
    // ev's (t, priority). Every record links with a seq above all pending
    // ones (a restore links in ascending seq into an empty queue), so ev
    // ends its run: an append, or a new one-record run before `run`.
    const std::size_t s = slot_of(t);
    Event** at = &slots_[s];
    if (*at == nullptr) occupied_[s / 64] |= 1ull << (s % 64);
    while (*at != nullptr && rank_less(*at, ev)) at = &(*at)->run_last->next;
    Event* run = *at;
    if (run != nullptr && !rank_less(ev, run)) {
        ev->next = run->run_last->next;
        run->run_last->next = ev;
        run->run_last = ev;
    } else {
        ev->next = run;
        ev->run_last = ev;
        *at = ev;
    }
}

Scheduler::Event* Scheduler::find_min() const {
    // Every wheel record's tick lies in [tick(now), tick(now) + kSlots), so
    // the first occupied slot at or after now's slot (circularly) holds the
    // earliest tick, and its sorted list's head is the wheel's minimum.
    // The scan visits now's word from now's slot on, the other words in
    // order, then now's word again below now's slot (the far end).
    Event* best = nullptr;
    const std::size_t s0 = slot_of(now_);
    const std::uint64_t from_s0 = ~0ull << (s0 % 64);
    for (std::size_t i = 0; i <= kWords; ++i) {
        const std::size_t w = (s0 / 64 + i) % kWords;
        std::uint64_t bits = occupied_[w];
        if (i == 0) bits &= from_s0;
        if (i == kWords) bits &= ~from_s0;
        if (bits != 0) {
            best = slots_[w * 64 + static_cast<std::size_t>(
                                       std::countr_zero(bits))];
            break;
        }
    }
    if (!far_.empty() && (best == nullptr || earlier(far_.front(), best))) {
        best = far_.front();
    }
    return best;
}

void Scheduler::clear_pending() {
    for (std::size_t w = 0; w < kWords; ++w) {
        for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
            const auto s = w * 64 + static_cast<std::size_t>(
                                        std::countr_zero(bits));
            Event*& head = slots_[s];
            for (Event* ev = head; ev != nullptr;) {
                Event* next = ev->next;
                release_event(ev);
                ev = next;
            }
            head = nullptr;
        }
        occupied_[w] = 0;
    }
    for (Event* ev : far_) release_event(ev);
    far_.clear();
    pending_ = 0;
    min_ = nullptr;
    stop_requested_ = false;
}

std::uint64_t Scheduler::settle() {
    std::uint64_t n = 0;
    for (const Event* m = peek(); m != nullptr && m->t == now_; m = peek()) {
        step();
        ++n;
    }
    return n;
}

void Scheduler::save_state(snap::StateWriter& w, bool require_boundary) const {
    if (require_boundary && !at_slot_boundary()) {
        throw snap::SnapshotError(
            "Scheduler::save_state mid-slot — settle() first");
    }
    w.begin("sched");
    w.u64(now_);
    w.u64(next_seq_);
    w.u64(executed_);
    w.u64(dropped_);
    w.u64(pending_);
    w.end();
}

void Scheduler::begin_restore(snap::StateReader& r) {
    if (pending_ != 0 || restoring_) {
        throw snap::SnapshotError(
            "Scheduler::begin_restore on a non-fresh scheduler");
    }
    r.enter("sched");
    const Time now = r.u64();
    const std::uint64_t next_seq = r.u64();
    const std::uint64_t executed = r.u64();
    const std::uint64_t dropped = r.u64();
    const std::uint64_t pending = r.u64();
    r.leave();
    if (next_seq > kSeqMask + 1) {
        throw snap::SnapshotError("Scheduler: snapshot next_seq " +
                                  std::to_string(next_seq) +
                                  " overflows the 61-bit event seq");
    }
    now_ = now;
    next_seq_ = next_seq;
    executed_ = executed;
    dropped_ = dropped;
    expected_pending_ = pending;
    restoring_ = true;
    staged_.clear();
}

void Scheduler::rearm(Time t, Priority p, EventTag tag,
                      std::uint64_t orig_seq, Callback cb) {
    if (!restoring_) {
        throw std::logic_error("Scheduler: rearm outside restore");
    }
    if (t < now_) {
        throw snap::SnapshotError("rearm: event fire time in the past");
    }
    staged_.push_back(Staged{t, p, tag, orig_seq, std::move(cb)});
}

void Scheduler::end_restore() {
    if (!restoring_) {
        throw std::logic_error("Scheduler: end_restore outside restore");
    }
    restoring_ = false;
    if (staged_.size() != expected_pending_) {
        throw snap::SnapshotError(
            "restore re-armed " + std::to_string(staged_.size()) +
            " events but the snapshot recorded " +
            std::to_string(expected_pending_) +
            " pending — a component missed (or double-counted) an event");
    }
    // Re-insert under the ORIGINAL sequence numbers. Every orig_seq is
    // below the saved next_seq_, so restored events still sort ahead of
    // anything scheduled after the restore, ties break exactly as in the
    // saving run, and — because components persist their events' seqs —
    // the next snapshot of this scheduler is byte-identical to what the
    // saving run would have produced.
    std::sort(staged_.begin(), staged_.end(),
              [](const Staged& a, const Staged& b) {
                  return a.orig_seq < b.orig_seq;
              });
    for (std::size_t i = 1; i < staged_.size(); ++i) {
        if (staged_[i].orig_seq == staged_[i - 1].orig_seq) {
            throw snap::SnapshotError(
                "restore staged two events with seq " +
                std::to_string(staged_[i].orig_seq));
        }
    }
    if (!staged_.empty() && staged_.back().orig_seq >= next_seq_) {
        throw snap::SnapshotError(
            "restore staged seq " + std::to_string(staged_.back().orig_seq) +
            " >= the snapshot's next_seq " + std::to_string(next_seq_));
    }
    for (auto& s : staged_) {
        Event* ev = take_record();
        ev->cb = std::move(s.cb);
        fill(ev, s.t, s.p, s.orig_seq, s.tag);
        link(ev);
    }
    staged_.clear();
}

void Scheduler::set_race_audit(bool on) {
    audit_ = on;
    group_.clear();
    group_priority_ = -1;
}

void Scheduler::audit_step(Time t, int priority, const EventTag& tag) {
    if (t != group_t_ || priority != group_priority_) {
        group_t_ = t;
        group_priority_ = priority;
        group_.clear();
    }
    if (tag.actor == nullptr) return;
    for (const auto& m : group_) {
        if (m.actor == tag.actor && races_.size() < kMaxRaceRecords) {
            RaceRecord r;
            r.t = t;
            r.priority = priority;
            r.actor = tag.actor;
            r.first = m.label != nullptr ? m.label : "?";
            r.second = tag.label != nullptr ? tag.label : "?";
            races_.push_back(std::move(r));
        }
    }
    group_.push_back(GroupMember{tag.actor, tag.label});
}

bool Scheduler::step() {
    Event* ev = min_;
    if (ev == nullptr) {
        if (pending_ == 0) return false;
        ev = find_min();
    }
    // Unlink: a wheel minimum is its slot's head; anything else is the far
    // heap's front.
    const std::size_t s = slot_of(ev->t);
    if (slots_[s] == ev) {
        Event* next = ev->next;
        slots_[s] = next;
        if (next == nullptr) {
            occupied_[s / 64] &= ~(1ull << (s % 64));
        } else if (ev->run_last != ev) {
            next->run_last = ev->run_last;  // the run's second record heads it
        }
    } else {
        std::pop_heap(far_.begin(), far_.end(), later);
        far_.pop_back();
    }
    --pending_;
    min_ = nullptr;
    now_ = ev->t;
    // The record is off the queue, so the callback runs in place and may
    // schedule freely; it returns to the free list afterwards, also when the
    // interceptor or the callback throws.
    struct Release {
        Scheduler* self;
        Event* ev;
        ~Release() { self->release_event(ev); }
    } release{this, ev};
    if (interceptor_ && ev->tag.actor != nullptr &&
        !interceptor_(ev->tag, ev->t)) {
        // Dropped: the transition never happened as far as any model can
        // tell. Invisible to the race audit — a lost event orders nothing.
        ++dropped_;
        return true;
    }
    ++executed_;
    if (audit_) {
        audit_step(ev->t, static_cast<int>(ev->key >> kSeqBits), ev->tag);
    }
    ev->cb();
    return true;
}

std::uint64_t Scheduler::run_until(Time t_end) {
    std::uint64_t n = 0;
    for (const Event* m = peek(); !stop_requested_ && m != nullptr &&
                                  m->t <= t_end;
         m = peek()) {
        step();
        ++n;
    }
    if (!stop_requested_ && now_ < t_end) now_ = t_end;
    return n;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
    std::uint64_t n = 0;
    while (!stop_requested_ && n < max_events && step()) ++n;
    return n;
}

}  // namespace st::sim
