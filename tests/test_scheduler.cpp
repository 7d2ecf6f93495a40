#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "sim/wire.hpp"
#include "snap/state_io.hpp"
#include "sva/spec_text.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"

namespace st::sim {
namespace {

TEST(Scheduler, StartsAtTimeZeroAndQuiescent) {
    Scheduler s;
    EXPECT_EQ(s.now(), 0u);
    EXPECT_TRUE(s.quiescent());
    EXPECT_EQ(s.next_event_time(), kNever);
    EXPECT_FALSE(s.step());
}

TEST(Scheduler, ExecutesEventsInTimeOrder) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_after(30, [&] { order.push_back(3); });
    s.schedule_after(10, [&] { order.push_back(1); });
    s.schedule_after(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, SameTimeOrderedByPriorityThenInsertion) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(5, Priority::kMonitor, [&] { order.push_back(4); });
    s.schedule_at(5, Priority::kClockEdge, [&] { order.push_back(0); });
    s.schedule_at(5, Priority::kDefault, [&] { order.push_back(2); });
    s.schedule_at(5, Priority::kDefault, [&] { order.push_back(3); });
    s.schedule_at(5, Priority::kCommit, [&] { order.push_back(1); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, DenseSlotFanOutKeepsStrictOrder) {
    // Hundreds of events share three timestamps inside one 32 ps wheel slot,
    // with times and priorities interleaved, and every clock edge commits at
    // its own timestamp while later edges are still pending, as a 1024-SB
    // clock fan-out does. Execution must follow the strict (t, priority,
    // seq) order.
    using Key = std::tuple<Time, int, std::uint64_t>;
    Scheduler s;
    std::uint64_t issued = 0;
    std::vector<Key> ran;
    std::function<void(Time, Priority, bool)> add = [&](Time t, Priority p,
                                                        bool edge) {
        const Key key{t, static_cast<int>(p), issued++};
        EXPECT_EQ(s.schedule_at(t, p,
                                [&, key, edge] {
                                    ran.push_back(key);
                                    if (edge) {
                                        add(s.now(), Priority::kCommit, false);
                                    }
                                }),
                  std::get<2>(key));
    };
    for (int i = 0; i < 600; ++i) {
        const auto p = static_cast<Priority>(i * 7 % 5);
        add(64 + static_cast<Time>(i % 3) * 13, p, p == Priority::kClockEdge);
    }
    s.run();
    EXPECT_EQ(ran.size(), 720u);
    EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
}

TEST(Scheduler, RejectsEventsInThePast) {
    Scheduler s;
    s.schedule_after(10, [] {});
    s.run();
    EXPECT_THROW(s.schedule_at(5, Priority::kDefault, [] {}),
                 std::logic_error);
}

TEST(Scheduler, RunUntilStopsAtBoundaryInclusive) {
    Scheduler s;
    int hits = 0;
    for (Time t = 10; t <= 100; t += 10) {
        s.schedule_at(t, Priority::kDefault, [&] { ++hits; });
    }
    EXPECT_EQ(s.run_until(50), 5u);
    EXPECT_EQ(hits, 5);
    EXPECT_EQ(s.now(), 50u);
    s.run();
    EXPECT_EQ(hits, 10);
}

TEST(Scheduler, RunUntilAdvancesTimeWhenQueueEmpty) {
    Scheduler s;
    s.run_until(1234);
    EXPECT_EQ(s.now(), 1234u);
}

TEST(Scheduler, EventsCanScheduleFurtherEvents) {
    Scheduler s;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) s.schedule_after(7, recurse);
    };
    s.schedule_after(7, recurse);
    s.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(s.now(), 35u);
    EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Scheduler, RunHonorsMaxEvents) {
    Scheduler s;
    int hits = 0;
    for (int i = 0; i < 10; ++i) s.schedule_after(1 + i, [&] { ++hits; });
    EXPECT_EQ(s.run(3), 3u);
    EXPECT_EQ(hits, 3);
}

TEST(Wire, DeliversChangesToObserversOnce) {
    Scheduler s;
    Wire<int> w(s, 0);
    int calls = 0;
    int last = -1;
    w.observe([&](const int& v) {
        ++calls;
        last = v;
    });
    w.set(0);  // no change -> no notify
    EXPECT_EQ(calls, 0);
    w.set(7);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(last, 7);
}

TEST(Wire, DriveAppliesTransportDelay) {
    Scheduler s;
    Wire<int> w(s, 0);
    w.drive(5, 100);
    EXPECT_EQ(w.value(), 0);
    s.run();
    EXPECT_EQ(w.value(), 5);
    EXPECT_EQ(w.last_change(), 100u);
}

TEST(BitWire, EdgeCallbacksFireOnCorrectPolarity) {
    Scheduler s;
    BitWire b(s, false);
    int rises = 0;
    int falls = 0;
    b.on_rise([&] { ++rises; });
    b.on_fall([&] { ++falls; });
    b.toggle();
    b.toggle();
    b.toggle();
    EXPECT_EQ(rises, 2);
    EXPECT_EQ(falls, 1);
}

TEST(Time, FormatAndScaleHelpers) {
    EXPECT_EQ(ns(1), 1000u);
    EXPECT_EQ(us(1), 1000000u);
    EXPECT_EQ(scale_percent(1000, 50), 500u);
    EXPECT_EQ(scale_percent(1000, 200), 2000u);
    EXPECT_EQ(scale_percent(1000, 75), 750u);
    EXPECT_EQ(scale_percent(333, 150), 500u);  // rounds to nearest
    EXPECT_EQ(format_time(500), "500 ps");
    EXPECT_EQ(format_time(kNever), "never");
}

TEST(Scheduler, RaceAuditFlagsSameSlotSameActor) {
    Scheduler s;
    s.set_race_audit(true);
    int actor = 0;
    s.schedule_at(100, Priority::kDefault, EventTag{&actor, "first"},
                  [&] { actor = 1; });
    s.schedule_at(100, Priority::kDefault, EventTag{&actor, "second"},
                  [&] { actor = 2; });
    s.run();
    ASSERT_EQ(s.races().size(), 1u);
    EXPECT_EQ(s.races()[0].actor, &actor);
    EXPECT_EQ(s.races()[0].t, 100u);
    EXPECT_EQ(s.races()[0].first, "first");
    EXPECT_EQ(s.races()[0].second, "second");
}

TEST(Scheduler, RaceAuditCoversSameSlotTaggedSelfDelivery) {
    // An event that schedules *into its own (time, priority) slot* targeting
    // the same actor is ordered only by insertion sequence — exactly the
    // hidden ordering the audit exists to flag, even though the second event
    // did not exist when the slot began executing.
    Scheduler s;
    s.set_race_audit(true);
    int actor = 0;
    s.schedule_at(50, Priority::kDefault, EventTag{&actor, "deliver"}, [&] {
        s.schedule_at(50, Priority::kDefault, EventTag{&actor, "redeliver"},
                      [&] { actor = 2; });
        actor = 1;
    });
    s.run();
    EXPECT_EQ(actor, 2);
    ASSERT_EQ(s.races().size(), 1u);
    EXPECT_EQ(s.races()[0].first, "deliver");
    EXPECT_EQ(s.races()[0].second, "redeliver");
}

TEST(Scheduler, RaceAuditIgnoresDistinctSlotsAndActors) {
    Scheduler s;
    s.set_race_audit(true);
    int a = 0;
    int b = 0;
    // Same slot, different actors: fine.
    s.schedule_at(10, Priority::kDefault, EventTag{&a, "x"}, [] {});
    s.schedule_at(10, Priority::kDefault, EventTag{&b, "y"}, [] {});
    // Same actor, different priorities: deterministically ordered, fine.
    s.schedule_at(20, Priority::kCommit, EventTag{&a, "commit"}, [] {});
    s.schedule_at(20, Priority::kMonitor, EventTag{&a, "monitor"}, [] {});
    // Same actor, different times: fine.
    s.schedule_at(30, Priority::kDefault, EventTag{&a, "t30"}, [] {});
    s.schedule_at(31, Priority::kDefault, EventTag{&a, "t31"}, [] {});
    s.run();
    EXPECT_TRUE(s.races().empty());
}

TEST(Scheduler, InterceptorDropsOnlyTaggedEvents) {
    Scheduler s;
    int tagged = 0;
    int untagged = 0;
    s.set_interceptor([](const EventTag&, Time) { return false; });
    s.schedule_at(10, Priority::kDefault, EventTag{&tagged, "t"},
                  [&] { ++tagged; });
    s.schedule_at(10, Priority::kDefault, [&] { ++untagged; });
    s.run();
    EXPECT_EQ(tagged, 0);   // dropped: the kernel never ran its callback
    EXPECT_EQ(untagged, 1);  // untagged events cannot be faulted
    EXPECT_EQ(s.events_dropped(), 1u);
    EXPECT_EQ(s.events_executed(), 1u);
    EXPECT_EQ(s.now(), 10u);  // a dropped event still advances time
}

TEST(Scheduler, InterceptorSelectsByTag) {
    Scheduler s;
    std::vector<std::string> ran;
    s.set_interceptor([](const EventTag& tag, Time) {
        return std::string(tag.label) != "drop-me";
    });
    int actor = 0;
    s.schedule_at(1, Priority::kDefault, EventTag{&actor, "keep"},
                  [&] { ran.push_back("keep"); });
    s.schedule_at(2, Priority::kDefault, EventTag{&actor, "drop-me"},
                  [&] { ran.push_back("drop-me"); });
    s.schedule_at(3, Priority::kDefault, EventTag{&actor, "keep2"},
                  [&] { ran.push_back("keep2"); });
    s.run();
    EXPECT_EQ(ran, (std::vector<std::string>{"keep", "keep2"}));
    EXPECT_EQ(s.events_dropped(), 1u);
}

// --- event pool + SmallFn callback storage (kernel hot-path overhaul) ---

TEST(Scheduler, EventPoolRecyclesRecordsAcrossRuns) {
    // A long self-rescheduling chain keeps the queue at depth 1; a pool that
    // recycles records must never grow past a single slab no matter how many
    // events execute.
    Scheduler s;
    std::uint64_t left = 10'000;
    struct Hop {
        Scheduler* s;
        std::uint64_t* left;
        void operator()() const {
            if (--*left > 0) s->schedule_after(1, Hop{s, left});
        }
    };
    s.schedule_after(1, Hop{&s, &left});
    s.run();
    EXPECT_EQ(left, 0u);
    EXPECT_EQ(s.events_executed(), 10'000u);
    EXPECT_LE(s.pool_capacity(), 64u);

    // Reuse continues across separate run_until() calls on the same kernel.
    const auto cap = s.pool_capacity();
    for (int round = 0; round < 100; ++round) {
        s.schedule_after(1, [] {});
        s.run();
    }
    EXPECT_EQ(s.pool_capacity(), cap);
}

TEST(Scheduler, LargeCaptureCallbacksSpillToHeapCorrectly) {
    // Captures past SmallFn's inline buffer take the heap path; behaviour
    // must be identical.
    Scheduler s;
    std::array<std::uint64_t, 16> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
    std::uint64_t sum = 0;
    s.schedule_after(5, [payload, &sum] {
        for (const auto v : payload) sum += v;
    });
    s.run();
    std::uint64_t want = 0;
    for (const auto v : payload) want += v;
    EXPECT_EQ(sum, want);
}

TEST(Scheduler, AcceptsMoveOnlyCallbacks) {
    // std::function required copyable callables; the kernel's move-only
    // callback does not, so captures can own resources directly.
    Scheduler s;
    int got = 0;
    s.schedule_after(1, [p = std::make_unique<int>(7), &got] { got = *p; });
    s.run();
    EXPECT_EQ(got, 7);
}

TEST(Scheduler, DestroysCallbackStateAfterExecution) {
    Scheduler s;
    const auto token = std::make_shared<int>(1);
    s.schedule_after(1, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    s.run();
    EXPECT_EQ(token.use_count(), 1);  // pool slot must not pin the capture
}

TEST(Scheduler, InterceptorStorageStaysInlineInSteadyState) {
    // The fault-injection surface is consulted on every tagged event, so
    // its storage must be the same small-buffer machinery as the event
    // callbacks — an injector-shaped capture (object pointer + a couple of
    // words of plan state) may never spill to the heap. The static_assert
    // turns a capture grown past the budget into a build error instead of
    // a silent per-campaign allocation.
    Scheduler s;
    std::uint64_t consulted = 0;
    std::uint64_t plan[3] = {0, 0, 0};  // never matches a real timestamp
    auto plan_fn = [&consulted, &plan](const EventTag&, Time t) {
        ++consulted;
        return t != plan[1];
    };
    static_assert(Scheduler::Interceptor::fits_inline<decltype(plan_fn)>(),
                  "injector-shaped interceptor captures must stay inline");
    Scheduler::Interceptor stored(std::move(plan_fn));
    EXPECT_TRUE(stored.is_inline());
    s.set_interceptor(std::move(stored));

    // Steady state: a long tagged self-rescheduling chain with the
    // interceptor armed recycles event records exactly like the untagged
    // chain — the pool's high-water mark stays flat across repeat runs, so
    // neither the callback nor the per-event interceptor consult allocates.
    int actor = 0;
    std::uint64_t left = 5'000;
    struct Hop {
        Scheduler* s;
        int* actor;
        std::uint64_t* left;
        void operator()() const {
            if (--*left > 0) {
                s->schedule_at(s->now() + 1, Priority::kDefault,
                               EventTag{actor, "hop"}, Hop{s, actor, left});
            }
        }
    };
    s.schedule_at(1, Priority::kDefault, EventTag{&actor, "hop"},
                  Hop{&s, &actor, &left});
    s.run();
    EXPECT_EQ(left, 0u);
    EXPECT_EQ(consulted, 5'000u);
    EXPECT_EQ(s.events_dropped(), 0u);
    const auto cap = s.pool_capacity();
    EXPECT_LE(cap, 64u);
    for (int round = 0; round < 50; ++round) {
        std::uint64_t more = 100;
        s.schedule_at(s.now() + 1, Priority::kDefault,
                      EventTag{&actor, "hop"}, Hop{&s, &actor, &more});
        s.run();
    }
    EXPECT_EQ(s.pool_capacity(), cap);
}

TEST(Scheduler, DroppedEventsReleaseTheirCallbacks) {
    Scheduler s;
    int actor = 0;
    const auto token = std::make_shared<int>(1);
    s.set_interceptor([](const EventTag& tag, Time) {
        return std::string(tag.label) != "drop-me";
    });
    s.schedule_at(1, Priority::kDefault, EventTag{&actor, "drop-me"},
                  [token] {});
    s.run();
    EXPECT_EQ(s.events_dropped(), 1u);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, ThrowingCallbackReturnsItsRecord) {
    // The callback runs in place in its record; a throw must still hand the
    // record back (and drop its capture) and leave the queue runnable.
    Scheduler s;
    const auto token = std::make_shared<int>(1);
    int ran = 0;
    for (int round = 0; round < 1000; ++round) {
        s.schedule_after(1, [token] { throw std::runtime_error("boom"); });
        s.schedule_after(2, [&ran] { ++ran; });
        EXPECT_THROW(s.run(), std::runtime_error);
        EXPECT_EQ(s.run(), 1u);
    }
    EXPECT_EQ(ran, 1000);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(s.quiescent());
    EXPECT_EQ(s.pool_capacity(), 64u);
}

/// Counts destructions of live (not moved-from) instances; its move
/// constructor keeps it off SmallFn's trivially-copyable fast path.
struct CountedCapture {
    int* destroyed;
    std::shared_ptr<int> token;
    bool live = true;
    CountedCapture(int* d, std::shared_ptr<int> t)
        : destroyed(d), token(std::move(t)) {}
    CountedCapture(CountedCapture&& o) noexcept
        : destroyed(o.destroyed), token(std::move(o.token)) {
        o.live = false;
    }
    ~CountedCapture() {
        if (live) ++*destroyed;
    }
    void operator()() const {}
};

TEST(Scheduler, PendingCapturesAreDestroyedExactlyOnce) {
    int destroyed = 0;
    const auto token = std::make_shared<int>(1);
    {
        Scheduler s;
        // Delays spread over the wheel and past its horizon (the far heap).
        for (int i = 0; i < 100; ++i) {
            s.schedule_after(1 + static_cast<Time>(i) * 997,
                             CountedCapture(&destroyed, token));
        }
        EXPECT_EQ(destroyed, 0);
        EXPECT_EQ(token.use_count(), 101);
        s.clear_pending();
        EXPECT_EQ(destroyed, 100);
        EXPECT_EQ(token.use_count(), 1);

        for (int i = 0; i < 10; ++i) {
            s.schedule_after(1 + static_cast<Time>(i),
                             CountedCapture(&destroyed, token));
        }
        s.run();
        EXPECT_EQ(destroyed, 110);

        for (int i = 0; i < 50; ++i) {
            s.schedule_after(1 + static_cast<Time>(i) * 1999,
                             CountedCapture(&destroyed, token));
        }
        EXPECT_EQ(token.use_count(), 51);
    }
    EXPECT_EQ(destroyed, 160);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFn, TriviallyCopyableCallablesRelocateByCopy) {
    int hits = 0;
    auto hop = [&hits, k = 3] { hits += k; };
    static_assert(std::is_trivially_copyable_v<decltype(hop)>);
    SmallFn a(hop);
    SmallFn b(std::move(a));
    EXPECT_FALSE(a);
    SmallFn c;
    c = std::move(b);
    EXPECT_FALSE(b);
    ASSERT_TRUE(c.is_inline());
    c();
    EXPECT_EQ(hits, 3);
    c.reset();
    EXPECT_FALSE(c);
}

// --- restore of a crafted `sched` chunk ---

/// A `sched` chunk as Scheduler::save_state writes it.
std::vector<std::uint8_t> sched_chunk(Time now, std::uint64_t next_seq,
                                      std::uint64_t pending) {
    snap::StateWriter w;
    w.begin("sched");
    w.u64(now);
    w.u64(next_seq);
    w.u64(0);  // executed
    w.u64(0);  // dropped
    w.u64(pending);
    w.end();
    return w.take();
}

/// Restore two events at t = 10 — a clock edge with seq `edge_seq` and a
/// commit with seq 5 — from a chunk claiming `next_seq`, run them, and
/// return the order they executed in. Throws what begin_restore throws.
std::vector<std::string> restore_edge_and_commit(std::uint64_t next_seq,
                                                 std::uint64_t edge_seq) {
    std::vector<std::string> order;
    Scheduler s;
    const auto image = sched_chunk(0, next_seq, 2);
    snap::StateReader r(image);
    s.begin_restore(r);
    s.rearm(10, Priority::kClockEdge, EventTag{}, edge_seq,
            [&order] { order.push_back("edge"); });
    s.rearm(10, Priority::kCommit, EventTag{}, 5,
            [&order] { order.push_back("commit"); });
    s.end_restore();
    s.run();
    return order;
}

TEST(SchedulerRestore, RejectsNextSeqOverflowingThePackedKey) {
    // A seq past 61 bits would spill into the packed priority field and
    // reorder the slot (the commit ran before the clock edge). Every
    // re-armed seq lies below next_seq, so bounding next_seq bounds them.
    constexpr std::uint64_t kLimit = 1ull << 61;
    EXPECT_THROW(restore_edge_and_commit((1ull << 62) + 10, (1ull << 62) + 1),
                 snap::SnapshotError);
    EXPECT_THROW(restore_edge_and_commit(kLimit + 1, kLimit),
                 snap::SnapshotError);
    EXPECT_EQ(restore_edge_and_commit(kLimit, kLimit - 1),
              (std::vector<std::string>{"edge", "commit"}));

    // An image at the limit is valid, but its counter has no seq left to
    // issue: the next schedule throws instead of packing seq 2^61 into the
    // priority field, and the restored events still run.
    {
        Scheduler at_limit;
        const auto image = sched_chunk(0, kLimit, 1);
        snap::StateReader r(image);
        at_limit.begin_restore(r);
        int ran = 0;
        at_limit.rearm(10, Priority::kCommit, EventTag{}, kLimit - 1,
                       [&ran] { ++ran; });
        at_limit.end_restore();
        EXPECT_THROW(at_limit.schedule_after(1, Priority::kClockEdge, [] {}),
                     std::overflow_error);
        EXPECT_EQ(at_limit.run(), 1u);
        EXPECT_EQ(ran, 1);
        EXPECT_THROW(at_limit.schedule_after(1, [] {}), std::overflow_error);
    }

    // A rejected chunk leaves the scheduler untouched and not restoring.
    Scheduler s;
    s.schedule_after(7, [] {});
    s.run();
    const auto image = sched_chunk(100, (1ull << 62) + 10, 0);
    snap::StateReader r(image);
    EXPECT_THROW(s.begin_restore(r), snap::SnapshotError);
    EXPECT_FALSE(s.restoring());
    EXPECT_EQ(s.now(), 7u);
    EXPECT_EQ(s.schedule_after(1, [] {}), 1u);
}

// --- differential order check against a reference ordered set ---

/// Drives one Scheduler with a seeded random program and mirrors every
/// schedule into a reference std::set of (t, priority, seq). Each callback
/// logs its own key and pops the reference's minimum, so equal logs mean the
/// kernel executed exactly the reference's strict (t, priority, seq) order.
class OrderModel {
  public:
    using Key = std::tuple<Time, int, std::uint64_t>;

    explicit OrderModel(std::uint64_t seed) : rng_(seed) {}

    void run_program(int ops) {
        for (int op = 0; op < ops; ++op) {
            // Also primes the cached minimum, so the pushes below exercise
            // its update path and the steps its consumption.
            ASSERT_EQ(s_->next_event_time(),
                      ref_.empty() ? kNever : std::get<0>(*ref_.begin()));
            const auto pick = rng_.next_below(20);
            if (pick < 8) {
                schedule(s_->now() + draw_delay(), draw_priority());
            } else if (pick < 14) {
                const bool any = !ref_.empty();
                EXPECT_EQ(s_->step(), any);
            } else if (pick < 17) {
                jump();
            } else if (pick < 18) {
                if (rng_.next_below(4) == 0) {
                    s_->clear_pending();
                    ref_.clear();
                    ++cleared_;
                }
            } else {
                if (rng_.next_below(3) == 0) save_and_restore();
            }
        }
        s_->run();
        EXPECT_TRUE(ref_.empty());
        EXPECT_TRUE(s_->quiescent());
        EXPECT_EQ(got_, want_);
        EXPECT_EQ(s_->events_executed(), got_.size());
    }

    // Coverage of the program's features, summed over a run.
    std::uint64_t far_pushes = 0;      ///< delays past the wheel horizon
    std::uint64_t follow_ups = 0;      ///< zero-delay pushes from callbacks
    std::uint64_t idle_jumps = 0;      ///< run_until that moved now() only
    std::uint64_t restores = 0;
    std::uint64_t cleared() const { return cleared_; }
    std::size_t executed() const { return got_.size(); }

  private:
    struct Fire {
        OrderModel* m;
        Key key;
        void operator()() const { m->fire(key); }
    };

    Time draw_delay() {
        switch (rng_.next_below(7)) {
            case 0:
                return 0;
            case 1:
                return rng_.next_in(1, 31);  // within one 32 ps slot
            case 2:
                return rng_.next_in(32, 3000);  // crosses slots
            case 3:
                return rng_.next_in(15'000, 17'000);  // around the horizon
            case 4:
                ++far_pushes;
                return rng_.next_in(17'000, 200'000);  // past it
            case 5:
                ++far_pushes;
                return ms(rng_.next_in(1, 3));
            default:
                return rng_.next_in(1, 700);
        }
    }

    Priority draw_priority() {
        return static_cast<Priority>(rng_.next_below(5));
    }

    void schedule(Time t, Priority p) {
        const Key key{t, static_cast<int>(p), next_seq_++};
        EXPECT_EQ(s_->schedule_at(t, p, Fire{this, key}), std::get<2>(key));
        ref_.insert(key);
    }

    void fire(const Key& key) {
        EXPECT_EQ(s_->now(), std::get<0>(key));
        got_.push_back(key);
        want_.push_back(*ref_.begin());
        ref_.erase(ref_.begin());
        if (rng_.next_below(3) == 0) {
            const auto n = rng_.next_in(1, 3);
            for (std::uint64_t i = 0; i < n; ++i) {
                ++follow_ups;
                schedule(s_->now(), draw_priority());
            }
        } else if (rng_.next_below(4) == 0) {
            schedule(s_->now() + draw_delay(), draw_priority());
        }
    }

    void jump() {
        const Time t_end = s_->now() + draw_delay();
        const bool idle = ref_.empty() || std::get<0>(*ref_.begin()) > t_end;
        s_->run_until(t_end);
        EXPECT_EQ(s_->now(), t_end);
        if (!ref_.empty()) {
            EXPECT_GT(std::get<0>(*ref_.begin()), t_end);
        }
        if (idle) ++idle_jumps;
    }

    void save_and_restore() {
        s_->settle();
        snap::StateWriter w;
        s_->save_state(w);
        const auto image = w.take();
        const Time now = s_->now();
        std::vector<Key> pending(ref_.begin(), ref_.end());
        for (std::size_t i = pending.size(); i > 1; --i) {
            std::swap(pending[i - 1], pending[rng_.next_below(i)]);
        }
        if (rng_.next_below(2) == 0) {
            s_ = std::make_unique<Scheduler>();  // counters come from the image
        } else {
            s_->clear_pending();
        }
        snap::StateReader r(image);
        s_->begin_restore(r);
        for (const Key& k : pending) {
            s_->rearm(std::get<0>(k), static_cast<Priority>(std::get<1>(k)),
                      EventTag{}, std::get<2>(k), Fire{this, k});
        }
        s_->end_restore();
        EXPECT_EQ(s_->now(), now);
        ++restores;
    }

    Rng rng_;
    std::unique_ptr<Scheduler> s_ = std::make_unique<Scheduler>();
    std::set<Key> ref_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t cleared_ = 0;
    std::vector<Key> got_;
    std::vector<Key> want_;
};

TEST(SchedulerDifferential, RandomProgramsMatchReferenceOrder) {
    std::uint64_t far = 0, follow = 0, idle = 0, restores = 0, cleared = 0;
    std::size_t executed = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        OrderModel m(seed);
        m.run_program(3000);
        far += m.far_pushes;
        follow += m.follow_ups;
        idle += m.idle_jumps;
        restores += m.restores;
        cleared += m.cleared();
        executed += m.executed();
    }
    // The programs really exercised each feature.
    EXPECT_GT(far, 1000u);
    EXPECT_GT(follow, 1000u);
    EXPECT_GT(idle, 50u);
    EXPECT_GT(restores, 50u);
    EXPECT_GT(cleared, 10u);
    EXPECT_GT(executed, 20'000u);
}

// --- simulated statistics the kernel must not move ---

/// Run `spec` for 100 cycles, settle, and return the executed event count
/// and the Soc snapshot digest. The digest covers the scheduler's now,
/// next_seq, executed and pending count, and every component's pending
/// (time, seq), so any change to seq numbering or event counts moves it.
std::pair<std::uint64_t, std::uint64_t> run_100_cycles(
    const sys::SocSpec& spec) {
    sys::Soc soc(spec);
    soc.run_cycles(100, ms(100));
    soc.scheduler().settle();
    return {soc.scheduler().events_executed(), soc.state_digest()};
}

TEST(SchedulerPinned, EventCountsAndDigestsOfShippedSpecsAndMesh64) {
    struct Pinned {
        const char* name;
        std::uint64_t events;
        std::uint64_t digest;
    };
    // Recorded once a StoppableClock edge became one event: each count is
    // the three-event-per-edge count minus two per local cycle, and each
    // digest moved with the seq numbering (tests/test_edge_order.cpp pins
    // the traces and statistics that did not move).
    const Pinned pinned[] = {
        {"pair", 755u, 10538719010874930366u},
        {"triangle", 1302u, 13818360135650868182u},
        {"chain", 605u, 8453809566320092465u},
        {"mesh", 4265u, 3891278203321106058u},
        {"wide", 872u, 1704927767502878253u},
        {"bus", 788u, 18329278538345874748u},
        {"mesh64", 23847u, 12885854848735739686u},  // topo::generate seed 7
    };
    ASSERT_EQ(std::size(pinned), sys::named_specs().size() + 1);
    for (const Pinned& p : pinned) {
        SCOPED_TRACE(p.name);
        const std::string name = p.name;
        const auto [events, digest] = run_100_cycles(
            name == "mesh64"
                ? sva::to_spec(topo::generate(topo::Options{.seed = 7}))
                : sys::make_named_spec(name));
        EXPECT_EQ(events, p.events);
        EXPECT_EQ(digest, p.digest);
    }
}

TEST(Rng, DeterministicFromSeedAndUnbiasedBounds) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

    Rng c(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = c.next_in(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
    }
    EXPECT_EQ(c.next_below(0), 0u);
}

}  // namespace
}  // namespace st::sim
