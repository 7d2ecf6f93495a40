#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace st::sim {

/// The (time, priority, seq) dispatch core: a priority queue over the
/// kernel's total event order. `sim::Scheduler` is its one user; the
/// template parameter is its payload (a pointer to Scheduler's private
/// event record).
///
/// Ordering contract: entries pop in strictly increasing (time, priority,
/// seq). Because `seq` is unique per queue, this is a *strict total order* —
/// the pop sequence is a pure function of the pushed set, independent of the
/// queue's internal arrangement. That is what licenses the implementation
/// choices below (4-ary implicit heap, packed keys, same-slot buckets): they
/// change only constant factors, never the order, so golden traces are
/// byte-identical to the historical binary-heap kernel.
///
/// Implementation: a 4-ary implicit min-heap over 24-byte entries, fronted
/// by per-priority *same-slot buckets*.
///  * `priority` (3 bits) and `seq` (61 bits) pack into one u64 key, so an
///    ordering compare is two u64 compares instead of three field compares.
///  * 4-ary halves the tree depth of the hot sift-down at the cost of three
///    extra child compares per level — a good trade when entries are small
///    and the working set lives in L1/L2 (the common shallow-queue case).
///  * The payload rides in the entry (a pointer into the owner's slab pool),
///    so sifts move 24 bytes and never touch a callback.
///  * **Same-slot buckets**: the dominant push pattern in a clocked model is
///    the zero-delay cascade — an executing event schedules followers at the
///    *current* timestamp (edge → commit → gate → monitor is >half of all
///    traffic in the NoC topologies). A push at `t == slot_t_` (the time of
///    the most recent pop) whose key exceeds its bucket's tail appends to a
///    per-priority FIFO instead of sifting into the heap; pops 2-way-merge
///    the earliest bucket head with the heap front. Each bucket is ascending
///    in key by construction and all bucket entries share one timestamp, so
///    the earliest bucket entry is simply the head of the lowest-priority
///    non-empty bucket — the merge is O(1), turning the cascade's heap
///    churn into array appends and index bumps.
template <typename Payload>
class DispatchCore {
  public:
    struct Entry {
        Time t = 0;
        std::uint64_t key = 0;  ///< (priority << kSeqBits) | seq
        Payload payload{};
    };

    static constexpr unsigned kSeqBits = 61;
    static constexpr std::uint64_t kSeqMask = (1ull << kSeqBits) - 1;
    static constexpr int kNumPriorities = 8;  ///< 3-bit packed priority

    static std::uint64_t pack(int priority, std::uint64_t seq) {
        assert(seq <= kSeqMask && "DispatchCore: seq overflows packed key");
        assert(priority >= 0 && priority < kNumPriorities);
        return (static_cast<std::uint64_t>(priority) << kSeqBits) | seq;
    }
    static int priority_of(std::uint64_t key) {
        return static_cast<int>(key >> kSeqBits);
    }
    static std::uint64_t seq_of(std::uint64_t key) { return key & kSeqMask; }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /// Earliest entry. Precondition: !empty().
    const Entry& front() const {
        if (bucket_mask_ != 0) {
            const Bucket& b = buckets_[std::countr_zero(bucket_mask_)];
            const Entry& be = b.q[b.head];
            if (heap_.empty() || !earlier(heap_.front(), be)) return be;
        }
        return heap_.front();
    }

    void push(Time t, int priority, std::uint64_t seq, Payload payload) {
        ++size_;
        const std::uint64_t key = pack(priority, seq);
        if (slot_valid_ && t == slot_t_) {
            Bucket& b = buckets_[priority];
            if (b.head == b.q.size()) {
                // Drained bucket: recycle the storage in place.
                b.q.clear();
                b.head = 0;
                b.q.push_back(Entry{t, key, payload});
                bucket_mask_ |= 1u << priority;
                return;
            }
            if (key > b.q.back().key) {
                b.q.push_back(Entry{t, key, payload});
                return;
            }
            // Out-of-order same-slot push (a restore replaying an old seq):
            // the bucket must stay ascending, so fall through to the heap —
            // the pop-side merge keeps the total order exact either way.
        }
        heap_.push_back(Entry{t, key, payload});
        sift_up(heap_.size() - 1);
    }

    /// Remove and return the earliest entry. Precondition: !empty().
    Entry pop() {
        --size_;
        if (bucket_mask_ != 0) {
            const int p = std::countr_zero(bucket_mask_);
            Bucket& b = buckets_[p];
            const Entry& be = b.q[b.head];
            if (heap_.empty() || !earlier(heap_.front(), be)) {
                Entry out = be;
                if (++b.head == b.q.size()) {
                    b.q.clear();
                    b.head = 0;
                    bucket_mask_ &= ~(1u << p);
                }
                return out;  // out.t == slot_t_: the slot is unchanged
            }
        }
        Entry top = heap_.front();
        const std::size_t n = heap_.size() - 1;
        if (n > 0) {
            heap_.front() = heap_[n];
            heap_.pop_back();
            sift_down(0);
        } else {
            heap_.pop_back();
        }
        // Pops are monotone in (t, key), so while buckets hold entries at
        // slot_t_ a heap pop can only share that timestamp (with a smaller
        // key); the slot advances only once every bucket has drained.
        assert(bucket_mask_ == 0 || top.t == slot_t_);
        slot_valid_ = true;
        slot_t_ = top.t;
        return top;
    }

    /// Drop every pending entry (the lane rewind path). The caller owns
    /// payload cleanup — iterate via drain() when payloads need releasing.
    void clear() {
        heap_.clear();
        reset_buckets();
        size_ = 0;
        // A restore may replay seqs below anything already popped; the slot
        // FIFO invariant assumes monotone seqs, so force fresh pushes back
        // through the heap until the next pop re-establishes the slot.
        slot_valid_ = false;
    }

    /// Pop-all without ordering guarantees: hands each payload to `fn` and
    /// leaves the queue empty. Used to recycle event records on reset.
    template <typename Fn>
    void drain(Fn&& fn) {
        for (Entry& e : heap_) fn(e.payload);
        for (Bucket& b : buckets_) {
            for (std::size_t i = b.head; i < b.q.size(); ++i) {
                fn(b.q[i].payload);
            }
        }
        heap_.clear();
        reset_buckets();
        size_ = 0;
        slot_valid_ = false;
    }

  private:
    /// One priority's same-slot FIFO: entries share t == slot_t_ and are
    /// ascending in key (append requires key > back), so head-order is pop
    /// order within the bucket.
    struct Bucket {
        std::vector<Entry> q;
        std::size_t head = 0;
    };

    static bool earlier(const Entry& a, const Entry& b) {
        if (a.t != b.t) return a.t < b.t;
        return a.key < b.key;
    }

    void reset_buckets() {
        for (Bucket& b : buckets_) {
            b.q.clear();
            b.head = 0;
        }
        bucket_mask_ = 0;
    }

    void sift_up(std::size_t i) {
        Entry e = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!earlier(e, heap_[parent])) break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    void sift_down(std::size_t i) {
        const std::size_t n = heap_.size();
        Entry e = heap_[i];
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n) break;
            std::size_t best = first;
            const std::size_t last = std::min(first + 4, n);
            for (std::size_t c = first + 1; c < last; ++c) {
                if (earlier(heap_[c], heap_[best])) best = c;
            }
            if (!earlier(heap_[best], e)) break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = e;
    }

    std::vector<Entry> heap_;
    Bucket buckets_[kNumPriorities];
    std::uint32_t bucket_mask_ = 0;  ///< bit p set ⇔ buckets_[p] non-empty
    Time slot_t_ = 0;                ///< timestamp of the most recent pop
    bool slot_valid_ = false;        ///< false until a pop (or after clear)
    std::size_t size_ = 0;           ///< heap + buckets
};

}  // namespace st::sim
