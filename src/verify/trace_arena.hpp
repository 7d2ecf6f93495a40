#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "verify/io_trace.hpp"

namespace st::sim {
class Scheduler;
}  // namespace st::sim

namespace st::verify {

class StreamingChecker;

/// Run-lifetime chunked storage for captured I/O events.
///
/// A sweep worker runs thousands of cases back to back; with std::vector
/// storage every case re-grows one events vector per SB and throws the
/// buffers away at teardown. The arena instead hands out fixed-size chunks
/// from a thread-local pool: a finished run releases its chunks to the free
/// list and the next case reuses them, so steady-state capture performs no
/// allocation at all (the pool grows only to the high-water mark of one
/// case's event volume, mirroring the scheduler's slab pool).
///
/// Entries carry the event plus its *global arrival sequence* within the
/// run. Arrival order is how the streaming checker decides which mismatch
/// is "first", also when it catches up on events captured before it was
/// attached; it is deliberately kept out of IoEvent itself because the
/// interleave across SBs is delay-dependent — folding it into fingerprints
/// or trace equality would make every deterministic run compare unequal
/// under perturbation.
class TraceArena {
  public:
    static constexpr std::size_t kChunkEvents = 256;

    struct Entry {
        IoEvent ev;
        std::uint64_t seq = 0;  ///< global arrival index within the run
    };

    struct Chunk {
        Entry entries[kChunkEvents];
    };

    TraceArena() = default;
    TraceArena(const TraceArena&) = delete;
    TraceArena& operator=(const TraceArena&) = delete;

    Chunk* acquire() {
        if (!free_.empty()) {
            Chunk* c = free_.back();
            free_.pop_back();
            return c;
        }
        owned_.push_back(std::make_unique<Chunk>());
        return owned_.back().get();
    }

    void release(Chunk* c) { free_.push_back(c); }

    /// Instrumentation: chunks ever allocated by this arena. Flat across
    /// repeated same-shaped runs once the pool reaches its high-water mark.
    std::size_t chunks_allocated() const { return owned_.size(); }
    std::size_t chunks_free() const { return free_.size(); }
    std::size_t bytes_retained() const {
        return owned_.size() * sizeof(Chunk);
    }

    /// Shrink the pool: free idle chunks until at most `max_free` remain on
    /// the free list. The high-water-mark design is what makes steady-state
    /// capture allocation-free, so long campaigns should NOT call this per
    /// run — it exists for one-off giant cases (a 1024-SB topology probed
    /// once) whose chunks would otherwise pin memory for the rest of the
    /// worker thread's life. Returns the number of chunks freed.
    std::size_t trim(std::size_t max_free) {
        std::size_t freed = 0;
        while (free_.size() > max_free) {
            Chunk* victim = free_.back();
            free_.pop_back();
            for (auto it = owned_.begin(); it != owned_.end(); ++it) {
                if (it->get() == victim) {
                    owned_.erase(it);
                    ++freed;
                    break;
                }
            }
        }
        return freed;
    }

    /// The calling thread's arena (each sweep worker gets its own — streams
    /// never cross threads, so no locking).
    static TraceArena& local();

  private:
    std::vector<std::unique_ptr<Chunk>> owned_;
    std::vector<Chunk*> free_;
};

/// One SB's append-only event sequence, backed by arena chunks.
class TraceStream {
  public:
    TraceStream(std::string sb_name, TraceArena& arena)
        : sb_name_(std::move(sb_name)), arena_(&arena) {}

    TraceStream(const TraceStream&) = delete;
    TraceStream& operator=(const TraceStream&) = delete;
    TraceStream(TraceStream&& other) noexcept
        : sb_name_(std::move(other.sb_name_)),
          arena_(other.arena_),
          chunks_(std::move(other.chunks_)),
          size_(other.size_) {
        other.chunks_.clear();
        other.size_ = 0;
    }
    TraceStream& operator=(TraceStream&&) = delete;

    ~TraceStream() { clear(); }

    const std::string& sb_name() const { return sb_name_; }
    std::size_t size() const { return size_; }

    void push(const IoEvent& e, std::uint64_t seq) {
        const std::size_t slot = size_ % TraceArena::kChunkEvents;
        if (slot == 0) chunks_.push_back(arena_->acquire());
        chunks_.back()->entries[slot] = TraceArena::Entry{e, seq};
        ++size_;
    }

    const TraceArena::Entry& entry(std::size_t i) const {
        return chunks_[i / TraceArena::kChunkEvents]
            ->entries[i % TraceArena::kChunkEvents];
    }
    const IoEvent& event(std::size_t i) const { return entry(i).ev; }

    /// Release every chunk back to the arena.
    void clear() {
        for (Chunk* c : chunks_) arena_->release(c);
        chunks_.clear();
        size_ = 0;
    }

    /// Copy out a contiguous IoTrace (the batch-world materialization).
    IoTrace materialize() const {
        IoTrace t;
        t.sb_name = sb_name_;
        t.events.reserve(size_);
        for (std::size_t i = 0; i < size_; ++i) t.events.push_back(event(i));
        return t;
    }

  private:
    using Chunk = TraceArena::Chunk;

    std::string sb_name_;
    TraceArena* arena_;
    std::vector<Chunk*> chunks_;
    std::size_t size_ = 0;
};

/// Per-run capture hub: every TraceProbe records through here, events are
/// stamped with their global arrival sequence, stored in arena-backed
/// streams, and — when a StreamingChecker is attached — checked online
/// against the golden as a side effect of the same call.
///
/// The capture also owns the run's success-side stop. With a comparison
/// window of `n` cycles armed (set_window), every TraceProbe ticks the
/// capture once per local cycle of its SB; once every stream has sampled
/// local cycle `n - 1`, no later event can enter the comparison, so the
/// capture asks the bound scheduler for the same cooperative stop a
/// divergence takes.
///
/// A RunCapture outlives the Soc that fills it (the harness reuses one
/// across every case of a sweep); `begin_run()` resets it for the next run
/// while keeping the attached checker, the armed window and the arena
/// chunks warm.
class RunCapture {
  public:
    RunCapture();  ///< backed by the calling thread's TraceArena::local()
    explicit RunCapture(TraceArena& arena) : arena_(&arena) {}

    RunCapture(const RunCapture&) = delete;
    RunCapture& operator=(const RunCapture&) = delete;

    ~RunCapture();

    /// Register one SB's stream; returns its slot index (probe creation
    /// order — identical across same-spec runs, so slots are stable). An
    /// attached checker binds the slot to its golden entry here.
    std::size_t add_stream(std::string sb_name);

    /// Record one event. Hot path: stamp the arrival seq, append to the
    /// slot's stream, forward to the attached checker (if any).
    void record(std::size_t slot, const IoEvent& e);

    /// Arm the comparison window: stop the run once every stream has
    /// sampled local cycle `n_cycles - 1`. 0 disarms. An attached
    /// StreamingChecker arms it from its golden while its early exit is on;
    /// DeterminismHarness arms it for its checker-less nominal run. Kept
    /// across begin_run() and rewind_run().
    void set_window(std::uint64_t n_cycles) {
        window_last_ = n_cycles == 0 ? kNoWindow : n_cycles - 1;
    }

    /// One SB finished sampling local cycle `cycle` (TraceProbe's per-cycle
    /// tick; the SB's events for that cycle are recorded by then). Hot
    /// path: one compare unless this is the window's last cycle. Local
    /// cycles only grow within a run, so each stream ticks the last cycle at
    /// most once; a stream restored past it never does, and its run simply
    /// keeps going.
    void sampled(std::uint64_t cycle) {
        if (cycle == window_last_ && ++window_done_ == streams_.size()) {
            request_stop();
        }
    }

    std::size_t num_streams() const { return streams_.size(); }
    const TraceStream& stream(std::size_t slot) const {
        return streams_[slot];
    }

    /// "No slot" sentinel for merge loops over the streams.
    static constexpr std::size_t npos_slot() {
        return static_cast<std::size_t>(-1);
    }

    /// Total events recorded this run (also the next arrival seq).
    std::uint64_t events_captured() const { return next_seq_; }

    /// Materialize every stream as a plain TraceSet.
    TraceSet traces() const;

    /// Reset for the next run: drop all streams (chunks go back to the
    /// arena), restart the arrival counter, forget the scheduler binding.
    /// The attached checker is KEPT — attach once, run many.
    void begin_run();

    /// Reset for the next run of the SAME Soc (lane rewind): clear
    /// every registered stream in place — slots stay valid, so the probes
    /// already wired into the wrappers keep recording — restart the arrival
    /// counter and rewind the attached checker. The scheduler binding is
    /// kept: the lane's scheduler persists across runs.
    void rewind_run();

    /// Bind the scheduler driving the run so the window stop and an
    /// attached checker's divergence stop can request a cooperative stop.
    void bind_scheduler(sim::Scheduler* sched) { sched_ = sched; }
    void request_stop();

    void set_checker(StreamingChecker* c) { checker_ = c; }
    StreamingChecker* checker() const { return checker_; }

  private:
    static constexpr std::uint64_t kNoWindow = ~std::uint64_t{0};

    TraceArena* arena_;
    std::vector<TraceStream> streams_;
    std::uint64_t next_seq_ = 0;
    sim::Scheduler* sched_ = nullptr;
    StreamingChecker* checker_ = nullptr;
    std::uint64_t window_last_ = kNoWindow;  ///< last window cycle, if armed
    std::size_t window_done_ = 0;  ///< streams past the window this run
};

}  // namespace st::verify
