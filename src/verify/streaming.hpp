#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/io_trace.hpp"
#include "verify/trace_arena.hpp"

namespace st::verify {

/// Golden traces pre-digested for streaming comparison: per SB (in name
/// order) the truncated event prefix, its count, and its FNV-1a digest.
///
/// Built once per campaign / harness and shared read-only by every run; the
/// index owns copies of the truncated events so its lifetime is independent
/// of the TraceSet it was built from.
class GoldenIndex {
  public:
    struct PerSb {
        std::string name;
        std::vector<IoEvent> events;  ///< golden prefix, cycle < n_cycles
        std::uint64_t digest = kFnvOffset;
    };

    GoldenIndex() = default;
    GoldenIndex(const TraceSet& golden, std::uint64_t n_cycles);

    std::uint64_t n_cycles() const { return n_cycles_; }

    /// Entries in SB-name order (TraceSet iteration order).
    const std::vector<PerSb>& entries() const { return entries_; }

    /// Index into entries() for `name`, or npos when the golden run has no
    /// such SB.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t find(const std::string& name) const;

  private:
    std::uint64_t n_cycles_ = 0;
    std::vector<PerSb> entries_;  ///< sorted by name
};

struct StreamingOptions {
    /// End the run as soon as its verdict is final, through a cooperative
    /// scheduler stop at the next event boundary. Two stops share it: on
    /// the first mismatching event (divergence), and once every SB has
    /// sampled the golden window's last cycle (the attached capture's
    /// window, armed while this is on), after which no event can enter the
    /// comparison. Sound only where the trace verdict is the final
    /// classification — determinism sweeps, and fault-free campaigns; a
    /// fault campaign must keep simulating because a later deadlock or
    /// invariant violation outranks the divergence (fuzz::Outcome
    /// precedence).
    bool early_exit = true;
};

/// Online golden-trace comparator: observes each captured event as it is
/// produced and compares it positionally against the golden prefix of its
/// SB, keeping a rolling per-SB FNV-1a digest.
///
/// A deterministic run therefore finishes with an O(#SBs) verdict — every
/// digest and event count matches the index, no end-of-run event scan — and
/// a divergent run is classified at the first mismatching event *in arrival
/// order*, at which point (early_exit) the checker requests a cooperative
/// scheduler stop instead of simulating the remaining cycles. With early
/// exit on, the attached capture also stops a run once every SB has left
/// the golden window (RunCapture::set_window).
///
/// This is the only way a run gets its verdict. finish()'s `identical`
/// agrees with diff_traces over the truncated capture; where several SBs
/// diverge, diff_traces may report a different (name-order) first mismatch
/// (tests/test_streaming.cpp holds both properties).
class StreamingChecker {
  public:
    explicit StreamingChecker(const GoldenIndex& golden,
                              StreamingOptions opt = {});
    ~StreamingChecker();

    StreamingChecker(const StreamingChecker&) = delete;
    StreamingChecker& operator=(const StreamingChecker&) = delete;

    /// Subscribe to `cap`: every subsequent RunCapture::record forwards the
    /// event here, and (early exit on) arm the capture's window at the
    /// golden's n_cycles. Attach before the run starts (or before the
    /// events you care about); the capture keeps the attachment across
    /// begin_run().
    void attach(RunCapture& cap);

    /// Observe one captured event (called by RunCapture::record). Events at
    /// cycle >= n_cycles are outside the paper's comparison window and
    /// ignored.
    void observe(std::size_t slot, const IoEvent& e);

    bool diverged() const { return diverged_; }
    const GoldenIndex& golden() const { return *golden_; }
    std::uint64_t events_checked() const { return checked_; }

    /// Flip the early-exit policy between runs. A per-worker checker reused
    /// across campaign cases needs this: early exit is sound for a
    /// fault-free case but not for one that injects faults (a later
    /// deadlock / invariant violation outranks the divergence). Arms or
    /// disarms the attached capture's window; call before the run starts.
    void set_early_exit(bool on);
    bool early_exit() const { return opt_.early_exit; }

    /// The verdict. Callable any time; meaningful once the run has ended
    /// (or the early exit fired). O(#SBs): every golden entry is bound to
    /// its capture slot when the stream registers.
    TraceDiff finish() const;

    /// Reset per-run comparison state (counts, digests, verdict), keeping
    /// the golden index and the attachment. RunCapture::begin_run calls
    /// this on its attached checker; the capture's streams go with it, so
    /// the slot bindings are dropped too.
    void begin_run();

    /// begin_run for a lane rewind (RunCapture::rewind_run): the capture's
    /// streams survive in place, and so do their slot bindings.
    void rewind_run();

    /// Bind capture stream `slot`, SB `sb`, to its golden entry
    /// (RunCapture::add_stream calls this for every stream registered after
    /// attach()).
    void bind(std::size_t slot, const std::string& sb);

    /// Called by ~RunCapture so a checker outliving its capture does not
    /// dangle.
    void on_capture_destroyed() { cap_ = nullptr; }

  private:
    struct Slot {
        const GoldenIndex::PerSb* golden = nullptr;  ///< null: not in golden
        std::uint64_t seen = 0;  ///< in-window events observed
        std::uint64_t digest = kFnvOffset;
    };

    void arm_window();
    void record_mismatch(MismatchLocus locus, std::string message);

    const GoldenIndex* golden_;
    StreamingOptions opt_;
    RunCapture* cap_ = nullptr;  ///< attached capture: stop and window
    std::vector<Slot> slots_;    ///< one per capture stream, by slot
    /// Per golden entry, the slot its SB's stream is bound to; npos: the run
    /// has no such SB.
    std::vector<std::size_t> bound_;
    bool diverged_ = false;
    std::uint64_t checked_ = 0;
    MismatchLocus locus_;
    std::string message_;
};

}  // namespace st::verify
