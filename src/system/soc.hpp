#pragma once

#include <memory>
#include <string>
#include <vector>

#include "async/self_timed_fifo.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"
#include "synchro/token_ring.hpp"
#include "synchro/wrapper.hpp"
#include "verify/io_trace.hpp"
#include "verify/timing_checker.hpp"
#include "verify/trace_arena.hpp"
#include "verify/trace_probe.hpp"

#include "system/spec.hpp"

namespace st::sys {

/// A fully elaborated, runnable synchro-tokens SoC.
///
/// Owns the scheduler and the whole design: wrappers (clock + nodes +
/// interfaces + SB), token rings, self-timed FIFOs, and per-SB trace probes.
/// Construction elaborates; `start()` schedules the first clock edges.
class Soc {
  public:
    /// Elaborate from `spec`. With `capture == nullptr` the Soc owns a
    /// private verify::RunCapture; passing one in lets a sweep worker reuse
    /// a single capture (arena chunks, attached StreamingChecker) across
    /// many cases — the ctor calls `capture->begin_run()` and binds the
    /// scheduler, so each Soc is one "run" of the capture.
    ///
    /// The spec is the Soc's immutable program: it is only read, never
    /// copied per-run state. The shared_ptr overload shares one spec across
    /// every Soc elaborated from it (a campaign's lanes, its golden and
    /// warm-up runs); the const& overload copies for callers whose spec is
    /// transient.
    explicit Soc(std::shared_ptr<const SocSpec> spec,
                 verify::RunCapture* capture = nullptr);
    explicit Soc(const SocSpec& spec, verify::RunCapture* capture = nullptr)
        : Soc(std::make_shared<const SocSpec>(spec), capture) {}

    Soc(const Soc&) = delete;
    Soc& operator=(const Soc&) = delete;

    /// Schedule every SB clock's first edge. Idempotent.
    void start();

    sim::Scheduler& scheduler() { return sched_; }

    /// Run until every SB has executed at least `n_cycles` local cycles, the
    /// system goes quiescent (deadlock: stopped clocks waiting on each other)
    /// or the wall deadline passes. Returns true when the cycle goal was met.
    bool run_cycles(std::uint64_t n_cycles, sim::Time deadline);

    /// Run to an absolute simulated time.
    void run_until(sim::Time t) { sched_.run_until(t); }

    /// True when no events remain but some clock is stopped — a deadlock in
    /// the paper's sense (cyclic dependency of SBs waiting on late tokens).
    bool deadlocked() const;

    std::size_t num_sbs() const { return wrappers_.size(); }
    core::SbWrapper& wrapper(std::size_t i) { return *wrappers_.at(i); }
    const core::SbWrapper& wrapper(std::size_t i) const {
        return *wrappers_.at(i);
    }
    std::size_t num_rings() const { return rings_.size(); }
    core::TokenRing& ring(std::size_t i) { return *rings_.at(i); }
    std::size_t num_channels() const { return fifos_.size(); }
    achan::SelfTimedFifo& fifo(std::size_t i) { return *fifos_.at(i); }

    /// Node of ring `r` living inside SB `sb` (throws if `sb` not on `r`).
    core::TokenNode& ring_node(std::size_t r, std::size_t sb);

    /// Node of multi-ring `r` living inside SB `sb`.
    core::TokenNode& multi_ring_node(std::size_t r, std::size_t sb);
    std::size_t num_multi_rings() const { return multi_rings_.size(); }
    core::TokenRing& multi_ring(std::size_t i) { return *multi_rings_.at(i); }

    /// Per-SB cycle-indexed I/O traces captured so far (materialized out of
    /// the run capture's arena streams).
    verify::TraceSet traces() const;

    /// The capture this Soc records into (owned or borrowed).
    verify::RunCapture& capture() { return *capture_; }
    const verify::RunCapture& capture() const { return *capture_; }

    /// Audit the bundling/timing constraints after (or during) a run.
    verify::TimingReport audit_timing() const;

    // --- snapshot/restore ---
    /// Drain every event scheduled at exactly now() so the system sits at a
    /// slot boundary — the only states a snapshot may capture. Behaviour
    /// neutral: those events would run before anything else anyway.
    void settle() { sched_.settle(); }

    /// Extension point: extra state (e.g. a fuzz::Injector's trigger
    /// counters) saved after / restored alongside the Soc's own chunks, so
    /// external components can participate in the same image and re-arm
    /// their pending events inside the scheduler's restore window.
    using ExtraSave = std::function<void(snap::StateWriter&)>;
    using ExtraRestore = std::function<void(snap::StateReader&)>;

    /// Serialize the entire SoC — scheduler counters, every wrapper (clock,
    /// nodes, interfaces, kernel), rings, FIFOs (including in-flight link
    /// and ripple events), and captured I/O traces — into one image.
    /// Requires start() and a slot boundary (call settle() when unsure).
    snap::Snapshot save_snapshot(const ExtraSave& extra = {}) const;

    /// FNV-1a digest of save_snapshot(): the cheap state-equality witness.
    std::uint64_t state_digest() const { return save_snapshot().digest(); }

    /// Load a snapshot taken from a Soc elaborated from an identical spec.
    /// Must be called on a freshly constructed, never-started Soc; on return
    /// this instance continues exactly where the saved one stopped —
    /// identical event order, traces, digests. Throws snap::SnapshotError on
    /// any structural or format mismatch.
    void restore_snapshot(const snap::Snapshot& snapshot,
                          const ExtraRestore& extra = {});

    /// restore_snapshot through a pre-validated parse plan. Contract: `plan`
    /// was built from `snapshot.bytes()` (the builder's strict walk is the
    /// validation pass); nullptr falls back to the strict parse. A caller
    /// restoring one image into many fresh Socs shares one plan instead of
    /// re-parsing the framing per restore.
    void restore_snapshot(const snap::Snapshot& snapshot,
                          const snap::RewindPlan* plan,
                          const ExtraRestore& extra = {});

    /// Image of this Soc in its freshly-started state (started, nothing
    /// executed yet): a gang::Lane's per-case reset point. Unlike
    /// save_snapshot it tolerates the first clock edges pending at exactly
    /// t=0 (a clock with phase 0) — with zero events executed no two-phase
    /// edge protocol can be half-applied, so the state is consistent.
    snap::Snapshot pristine_image(const ExtraSave& extra = {}) const;

    /// Rewind a *running* Soc to an image taken from this (or an identically
    /// elaborated) Soc — pristine_image for a lane reset, save_snapshot for
    /// a warm-up prefix. Pending events are dropped, the capture is rewound
    /// in place (probe slots and an attached StreamingChecker survive), and
    /// every component restores; on return this Soc continues exactly where
    /// the imaged one stood. Persistent wiring (observers, monitors, bound
    /// checkers) is untouched; per-case hooks (fault injectors) must be
    /// detached by their owners before reuse.
    ///
    /// With a pre-validated snap::RewindPlan, the first call with a given
    /// (image, plan) pairing runs the strict restore and verifies the plan
    /// matches the image (size + digest); once verified, later calls with
    /// the same pairing take the trusted O(1)-per-chunk parse. Passing
    /// nullptr (or an unverifiable plan) keeps the strict path — behaviour,
    /// traces, and digests are identical either way.
    void reset_from_image(const snap::Snapshot& image,
                          const snap::RewindPlan* plan = nullptr);

    const SocSpec& spec() const { return *spec_; }
    const std::shared_ptr<const SocSpec>& spec_ptr() const { return spec_; }

  private:
    /// Shared save/restore bodies (snapshot and image paths differ only in
    /// preconditions and capture/probe lifecycle).
    void write_image(snap::StateWriter& w, const ExtraSave& extra,
                     bool require_boundary) const;
    void read_image(snap::StateReader& r, const ExtraRestore& extra);
    std::shared_ptr<const SocSpec> spec_;
    sim::Scheduler sched_;
    std::vector<std::unique_ptr<core::SbWrapper>> wrappers_;
    std::vector<std::unique_ptr<core::TokenRing>> rings_;
    // ring index -> (node in sb_a, node in sb_b)
    std::vector<std::pair<core::TokenNode*, core::TokenNode*>> ring_nodes_;
    std::vector<std::unique_ptr<core::TokenRing>> multi_rings_;
    // multi-ring index -> member nodes (parallel to spec members)
    std::vector<std::vector<core::TokenNode*>> multi_ring_nodes_;
    std::vector<std::unique_ptr<achan::SelfTimedFifo>> fifos_;
    std::unique_ptr<verify::RunCapture> own_capture_;  ///< when not borrowed
    verify::RunCapture* capture_ = nullptr;
    std::vector<std::unique_ptr<verify::TraceProbe>> probes_;
    bool started_ = false;
    /// The (image, plan) pairing proven consistent by a strict restore;
    /// identity is by plan pointer + image data pointer/size, so a moved or
    /// regenerated image re-verifies (digest compare) before trusting.
    const snap::RewindPlan* verified_plan_ = nullptr;
    const std::uint8_t* verified_data_ = nullptr;
    std::size_t verified_size_ = 0;
};

}  // namespace st::sys
