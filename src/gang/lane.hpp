#pragma once

#include <memory>

#include "gang/program.hpp"
#include "snap/snapshot.hpp"
#include "system/invariant_monitor.hpp"
#include "system/soc.hpp"
#include "verify/streaming.hpp"
#include "verify/trace_arena.hpp"

namespace st::gang {

/// One persistent, rewinding simulation lane: a Soc elaborated once from
/// the *nominal* spec, plus the per-run companions a case would otherwise
/// construct fresh each time — the trace capture, an (optional) attached
/// streaming checker, and an (optional) invariant monitor. Every campaign
/// case runs on its worker's lane (fuzz::CaseRunner).
///
/// The program/state decomposition: the gang::Program — spec, pristine
/// image, and its pre-validated rewind plan — is shared by every lane of
/// its owner (one elaboration, one serialization, one plan per campaign,
/// not per lane). What stays per-lane is exactly what a run mutates: the
/// Soc's live state, the capture's streams, the checker's verdict, the
/// monitor's phase trackers. The reset point is `pristine()` — the
/// Program's image of the freshly started Soc, restored through the plan so
/// a rewind re-parses no framing — or any boundary snapshot from an
/// identically elaborated Soc (a campaign's shared warm-up prefix).
///
/// Clock periods and FIFO stage delays are image state, but ring hop delays
/// are not, so a rewind leaves the previous case's hop delays behind;
/// callers set every delay register with `sys::apply_live` after each
/// rewind. Restore-equivalence is what makes a rewound lane
/// bit-identical to a freshly elaborated Soc (docs/PERF.md "Case
/// execution"; tests/test_gang.cpp holds it case by case).
///
/// Construct on the thread that will run the lane (the capture pins that
/// thread's trace arena), which `runner::sweep_ctx`'s make_ctx contract
/// guarantees.
class Lane {
  public:
    struct Options {
        /// Attach a verify::StreamingChecker over this golden index
        /// (nullptr: no checker, for probes that only time the rewind and
        /// the simulation).
        const verify::GoldenIndex* golden = nullptr;
        /// Attach a sys::InvariantMonitor (fuzz::CaseRunner's lanes do).
        bool monitor = false;
    };

    Lane(std::shared_ptr<const Program> program, const Options& opt);

    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    /// Rewind to the freshly-started nominal state. After this the lane is
    /// indistinguishable from a just-elaborated, just-started Soc of the
    /// nominal spec (with zero events executed). Uses the program's rewind
    /// plan, so no snapshot framing is re-parsed.
    void rewind();

    /// Rewind to an explicit boundary image (a campaign's shared warm-up
    /// prefix). The monitor (if any) is re-armed from the restored phases;
    /// an attached checker re-derives its verdict state from the replayed
    /// trace prefix. Pass the image's RewindPlan when rewinding to it
    /// repeatedly; nullptr takes the strict parse.
    void rewind(const snap::Snapshot& image, const snap::RewindPlan* plan);

    sys::Soc& soc() { return *soc_; }
    verify::RunCapture& capture() { return cap_; }
    verify::StreamingChecker* checker() { return checker_.get(); }
    sys::InvariantMonitor* monitor() { return monitor_.get(); }
    /// The shared immutable program this lane runs.
    const std::shared_ptr<const Program>& program() const { return prog_; }
    const snap::Snapshot& pristine() const { return prog_->pristine(); }

  private:
    std::shared_ptr<const Program> prog_;
    verify::RunCapture cap_;
    std::unique_ptr<verify::StreamingChecker> checker_;
    std::unique_ptr<sys::Soc> soc_;
    std::unique_ptr<sys::InvariantMonitor> monitor_;
};

}  // namespace st::gang
