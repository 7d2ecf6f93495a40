#pragma once

#include <string>

#include "snap/state_io.hpp"
#include "synchro/wrapper.hpp"
#include "verify/trace_arena.hpp"

namespace st::verify {

/// Attaches deliver/send probes to every interface of a wrapper and records
/// the SB's cycle-indexed I/O sequence into a RunCapture stream (arena
/// backed; checked online when a StreamingChecker is attached to the
/// capture). It also ticks the capture once per local cycle of the SB, which
/// drives the capture's window stop (RunCapture::sampled).
class TraceProbe {
  public:
    TraceProbe(core::SbWrapper& wrapper, RunCapture& capture);

    TraceProbe(const TraceProbe&) = delete;
    TraceProbe& operator=(const TraceProbe&) = delete;

    const std::string& sb_name() const { return name_; }
    std::size_t slot() const { return slot_; }

    /// Materialize the captured trace (copies out of the arena).
    IoTrace trace() const { return capture_->stream(slot_).materialize(); }

    /// The captured trace is replayable state: a restored Soc must report
    /// byte-identical traces() for the pre-snapshot prefix. The chunk
    /// format predates the arena and is unchanged — arrival seqs are
    /// assigned afresh on restore, never serialized.
    void save_state(snap::StateWriter& w) const;
    void restore_state(snap::StateReader& r);

  private:
    RunCapture* capture_;
    std::size_t slot_;
    std::string name_;
};

}  // namespace st::verify
