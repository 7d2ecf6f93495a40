#include "verify/trace_probe.hpp"

namespace st::verify {

TraceProbe::TraceProbe(core::SbWrapper& wrapper, RunCapture& capture)
    : capture_(&capture), name_(wrapper.name()) {
    slot_ = capture_->add_stream(name_);
    RunCapture* cap = capture_;
    const std::size_t slot = slot_;
    for (std::size_t i = 0; i < wrapper.num_inputs(); ++i) {
        wrapper.input(i).on_deliver(
            [cap, slot, i](std::uint64_t cycle, Word w) {
                cap->record(slot, IoEvent{cycle, IoEvent::Dir::kIn,
                                          static_cast<std::uint32_t>(i), w});
            });
    }
    for (std::size_t i = 0; i < wrapper.num_outputs(); ++i) {
        wrapper.output(i).on_send(
            [cap, slot, i](std::uint64_t cycle, Word w) {
                cap->record(slot, IoEvent{cycle, IoEvent::Dir::kOut,
                                          static_cast<std::uint32_t>(i), w});
            });
    }
    // The SB's kernel records every event of a cycle while it samples that
    // cycle, so the tick after it closes the cycle for the window stop.
    wrapper.block().on_cycle_observer(
        [cap](std::uint64_t cycle) { cap->sampled(cycle); });
}

void TraceProbe::save_state(snap::StateWriter& w) const {
    const TraceStream& s = capture_->stream(slot_);
    w.begin("probe");
    w.str(name_);
    w.u64(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        const IoEvent& e = s.event(i);
        w.u64(e.cycle);
        w.u8(static_cast<std::uint8_t>(e.dir));
        w.u32(e.port);
        w.u64(e.word);
    }
    w.end();
}

void TraceProbe::restore_state(snap::StateReader& r) {
    r.enter("probe");
    const std::string name = r.str();
    if (name != name_) {
        throw snap::SnapshotError("trace probe name mismatch: image '" + name +
                                  "', probe '" + name_ + "'");
    }
    const std::uint64_t n = r.u64();
    // Replay the saved prefix through record(): the events land back in the
    // arena stream AND reach any attached StreamingChecker, which catches up
    // on the prefix exactly as if it had watched it live. (The prefix is
    // replayed probe-by-probe, so arrival seqs differ from the original
    // interleave — harmless, because every consumer of arrival order only
    // uses it to order *mismatches*, and a snapshot prefix that mismatched
    // the golden would already have been classified before the save.)
    for (std::uint64_t i = 0; i < n; ++i) {
        IoEvent e;
        e.cycle = r.u64();
        e.dir = static_cast<IoEvent::Dir>(r.u8());
        e.port = r.u32();
        e.word = r.u64();
        capture_->record(slot_, e);
    }
    r.leave();
}

}  // namespace st::verify
