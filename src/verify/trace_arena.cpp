#include "verify/trace_arena.hpp"

#include "sim/scheduler.hpp"
#include "verify/streaming.hpp"

namespace st::verify {

TraceArena& TraceArena::local() {
    thread_local TraceArena arena;
    return arena;
}

RunCapture::RunCapture() : arena_(&TraceArena::local()) {}

RunCapture::~RunCapture() {
    if (checker_ != nullptr) checker_->on_capture_destroyed();
}

std::size_t RunCapture::add_stream(std::string sb_name) {
    streams_.emplace_back(std::move(sb_name), *arena_);
    const std::size_t slot = streams_.size() - 1;
    if (checker_ != nullptr) checker_->bind(slot, streams_.back().sb_name());
    return slot;
}

void RunCapture::record(std::size_t slot, const IoEvent& e) {
    streams_[slot].push(e, next_seq_++);
    if (checker_ != nullptr) checker_->observe(slot, e);
}

TraceSet RunCapture::traces() const {
    TraceSet out;
    for (const auto& s : streams_) out.emplace(s.sb_name(), s.materialize());
    return out;
}

void RunCapture::begin_run() {
    streams_.clear();  // dtors release chunks to the arena
    next_seq_ = 0;
    window_done_ = 0;
    sched_ = nullptr;
    if (checker_ != nullptr) checker_->begin_run();
}

void RunCapture::rewind_run() {
    for (auto& s : streams_) s.clear();
    next_seq_ = 0;
    window_done_ = 0;
    if (checker_ != nullptr) checker_->rewind_run();
}

void RunCapture::request_stop() {
    if (sched_ != nullptr) sched_->request_stop();
}

}  // namespace st::verify
