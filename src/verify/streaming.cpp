#include "verify/streaming.hpp"

#include <algorithm>
#include <stdexcept>

namespace st::verify {

GoldenIndex::GoldenIndex(const TraceSet& golden, std::uint64_t n_cycles)
    : n_cycles_(n_cycles) {
    entries_.reserve(golden.size());
    for (const auto& [name, trace] : golden) {  // map: name order
        PerSb e;
        e.name = name;
        // Golden events are cycle-sorted (IoTrace::truncated precondition);
        // keep only the comparison window.
        const auto cut = std::partition_point(
            trace.events.begin(), trace.events.end(),
            [n_cycles](const IoEvent& ev) { return ev.cycle < n_cycles; });
        e.events.assign(trace.events.begin(), cut);
        for (const auto& ev : e.events) e.digest = fnv1a_event(e.digest, ev);
        entries_.push_back(std::move(e));
    }
}

std::size_t GoldenIndex::find(const std::string& name) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const PerSb& e, const std::string& n) { return e.name < n; });
    if (it == entries_.end() || it->name != name) return npos;
    return static_cast<std::size_t>(it - entries_.begin());
}

StreamingChecker::StreamingChecker(const GoldenIndex& golden,
                                   StreamingOptions opt)
    : golden_(&golden),
      opt_(opt),
      bound_(golden.entries().size(), GoldenIndex::npos) {}

StreamingChecker::~StreamingChecker() {
    if (cap_ != nullptr && cap_->checker() == this) {
        cap_->set_checker(nullptr);
        cap_->set_window(0);
    }
}

void StreamingChecker::attach(RunCapture& cap) {
    cap_ = &cap;
    cap.set_checker(this);
    arm_window();
    begin_run();
    for (std::size_t s = 0; s < cap.num_streams(); ++s) {
        bind(s, cap.stream(s).sb_name());
    }
    // Catch up on anything already captured (e.g. a warm-up prefix restored
    // into the capture before the checker subscribed), in arrival order.
    if (cap.events_captured() > 0) {
        std::vector<std::size_t> pos(cap.num_streams(), 0);
        for (;;) {
            std::size_t best = RunCapture::npos_slot();
            std::uint64_t best_seq = 0;
            for (std::size_t s = 0; s < cap.num_streams(); ++s) {
                const auto& stream = cap.stream(s);
                if (pos[s] >= stream.size()) continue;
                const std::uint64_t seq = stream.entry(pos[s]).seq;
                if (best == RunCapture::npos_slot() || seq < best_seq) {
                    best = s;
                    best_seq = seq;
                }
            }
            if (best == RunCapture::npos_slot()) break;
            observe(best, cap.stream(best).event(pos[best]));
            ++pos[best];
        }
    }
}

void StreamingChecker::set_early_exit(bool on) {
    opt_.early_exit = on;
    arm_window();
}

void StreamingChecker::arm_window() {
    if (cap_ != nullptr) {
        cap_->set_window(opt_.early_exit ? golden_->n_cycles() : 0);
    }
}

void StreamingChecker::bind(std::size_t slot, const std::string& sb) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    const std::size_t g = golden_->find(sb);
    if (g == GoldenIndex::npos) return;  // SB unknown to golden: ignored
    slots_[slot].golden = &golden_->entries()[g];
    // A name registered twice binds its first stream, the one
    // RunCapture::traces() keeps.
    if (bound_[g] == GoldenIndex::npos) bound_[g] = slot;
}

void StreamingChecker::record_mismatch(MismatchLocus locus,
                                       std::string message) {
    diverged_ = true;
    locus_ = std::move(locus);
    message_ = std::move(message);
    if (opt_.early_exit && cap_ != nullptr) cap_->request_stop();
}

void StreamingChecker::observe(std::size_t slot, const IoEvent& e) {
    if (e.cycle >= golden_->n_cycles()) return;  // outside the window
    if (slot >= slots_.size()) {
        throw std::logic_error(
            "StreamingChecker: observe() on an unbound slot — attach() "
            "first");
    }
    Slot& s = slots_[slot];
    const std::uint64_t index = s.seen;
    s.digest = fnv1a_event(s.digest, e);
    ++s.seen;
    ++checked_;
    if (diverged_) return;  // verdict already fixed at the first mismatch
    if (s.golden == nullptr) return;  // SB unknown to golden: ignored
    const std::string& sb = s.golden->name;
    if (index >= s.golden->events.size()) {
        MismatchLocus l;
        l.kind = MismatchLocus::Kind::kExtra;
        l.sb = sb;
        l.index = index;
        l.actual = e;
        l.cycle = e.cycle;
        l.port = e.port;
        record_mismatch(std::move(l), format_extra_event(sb, index, e));
        return;
    }
    const IoEvent& g = s.golden->events[static_cast<std::size_t>(index)];
    if (e != g) {
        MismatchLocus l;
        l.kind = MismatchLocus::Kind::kValue;
        l.sb = sb;
        l.index = index;
        l.cycle = e.cycle;
        l.port = e.port;
        l.expected = g;
        l.actual = e;
        record_mismatch(std::move(l), format_value_mismatch(sb, index, g, e));
    }
}

TraceDiff StreamingChecker::finish() const {
    TraceDiff d;
    if (diverged_) {
        d.identical = false;
        d.first_mismatch = message_;
        d.locus = locus_;
        return d;
    }
    // No event-level mismatch: the run is deterministic iff every golden SB
    // has a stream and produced its full event count. O(#SBs), name order
    // (matching diff_traces' report order for the shortfall/missing cases,
    // which have no arrival position to order by).
    const auto& entries = golden_->entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const GoldenIndex::PerSb& g = entries[i];
        if (bound_[i] == GoldenIndex::npos) {
            // The run has no stream for this SB at all — missing even when
            // its golden window is empty, as diff_traces reports it.
            d.identical = false;
            d.first_mismatch = format_missing_sb(g.name);
            d.locus.kind = MismatchLocus::Kind::kMissingSb;
            d.locus.sb = g.name;
            return d;
        }
        const Slot& s = slots_[bound_[i]];
        if (s.seen < g.events.size()) {
            d.identical = false;
            d.first_mismatch =
                format_count_mismatch(g.name, g.events.size(), s.seen);
            d.locus.kind = MismatchLocus::Kind::kShortfall;
            d.locus.sb = g.name;
            d.locus.index = s.seen;
            d.locus.expected = g.events[static_cast<std::size_t>(s.seen)];
            d.locus.cycle = d.locus.expected->cycle;
            d.locus.port = d.locus.expected->port;
            return d;
        }
        // Defence in depth for the O(1) claim: counts match and no
        // positional compare failed, so the rolling digest must equal the
        // precomputed golden digest — anything else is a checker bug.
        if (s.digest != g.digest) {
            throw std::logic_error(
                "StreamingChecker: digest mismatch with per-event match on "
                "SB '" + g.name + "' — checker bug");
        }
    }
    return d;
}

void StreamingChecker::begin_run() {
    slots_.clear();
    std::fill(bound_.begin(), bound_.end(), GoldenIndex::npos);
    rewind_run();
}

void StreamingChecker::rewind_run() {
    for (Slot& s : slots_) {
        s.seen = 0;
        s.digest = kFnvOffset;
    }
    diverged_ = false;
    checked_ = 0;
    locus_ = MismatchLocus{};
    message_.clear();
}

}  // namespace st::verify
