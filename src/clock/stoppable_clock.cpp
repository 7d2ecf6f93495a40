#include "clock/stoppable_clock.hpp"

#include <stdexcept>

namespace st::clk {

StoppableClock::StoppableClock(sim::Scheduler& sched, std::string name,
                               Params p)
    : sched_(sched), name_(std::move(name)), params_(p) {
    if (params_.base_period == 0) {
        throw std::invalid_argument("StoppableClock: zero period");
    }
    if (params_.divider == 0) {
        throw std::invalid_argument("StoppableClock: zero divider");
    }
}

void StoppableClock::add_sink(ClockSink* sink) {
    if (sink == nullptr) {
        throw std::invalid_argument("StoppableClock: null sink");
    }
    sinks_.push_back(sink);
}

void StoppableClock::set_divider(unsigned d) {
    if (d == 0) throw std::invalid_argument("StoppableClock: zero divider");
    params_.divider = d;
}

void StoppableClock::set_base_period(sim::Time p) {
    if (p == 0) throw std::invalid_argument("StoppableClock: zero period");
    params_.base_period = p;
}

void StoppableClock::start() {
    if (started_) return;
    started_ = true;
    schedule_edge(params_.phase);
}

void StoppableClock::schedule_edge(sim::Time t) {
    edge_pending_ = true;
    edge_time_ = t;
    edge_seq_ =
        sched_.schedule_at(t, sim::Priority::kClockEdge,
                           sim::EventTag{this, "clock.edge"},
                           [this] { edge(); });
}

void StoppableClock::edge() {
    edge_pending_ = false;
    if (halted_) return;
    const std::uint64_t cycle = cycles_++;
    const sim::Time t = sched_.now();

    // Sample, commit, then the enable decision, all in this one event: a
    // coincident edge of another clock cannot tell (ClockSink).
    for (auto* s : sinks_) s->sample(cycle);
    for (auto* s : sinks_) s->commit(cycle);

    // The (now committed) enable decides whether the ring oscillator
    // produces another edge.
    if (!halted_) {
        if (!enable_fn_ || enable_fn_()) {
            schedule_edge(t + effective_period());
        } else {
            stopped_ = true;
            stop_began_ = t;
            ++stop_events_;
        }
    }

    // Monitors observe the fully settled post-edge state.
    if (!edge_observers_.empty()) {
        sched_.schedule_at(t, sim::Priority::kMonitor,
                           sim::EventTag{this, "clock.monitor"},
                           [this, cycle, t] {
            for (auto& f : edge_observers_) f(cycle, t);
        });
    }
}

void StoppableClock::save_state(snap::StateWriter& w) const {
    w.begin("clk");
    w.u64(params_.base_period);
    w.u32(params_.divider);
    w.u64(params_.phase);
    w.u64(params_.restart_delay);
    w.b(started_);
    w.b(halted_);
    w.b(stopped_);
    w.b(edge_pending_);
    w.u64(cycles_);
    w.u64(stop_began_);
    w.u64(total_stopped_);
    w.u64(stop_events_);
    if (edge_pending_) {
        w.u64(edge_time_);
        w.u64(edge_seq_);
    }
    w.end();
}

void StoppableClock::restore_state(snap::StateReader& r) {
    r.enter("clk");
    params_.base_period = r.u64();
    params_.divider = r.u32();
    params_.phase = r.u64();
    params_.restart_delay = r.u64();
    started_ = r.b();
    halted_ = r.b();
    stopped_ = r.b();
    edge_pending_ = r.b();
    cycles_ = r.u64();
    stop_began_ = r.u64();
    total_stopped_ = r.u64();
    stop_events_ = r.u64();
    if (edge_pending_) {
        edge_time_ = r.u64();
        edge_seq_ = r.u64();
        sched_.rearm(edge_time_, sim::Priority::kClockEdge,
                     sim::EventTag{this, "clock.edge"}, edge_seq_,
                     [this] { edge(); });
    }
    r.leave();
}

void StoppableClock::async_restart() {
    if (!started_ || halted_ || !stopped_) return;
    stopped_ = false;
    total_stopped_ += sched_.now() - stop_began_;
    if (!edge_pending_) {
        const sim::Time glitch = restart_fault_ ? restart_fault_() : 0;
        schedule_edge(sched_.now() + params_.restart_delay + glitch);
    }
}

}  // namespace st::clk
