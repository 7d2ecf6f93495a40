#pragma once

#include <cstdint>

namespace st::clk {

/// A clocked process attached to a local clock.
///
/// Every rising edge runs in two phases across *all* sinks of the clock:
/// first every sink `sample()`s (reads other sinks' registered outputs),
/// then every sink `commit()`s (updates its own registered state). This
/// models flip-flop simultaneity: no sink ever observes another sink's
/// same-edge update during sample, so registration order cannot change
/// behaviour. Across clocks a sink acts only through scheduled events
/// (handshakes, FIFO ripples, token flights) or, in commit, on state no sink
/// samples (STARI's FIFO); an enable reads only its own clock's sinks. So
/// coincident edges commute, and a StoppableClock edge can be one event.
class ClockSink {
  public:
    virtual ~ClockSink() = default;

    /// Phase 1: read inputs. Must not mutate state visible to other sinks.
    virtual void sample(std::uint64_t cycle) = 0;

    /// Phase 2: update registered state / launch outputs.
    virtual void commit(std::uint64_t cycle) = 0;
};

}  // namespace st::clk
