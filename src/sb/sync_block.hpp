#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clock/clock_sink.hpp"
#include "sb/kernel.hpp"
#include "sb/ports.hpp"
#include "snap/snapshot.hpp"

namespace st::sb {

/// A synchronous block: one core of the GALS SoC.
///
/// Hosts a Kernel, adapts it to the two-phase ClockSink protocol, and gives
/// it a stable, index-addressed bundle of channel ports. The wrapper (module
/// `synchro`) registers port implementations here during elaboration.
class SyncBlock final : public clk::ClockSink,
                        public SbContext,
                        public snap::Snapshottable {
  public:
    explicit SyncBlock(std::string name, std::unique_ptr<Kernel> kernel);

    SyncBlock(const SyncBlock&) = delete;
    SyncBlock& operator=(const SyncBlock&) = delete;

    /// Wire a channel port (elaboration time). Returns the port index.
    std::size_t add_in_port(InPortIf* port);
    std::size_t add_out_port(OutPortIf* port);

    // --- ClockSink ---
    void sample(std::uint64_t cycle) override;
    void commit(std::uint64_t cycle) override;

    // --- SbContext ---
    std::size_t num_in() const override { return ins_.size(); }
    std::size_t num_out() const override { return outs_.size(); }
    InPortIf& in(std::size_t i) override { return *ins_.at(i); }
    OutPortIf& out(std::size_t i) override { return *outs_.at(i); }
    std::uint64_t local_cycle() const override { return cycle_; }

    const std::string& name() const { return name_; }
    Kernel& kernel() { return *kernel_; }
    const Kernel& kernel() const { return *kernel_; }

    /// Observer invoked every cycle after the kernel ran (sample phase);
    /// verify::TraceProbe uses it to close each cycle for the capture's
    /// window stop.
    void on_cycle_observer(std::function<void(std::uint64_t)> fn) {
        observers_.push_back(std::move(fn));
    }

    /// Snapshot: local-cycle register plus the kernel's state.
    void save_state(snap::StateWriter& w) const override {
        w.begin_group("sb");
        w.begin("regs");
        w.u64(cycle_);
        w.end();
        kernel_->save_state(w);
        w.end();
    }
    void restore_state(snap::StateReader& r) override {
        r.enter("sb");
        r.enter("regs");
        cycle_ = r.u64();
        r.leave();
        kernel_->restore_state(r);
        r.leave();
    }

  private:
    std::string name_;
    std::unique_ptr<Kernel> kernel_;
    std::vector<InPortIf*> ins_;
    std::vector<OutPortIf*> outs_;
    std::vector<std::function<void(std::uint64_t)>> observers_;
    std::uint64_t cycle_ = 0;
};

}  // namespace st::sb
