#include "gang/lane.hpp"

namespace st::gang {

Lane::Lane(std::shared_ptr<const Program> program, const Options& opt)
    : prog_(std::move(program)) {
    // Attachment order: checker onto the capture first, then the Soc (whose
    // ctor begins the capture's run and registers the probes), then the
    // monitor's clock observers.
    if (opt.golden != nullptr) {
        checker_ = std::make_unique<verify::StreamingChecker>(*opt.golden);
        checker_->attach(cap_);
    }
    soc_ = std::make_unique<sys::Soc>(prog_->spec_ptr(), &cap_);
    if (opt.monitor) {
        monitor_ = std::make_unique<sys::InvariantMonitor>(*soc_);
    }
    soc_->start();
}

void Lane::rewind() { rewind(prog_->pristine(), &prog_->plan()); }

void Lane::rewind(const snap::Snapshot& image, const snap::RewindPlan* plan) {
    soc_->reset_from_image(image, plan);
    if (monitor_) monitor_->reset();
}

}  // namespace st::gang
