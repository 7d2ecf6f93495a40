#include "gang/program.hpp"

#include <stdexcept>

#include "system/soc.hpp"

namespace st::gang {

/// A throwaway Soc supplies the pristine image; the Program itself keeps
/// only the spec and derived read-only data.
std::shared_ptr<const Program> Program::get(
    std::shared_ptr<const sys::SocSpec> spec) {
    if (!spec) throw std::invalid_argument("Program::get: null spec");
    std::shared_ptr<Program> p(new Program);
    p->spec_ = std::move(spec);
    sys::Soc soc(p->spec_);
    soc.start();
    p->pristine_ = soc.pristine_image();
    p->plan_ = snap::RewindPlan(p->pristine_.bytes());
    return p;
}

std::shared_ptr<const Program> Program::get(const sys::SocSpec& spec) {
    return get(std::make_shared<const sys::SocSpec>(spec));
}

}  // namespace st::gang
