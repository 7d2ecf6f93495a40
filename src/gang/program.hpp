#pragma once

#include <cstdint>
#include <memory>

#include "snap/snapshot.hpp"
#include "snap/state_io.hpp"
#include "system/spec.hpp"

namespace st::gang {

/// The immutable half of a simulated model: everything every lane of one
/// campaign or sweep would otherwise rebuild privately.
///
///   * the spec itself (topology, routing/port tables inside the kernel
///     factories' closures, clock and FIFO parameters) — held by
///     shared_ptr so a Soc elaboration references it instead of copying
///     the whole structure per lane;
///   * the pristine image — the freshly-started state every case rewind
///     returns to, serialized once instead of once per lane;
///   * the image's snap::RewindPlan — the pre-validated parse plan that
///     turns each rewind's strict chunk walk into table lookups.
///
/// The owner (a fuzz::Campaign) builds one Program with `get()` and hands
/// the pointer to every worker's lane; a Program holds no live simulation
/// objects, so sharing it across threads is safe.
class Program {
  public:
    /// Elaborate a program for `spec`. The const& overload copies the spec
    /// once.
    static std::shared_ptr<const Program> get(
        std::shared_ptr<const sys::SocSpec> spec);
    static std::shared_ptr<const Program> get(const sys::SocSpec& spec);

    const sys::SocSpec& spec() const { return *spec_; }
    const std::shared_ptr<const sys::SocSpec>& spec_ptr() const {
        return spec_;
    }
    /// Image of the freshly-started Soc: the lane reset point.
    const snap::Snapshot& pristine() const { return pristine_; }
    /// Pre-validated parse plan for pristine().
    const snap::RewindPlan& plan() const { return plan_; }
    /// Digest of the pristine image — the program's state-level identity.
    std::uint64_t digest() const { return pristine_.digest(); }

  private:
    Program() = default;  ///< construct via get() only

    std::shared_ptr<const sys::SocSpec> spec_;
    snap::Snapshot pristine_;
    snap::RewindPlan plan_;
};

}  // namespace st::gang
