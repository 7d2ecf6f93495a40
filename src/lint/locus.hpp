#pragma once

// Internal helpers shared by the lint passes: human-readable locus strings
// matching the spec vocabulary ("ring 'x' node in SB 'y'", "channel 'z'").

#include <string>

#include "system/spec.hpp"

namespace st::lint::detail {

inline std::string sb_locus(const sys::SocSpec& spec, std::size_t i) {
    if (i < spec.sbs.size()) return "SB '" + spec.sbs[i].name + "'";
    return "SB #" + std::to_string(i) + " (out of range)";
}

inline std::string ring_locus(const sys::RingSpec& r) {
    return "ring '" + r.name + "'";
}

inline std::string multi_ring_locus(const sys::MultiRingSpec& r) {
    return "multi-ring '" + r.name + "'";
}

inline std::string channel_locus(const sys::ChannelSpec& c) {
    return "channel '" + c.name + "'";
}

inline std::string node_locus(const sys::SocSpec& spec,
                              const sys::RingSpec& r, std::size_t sb) {
    return ring_locus(r) + " node in " + sb_locus(spec, sb);
}

}  // namespace st::lint::detail
