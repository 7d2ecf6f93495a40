#pragma once

#include <cstddef>

#include "fuzz/campaign.hpp"
#include "fuzz/fault.hpp"

namespace st::fuzz {

struct ShrinkResult {
    FuzzCase minimal;
    Outcome outcome = Outcome::kDeterministic;  ///< preserved failure class
    std::size_t attempts = 0;                   ///< cases run
};

/// Greedy dimension-wise reduction of a failing case to a locally minimal
/// counterexample: repeatedly try removing each injected fault and resetting
/// each non-nominal delay dimension to 100%, keeping any change that
/// preserves the original failure outcome class, until a full pass changes
/// nothing. Deterministic (every case run is), so the result replays
/// bit-exact.
///
/// Throws std::invalid_argument if `failing` classifies kDeterministic.
ShrinkResult shrink(const Campaign& campaign, const FuzzCase& failing);

}  // namespace st::fuzz
