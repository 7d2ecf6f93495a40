#include "fuzz/shrink.hpp"

#include <stdexcept>

namespace st::fuzz {

ShrinkResult shrink(const Campaign& campaign, const FuzzCase& failing) {
    // One lane for every attempt: each run rewinds it, so attempts stay
    // independent of one another.
    CaseRunner runner(campaign);
    ShrinkResult res;
    res.minimal = failing;
    res.outcome = runner.run(failing).outcome;
    res.attempts = 1;
    if (res.outcome == Outcome::kDeterministic) {
        throw std::invalid_argument(
            "shrink: the case is not failing (classifies deterministic)");
    }

    const auto still_fails = [&](const FuzzCase& c) {
        ++res.attempts;
        return runner.run(c).outcome == res.outcome;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        // Pass 1: drop whole faults, one at a time.
        for (std::size_t i = 0; i < res.minimal.faults.size();) {
            FuzzCase trial = res.minimal;
            trial.faults.erase(trial.faults.begin() +
                               static_cast<std::ptrdiff_t>(i));
            if (still_fails(trial)) {
                res.minimal = std::move(trial);
                changed = true;  // keep i: the next fault shifted into place
            } else {
                ++i;
            }
        }
        // Pass 2: reset perturbed delay dimensions to nominal.
        for (std::size_t d = 0; d < res.minimal.delays.dimensions(); ++d) {
            if (res.minimal.delays.get(d) == 100) continue;
            FuzzCase trial = res.minimal;
            trial.delays.set(d, 100);
            if (still_fails(trial)) {
                res.minimal = std::move(trial);
                changed = true;
            }
        }
    }
    return res;
}

}  // namespace st::fuzz
