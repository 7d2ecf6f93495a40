#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "async/types.hpp"

namespace st::verify {

/// One data-exchange event at an SB boundary, indexed by *local clock cycle*.
///
/// This is exactly the quantity whose sequence the paper declares unique in a
/// deterministic system: "it is the unique sequence of states, not the
/// instantaneous values of the states, which is the hallmark of deterministic
/// behavior". Absolute picosecond times are deliberately absent — they DO
/// vary across delay perturbations even in a deterministic system.
struct IoEvent {
    enum class Dir : std::uint8_t { kIn, kOut };

    std::uint64_t cycle = 0;  ///< local clock cycle index of the SB
    Dir dir = Dir::kIn;
    std::uint32_t port = 0;  ///< interface index within the SB
    Word word = 0;

    bool operator==(const IoEvent&) const = default;
    auto operator<=>(const IoEvent&) const = default;
};

// --- FNV-1a over event streams -----------------------------------------
// One definition for every consumer: batch fingerprints, the streaming
// checker's rolling per-SB digest, and the golden index all must hash the
// same bytes in the same order (cycle, dir, port, word — each widened to
// u64, least-significant byte first) or the O(1) digest verdict would
// disagree with the event-by-event compare.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

inline std::uint64_t fnv1a_event(std::uint64_t h, const IoEvent& e) {
    h = fnv1a_u64(h, e.cycle);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(e.dir));
    h = fnv1a_u64(h, e.port);
    h = fnv1a_u64(h, e.word);
    return h;
}

/// Per-SB cycle-indexed I/O sequence.
struct IoTrace {
    std::string sb_name;
    std::vector<IoEvent> events;

    bool operator==(const IoTrace&) const = default;

    /// 64-bit FNV-1a fingerprint over the event stream.
    std::uint64_t fingerprint() const;

    /// Events restricted to the first `n_cycles` local cycles (the paper
    /// monitors the first 100 local clock cycles of each SB).
    ///
    /// Precondition: `events` is sorted by `cycle`. Every producer in the
    /// repo appends in local-cycle order (a probe observes its SB's clock
    /// monotonically), which lets the cutoff be a binary search + block
    /// copy instead of a full filtering scan.
    IoTrace truncated(std::uint64_t n_cycles) const;
};

/// Traces for a whole SoC, keyed by SB name.
using TraceSet = std::map<std::string, IoTrace>;

/// Structured first-mismatch locus: machine-readable counterpart of
/// TraceDiff::first_mismatch. The streaming checker produces it for free (it
/// is sitting on both events when the compare fails); diff_traces fills it
/// from the same data it already formats into the human string.
struct MismatchLocus {
    enum class Kind : std::uint8_t {
        kNone = 0,       ///< no mismatch (diff identical)
        kValue = 1,      ///< event `index` differs between golden and run
        kExtra = 2,      ///< run produced event `index` beyond golden's end
        kShortfall = 3,  ///< run ended with fewer events than golden
        kMissingSb = 4,  ///< golden SB absent from the compared run
    };

    Kind kind = Kind::kNone;
    std::string sb;          ///< SB whose stream mismatched
    std::uint64_t index = 0; ///< event index within that SB's stream
    std::uint64_t cycle = 0; ///< local cycle of the defining event
    std::uint32_t port = 0;  ///< port of the defining event
    std::optional<IoEvent> expected;  ///< golden event (kValue/kShortfall)
    std::optional<IoEvent> actual;    ///< observed event (kValue/kExtra)

    bool valid() const { return kind != Kind::kNone; }
    bool operator==(const MismatchLocus&) const = default;
};

/// Result of comparing a perturbed run against the nominal run.
struct TraceDiff {
    bool identical = true;
    std::string first_mismatch;  ///< human-readable locus, empty when identical
    MismatchLocus locus;         ///< structured locus, kind==kNone when identical

    bool operator==(const TraceDiff&) const = default;
};

// Shared locus formatters: every first_mismatch string diff_traces and the
// streaming checker emit is built here, in exactly one place.
std::string format_value_mismatch(const std::string& sb, std::uint64_t index,
                                  const IoEvent& expected,
                                  const IoEvent& actual);
std::string format_count_mismatch(const std::string& sb,
                                  std::uint64_t expected_count,
                                  std::uint64_t actual_count);
std::string format_missing_sb(const std::string& sb);
std::string format_extra_event(const std::string& sb, std::uint64_t index,
                               const IoEvent& actual);

/// Compare two trace sets event-by-event. Scans SBs in name order (TraceSet
/// iteration order) and reports the first mismatch it encounters in that
/// order — NOT necessarily the first mismatch in simulated-time order; the
/// streaming checker (verify/streaming.hpp) reports the arrival-order locus
/// instead. Independent of the checker, so tests use it to cross-check
/// the checker's verdicts.
TraceDiff diff_traces(const TraceSet& nominal, const TraceSet& other);

/// Fingerprint an entire trace set (order-independent over SBs).
std::uint64_t fingerprint(const TraceSet& traces);

/// Restrict every trace in the set to its first `n_cycles` local cycles.
TraceSet truncated(const TraceSet& traces, std::uint64_t n_cycles);

}  // namespace st::verify
