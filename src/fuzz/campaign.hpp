#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/fault.hpp"
#include "gang/lane.hpp"
#include "gang/program.hpp"
#include "runner/runner.hpp"
#include "sim/random.hpp"
#include "snap/snapshot.hpp"
#include "system/spec.hpp"
#include "verify/io_trace.hpp"
#include "verify/streaming.hpp"

namespace st::fuzz {

/// Classification of one fuzz run against the nominal golden run.
///
/// Precedence (strongest diagnosis wins): an invariant violation trumps a
/// deadlock, which trumps a trace divergence. kDeadlocked covers every way
/// the cycle goal was not met — true quiescent deadlock, simulated-time
/// overrun, and the event-budget watchdog (livelock) — because all three are
/// "the system stopped making observable progress".
enum class Outcome : std::uint8_t {
    kDeterministic = 0,
    kTraceDivergent = 1,
    kDeadlocked = 2,
    kInvariantViolation = 3,
};

inline constexpr std::size_t kNumOutcomes = 4;

const char* outcome_name(Outcome o);
std::optional<Outcome> parse_outcome(const std::string& name);

/// Everything observed about one run.
struct RunReport {
    Outcome outcome = Outcome::kDeterministic;
    bool goal_met = false;            ///< every SB reached the cycle goal
    std::uint64_t faults_fired = 0;   ///< injected occurrences that triggered
    std::uint64_t events = 0;         ///< scheduler events this run
    std::uint64_t protocol_errors = 0;
    std::string detail;               ///< first diagnostic locus, if any
    /// Structured trace-mismatch locus (kind != kNone only for
    /// kTraceDivergent): machine-readable counterpart of `detail`, printed
    /// by the shrink reports.
    verify::MismatchLocus locus;

    bool operator==(const RunReport&) const = default;
};

struct CampaignConfig {
    std::string spec_name = "pair";
    /// Local-cycle comparison window per SB (the paper monitors the first
    /// 100 local cycles of each block).
    std::uint64_t cycles = 100;
    /// Livelock watchdog: per-run scheduler event budget (~1.4x more cycles
    /// since a clock edge became one event instead of three).
    std::uint64_t max_events = 2'000'000;
    /// Fault classes eligible for random cases; empty = fault-free campaign
    /// (pure delay perturbation, the paper's §5 experiment).
    std::vector<FaultClass> classes;
    std::size_t max_faults = 2;  ///< faults per random case (1..max)
    /// Shared warm-up prefix (local cycles, < `cycles`; 0 = off): every case
    /// forks from one snapshot of the first `warmup_cycles` at nominal
    /// delays with no faults (taken once at construction), then the case's
    /// delta is applied live (sys::apply_live + clamped fault times) and
    /// the run continues to `cycles`.
    std::uint64_t warmup_cycles = 0;
};

struct CampaignSummary {
    /// One retained failing case, tagged with its *global* campaign index —
    /// the position in the seed's draw sequence, not the position within a
    /// shard. Global indices are what make shard summaries mergeable: the
    /// merged failure list is re-sorted by `index` and re-capped, which
    /// reproduces the single-process retention decision exactly.
    struct Failure {
        std::uint64_t index = 0;
        FuzzCase c;
        RunReport report;

        bool operator==(const Failure&) const = default;
    };

    std::uint64_t runs = 0;
    std::uint64_t by_outcome[kNumOutcomes] = {};
    std::uint64_t runs_with_fault_fired = 0;
    /// The first `kMaxFailures` cases (in campaign order) that did not
    /// classify kDeterministic, with their reports. Bounded for the same
    /// reason verify::SweepResult::add_example is: a long divergent campaign
    /// would otherwise retain every failing case — delays, faults, detail
    /// strings — and grow without bound. `failures_dropped` counts the
    /// overflow so nothing is silently lost.
    std::vector<Failure> failures;
    std::uint64_t failures_dropped = 0;
    static constexpr std::size_t kMaxFailures = 32;

    /// Record a failing case: retained up to kMaxFailures, counted beyond.
    void add_failure(std::uint64_t index, const FuzzCase& c,
                     const RunReport& r) {
        if (failures.size() >= kMaxFailures) {
            ++failures_dropped;
            return;
        }
        failures.push_back(Failure{index, c, r});
    }

    bool operator==(const CampaignSummary&) const = default;
};

/// Merge N shard summaries into the byte-identical single-process summary.
///
/// Counters add. The failure lists concatenate, sort by global index, and
/// re-cap at kMaxFailures — correct because shard retention is a superset
/// of global retention: a failure among the global first-32 has fewer
/// failures before it within its own shard than globally, so its shard
/// necessarily retained it. Shards may be passed in any order; each global
/// index must appear in at most one shard (`runner::Shard` guarantees this).
CampaignSummary merge_shards(const std::vector<CampaignSummary>& shards);

/// Execution controls for Campaign::run that are not part of the case
/// space: sharding, checkpointing, resume, and deterministic truncation.
/// The default-constructed value reproduces the plain `run` behaviour.
struct CampaignControl {
    /// Deterministic 1-of-N split of the campaign's global case indices.
    /// Every shard draws the full case sequence from the seed (drawing is
    /// trivially cheap next to simulation) and executes only its own
    /// indices, so shard results merge to the single-process summary.
    runner::Shard shard;
    /// When non-empty, periodically write a campaign-progress image
    /// (STSNAP chunk format, atomic tmp+rename) to this path, and always
    /// write a final image when the run ends. A completed shard's image
    /// doubles as its mergeable summary file.
    std::string checkpoint_path;
    /// Reduced cases between progress images; 0 = default (1024). The
    /// in-order reduction makes completed work a contiguous prefix, so an
    /// image is just {campaign key, completed count, partial summary}.
    std::uint64_t checkpoint_every = 0;
    /// Load `checkpoint_path`, validate its campaign key against this run's
    /// configuration, and continue from the recorded prefix. The final
    /// summary is bit-identical to the uninterrupted run's.
    bool resume = false;
    /// When > 0, stop cleanly after this many (further) reduced cases —
    /// a deterministic stand-in for killing the process mid-campaign, used
    /// by the resume tests and CLI fixtures. The cut happens at a reduction
    /// boundary, so the written checkpoint is always consistent.
    std::uint64_t stop_after = 0;
};

class Campaign;

/// The one case engine: a worker's gang::Lane — a Soc elaborated once from
/// the campaign's program, with its trace capture, its golden checker, and
/// its invariant monitor — rewound for every case the worker runs. Each
/// case rewinds the lane to the campaign's rewind image (the pristine
/// image, or the warm-up prefix), binds its fault injector, applies its
/// delays with sys::apply_live, runs bounded and classifies; the checker
/// observes every event online and gives the trace verdict.
/// Restore-equivalence makes the report bit-identical to elaborating the
/// perturbed spec afresh (tests/test_gang.cpp). Construct on the thread
/// that will call run() (the capture pins that thread's arena).
///
/// `Campaign::run` creates one per engine worker via runner::sweep_ctx;
/// run_case() is the convenience wrapper that builds a throwaway one.
class CaseRunner {
  public:
    explicit CaseRunner(const Campaign& campaign);

    CaseRunner(const CaseRunner&) = delete;
    CaseRunner& operator=(const CaseRunner&) = delete;

    /// Rewind, inject, perturb, run bounded, classify — bit-identical to
    /// Campaign::run_case for the same case, whatever ran before it.
    RunReport run(const FuzzCase& c);

  private:
    const Campaign* campaign_;
    gang::Lane lane_;
};

/// Seeded property-based campaign over the composed (delays x faults) space
/// of one named testbench spec. Construction runs the nominal golden case
/// once and caches its cycle-indexed I/O traces; every subsequent case is
/// classified against that golden.
class Campaign {
  public:
    explicit Campaign(CampaignConfig cfg);

    /// Campaign over an explicit spec instead of a shipped catalog name —
    /// the entry point for generated and fixture specs (the sva witness
    /// cross-check replays counterexamples against specs that have no
    /// catalog name). `cfg.spec_name` is used only in error messages.
    Campaign(CampaignConfig cfg, sys::SocSpec spec);

    const CampaignConfig& config() const { return cfg_; }
    const sys::SocSpec& spec() const { return prog_->spec(); }
    /// The immutable program the campaign owns and hands to every worker's
    /// lane: one elaboration, one pristine image, one rewind plan.
    const std::shared_ptr<const gang::Program>& program() const {
        return prog_;
    }
    const verify::TraceSet& golden() const { return golden_; }
    const verify::GoldenIndex& golden_index() const { return golden_index_; }

    /// Run one case on a throwaway CaseRunner. Deterministic per case.
    RunReport run_case(const FuzzCase& c) const;

    /// Draw one random case: every delay dimension sampled from the paper's
    /// {50,75,100,150,200}% grid (clocks clamped to >= 75%, the audited
    /// timing envelope), plus 1..max_faults random faults when the class
    /// list is non-empty.
    FuzzCase random_case(sim::Rng& rng) const;

    /// Run `n_runs` random cases from `seed`, executing up to `jobs` cases
    /// concurrently on the st::runner engine (`jobs == 1`, the default, is
    /// the plain serial path; `jobs == 0` means all hardware threads).
    ///
    /// Cases are drawn serially from `seed` before execution and results are
    /// reduced in case-index order, so the returned summary — counters,
    /// retained failures, overflow count — and the `on_run` observation
    /// sequence are bit-identical for every `jobs` value.
    CampaignSummary run(
        std::uint64_t n_runs, std::uint64_t seed,
        const std::function<void(std::size_t, const FuzzCase&,
                                 const RunReport&)>& on_run = {},
        std::size_t jobs = 1) const {
        return run(n_runs, seed, on_run, jobs, CampaignControl{});
    }

    /// `run` with execution controls: sharding (`ctl.shard`), periodic
    /// checkpoint images (`ctl.checkpoint_path` / `checkpoint_every`),
    /// resume from a checkpoint (`ctl.resume`), and deterministic
    /// truncation (`ctl.stop_after`). `on_run` receives *global* case
    /// indices; under a shard it observes only that shard's cases, and on
    /// resume only the cases after the checkpointed prefix.
    CampaignSummary run(
        std::uint64_t n_runs, std::uint64_t seed,
        const std::function<void(std::size_t, const FuzzCase&,
                                 const RunReport&)>& on_run,
        std::size_t jobs, const CampaignControl& ctl) const;

    /// Snapshot of the shared warm-up prefix (empty when warmup_cycles == 0).
    const snap::Snapshot& warmup_prefix() const { return prefix_; }
    /// Pre-validated parse plan for warmup_prefix() (nullptr when off):
    /// every forked case restores the same prefix bytes, so they share one
    /// plan instead of re-parsing the framing per case.
    const snap::RewindPlan* warmup_prefix_plan() const {
        return prefix_plan_.built() ? &prefix_plan_ : nullptr;
    }

  private:
    Fault random_fault(sim::Rng& rng) const;

    CampaignConfig cfg_;
    std::shared_ptr<const gang::Program> prog_;
    verify::TraceSet golden_;
    verify::GoldenIndex golden_index_;
    snap::Snapshot prefix_;
    snap::RewindPlan prefix_plan_;
};

/// Classify one case against `spec` WITHOUT a golden run: elaborate the
/// perturbed spec, inject the faults, run bounded, and report deadlock /
/// invariant-violation outcomes (trace divergence needs a golden and is
/// never produced here — a run that meets the goal cleanly classifies
/// kDeterministic). Exceptions from elaboration propagate to the caller.
///
/// This is the first stage of the sva witness cross-check: deadlock and
/// invariant witnesses are confirmable even for specs whose *nominal* run
/// cannot reach the cycle goal (where the Campaign constructor would throw).
RunReport probe_case(const sys::SocSpec& spec, const FuzzCase& c,
                     std::uint64_t cycles,
                     std::uint64_t max_events = 2'000'000);

}  // namespace st::fuzz
