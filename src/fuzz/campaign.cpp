#include "fuzz/campaign.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "fuzz/case_exec.hpp"
#include "fuzz/checkpoint.hpp"
#include "fuzz/injector.hpp"
#include "runner/runner.hpp"
#include "system/delay_config.hpp"
#include "system/invariant_monitor.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"

namespace st::fuzz {

namespace {

const char* const kOutcomeNames[kNumOutcomes] = {
    "deterministic",
    "divergent",
    "deadlock",
    "invariant",
};

}  // namespace

const char* outcome_name(Outcome o) {
    return kOutcomeNames[static_cast<std::size_t>(o)];
}

std::optional<Outcome> parse_outcome(const std::string& name) {
    for (std::size_t i = 0; i < kNumOutcomes; ++i) {
        if (name == kOutcomeNames[i]) return static_cast<Outcome>(i);
    }
    return std::nullopt;
}

Campaign::Campaign(CampaignConfig cfg)
    : Campaign(cfg, sys::make_named_spec(cfg.spec_name)) {}

Campaign::Campaign(CampaignConfig cfg, sys::SocSpec spec)
    : cfg_(std::move(cfg)),
      prog_(gang::Program::get(
          std::make_shared<const sys::SocSpec>(std::move(spec)))) {
    // Golden: nominal delays, no faults. Must meet the cycle goal — a spec
    // that cannot run fault-free nominally is a configuration error. The
    // Soc shares the program's spec rather than copying it.
    sys::Soc soc(prog_->spec_ptr());
    bool budget_expired = false;
    const sim::Time deadline =
        case_deadline(max_effective_period(this->spec()), cfg_.cycles);
    if (!run_bounded(soc, cfg_.cycles, deadline, cfg_.max_events,
                     budget_expired)) {
        throw std::runtime_error("Campaign: golden run of spec '" +
                                 cfg_.spec_name +
                                 "' did not reach the cycle goal");
    }
    golden_ = verify::truncated(soc.traces(), cfg_.cycles);
    golden_index_ = verify::GoldenIndex(golden_, cfg_.cycles);

    if (cfg_.warmup_cycles > 0) {
        if (cfg_.warmup_cycles >= cfg_.cycles) {
            throw std::invalid_argument(
                "Campaign: warmup_cycles must be < cycles");
        }
        // Shared prefix: nominal delays, no faults, snapshotted once at a
        // slot boundary. The golden run above proved the nominal spec
        // reaches cfg_.cycles, so this shorter leg cannot fail.
        sys::Soc warm(prog_->spec_ptr());
        run_bounded(warm, cfg_.warmup_cycles, deadline, cfg_.max_events,
                    budget_expired);
        warm.settle();
        prefix_ = warm.save_snapshot();
        prefix_plan_ = snap::RewindPlan(prefix_.bytes());
    }
}

CaseRunner::CaseRunner(const Campaign& campaign)
    : campaign_(&campaign),
      // One checker for the worker's lifetime: the per-SB slot table and
      // digest state reset per run, but the golden binding and the
      // attachment are paid once. Early exit is decided per case in run().
      lane_(campaign.program(),
            {.golden = &campaign.golden_index(), .monitor = true}) {}

RunReport CaseRunner::run(const FuzzCase& c) {
    const Campaign& campaign = *campaign_;
    const CampaignConfig& cfg = campaign.config();
    const sim::Time deadline = case_deadline(
        perturbed_max_effective_period(campaign.spec(), c.delays),
        cfg.cycles);

    verify::StreamingChecker* checker = lane_.checker();
    // Early exit is sound only where divergence is the final word: a faulted
    // run must complete, because a later deadlock or invariant violation
    // outranks the divergence (Outcome precedence). Checked per case, not
    // per config — a replayed fault counterexample under a fault-free
    // campaign config still carries faults.
    checker->set_early_exit(cfg.classes.empty() && c.faults.empty());

    // The rewind stands in for elaborating a fresh Soc (restore-
    // equivalence): to the pristine image, or to the shared warm-up prefix
    // snapshot. The checker stays subscribed, so even a restored prefix is
    // checked as it is replayed.
    if (cfg.warmup_cycles > 0) {
        lane_.rewind(campaign.warmup_prefix(), campaign.warmup_prefix_plan());
    } else {
        lane_.rewind();
    }
    sys::Soc& soc = lane_.soc();
    const Injector injector(soc, c.faults);
    sys::apply_live(soc, c.delays);

    bool budget_expired = false;
    const bool goal = run_bounded(soc, cfg.cycles, deadline, cfg.max_events,
                                  budget_expired);
    return classify_case(soc, injector.fired(), goal, budget_expired,
                         lane_.monitor()->violations(), nullptr, checker,
                         campaign.golden_index(), lane_.capture());
}

RunReport Campaign::run_case(const FuzzCase& c) const {
    CaseRunner runner(*this);
    return runner.run(c);
}

RunReport probe_case(const sys::SocSpec& spec, const FuzzCase& c,
                     std::uint64_t cycles, std::uint64_t max_events) {
    const sys::SocSpec perturbed = sys::apply(spec, c.delays);
    const sim::Time deadline =
        case_deadline(max_effective_period(perturbed), cycles);
    sys::Soc soc(perturbed);
    Injector injector(soc, c.faults);
    sys::InvariantMonitor monitor(soc);

    bool budget_expired = false;
    const bool goal =
        run_bounded(soc, cycles, deadline, max_events, budget_expired);

    RunReport r;
    r.goal_met = goal;
    r.faults_fired = injector.fired();
    r.events = soc.scheduler().events_executed();
    r.protocol_errors = total_protocol_errors(soc);
    if (!monitor.violations().empty() || r.protocol_errors > 0) {
        r.outcome = Outcome::kInvariantViolation;
        if (!monitor.violations().empty()) {
            r.detail = monitor.violations().front();
        } else {
            std::ostringstream os;
            os << r.protocol_errors << " token protocol error(s)";
            r.detail = os.str();
        }
        return r;
    }
    if (!goal) {
        r.outcome = Outcome::kDeadlocked;
        if (budget_expired) {
            r.detail = "event budget expired (livelock watchdog)";
        } else if (soc.deadlocked()) {
            r.detail = "quiescent with stopped clock(s)";
        } else {
            r.detail = "cycle goal not met before deadline";
        }
        return r;
    }
    r.outcome = Outcome::kDeterministic;
    return r;
}

Fault Campaign::random_fault(sim::Rng& rng) const {
    Fault f;
    f.cls = cfg_.classes[rng.next_below(cfg_.classes.size())];
    switch (f.cls) {
        case FaultClass::kTokenDropWire:
        case FaultClass::kTokenDuplicate:
            f.unit = rng.next_below(std::max<std::size_t>(
                1, spec().rings.size()));
            f.side = rng.next_below(2);
            f.nth = rng.next_in(1, 4);
            break;
        case FaultClass::kSpuriousToken:
            f.unit = rng.next_below(std::max<std::size_t>(
                1, spec().rings.size()));
            f.side = rng.next_below(2);
            f.nth = 1;
            // Inject somewhere in the first half of the run window.
            f.value = rng.next_in(
                1, (cfg_.cycles / 2 + 1) * max_effective_period(spec()));
            break;
        case FaultClass::kFifoStall:
            f.unit = rng.next_below(std::max<std::size_t>(
                1, spec().channels.size()));
            f.nth = rng.next_in(1, 8);
            f.value = rng.next_in(1, 20) * 100;  ///< up to 2 ns extra
            break;
        case FaultClass::kFifoStuckData:
            f.unit = rng.next_below(std::max<std::size_t>(
                1, spec().channels.size()));
            f.nth = rng.next_in(1, 8);
            f.value = rng.next_u64();
            break;
        case FaultClass::kRestartGlitch:
            f.unit = rng.next_below(std::max<std::size_t>(
                1, spec().sbs.size()));
            f.nth = rng.next_in(1, 4);
            f.value = rng.next_in(1, 20) * 100;
            break;
    }
    return f;
}

FuzzCase Campaign::random_case(sim::Rng& rng) const {
    static constexpr unsigned kGrid[] = {50, 75, 100, 150, 200};
    FuzzCase c;
    c.delays = sys::DelayConfig::nominal(spec());
    for (std::size_t d = 0; d < c.delays.dimensions(); ++d) {
        c.delays.set(d, kGrid[rng.next_below(5)]);
    }
    // Clocks stay in the audited envelope: below 75% the bundling-constraint
    // checker (legitimately) trips, which is not the property under test.
    for (auto& pct : c.delays.clock_pct) pct = std::max(pct, 75u);

    if (!cfg_.classes.empty()) {
        const std::size_t n =
            1 + rng.next_below(std::max<std::size_t>(1, cfg_.max_faults));
        for (std::size_t i = 0; i < n; ++i) {
            c.faults.push_back(random_fault(rng));
        }
    }
    return c;
}

CampaignSummary Campaign::run(
    std::uint64_t n_runs, std::uint64_t seed,
    const std::function<void(std::size_t, const FuzzCase&,
                             const RunReport&)>& on_run,
    std::size_t jobs, const CampaignControl& ctl) const {
    ctl.shard.validate();

    // Draw every case up front from the single campaign PRNG: the sequence
    // of draws — and therefore every case — is independent of `jobs` AND of
    // the shard split (each shard replays the full draw sequence and keeps
    // only its indices; drawing is trivially cheap next to simulation).
    std::vector<FuzzCase> cases;       // this shard's cases
    std::vector<std::uint64_t> index;  // their global campaign indices
    cases.reserve(ctl.shard.size_of(n_runs));
    index.reserve(cases.capacity());
    sim::Rng rng(seed);
    for (std::uint64_t i = 0; i < n_runs; ++i) {
        FuzzCase c = random_case(rng);
        if (ctl.shard.selects(i)) {
            cases.push_back(std::move(c));
            index.push_back(i);
        }
    }

    const CampaignKey key =
        make_campaign_key(cfg_, seed, n_runs, ctl.shard);
    CampaignSummary s;
    std::uint64_t done = 0;  // shard-local completed prefix
    if (ctl.resume) {
        if (ctl.checkpoint_path.empty()) {
            throw std::invalid_argument(
                "Campaign: resume requires a checkpoint path");
        }
        CampaignProgress p = load_progress_file(ctl.checkpoint_path);
        if (!(p.key == key)) {
            throw snap::SnapshotError(
                "checkpoint '" + ctl.checkpoint_path +
                "' belongs to a different campaign (spec/seed/runs/"
                "config/shard mismatch)");
        }
        if (p.completed > cases.size()) {
            throw snap::SnapshotError(
                "checkpoint '" + ctl.checkpoint_path +
                "' claims more completed cases than the shard holds");
        }
        s = std::move(p.summary);
        done = p.completed;
    }

    // In-order reduction makes completed work a contiguous prefix of the
    // shard's sequence, so `stop_after` (the deterministic stand-in for a
    // mid-campaign kill) is a simple truncation and every checkpoint image
    // is {key, prefix length, partial summary}.
    std::uint64_t todo = cases.size() - done;
    if (ctl.stop_after != 0 && ctl.stop_after < todo) todo = ctl.stop_after;
    const bool checkpointing = !ctl.checkpoint_path.empty();
    const std::uint64_t every =
        ctl.checkpoint_every != 0 ? ctl.checkpoint_every : 1024;
    std::uint64_t since_image = 0;

    // Each work item rewinds its worker's lane (CaseRunner); the golden
    // index is shared read-only. Reduction runs on the calling thread in
    // strict case-index order, so counters, retained failures, the on_run
    // observation sequence and every checkpoint image are bit-identical
    // whatever `jobs` is.
    runner::sweep_ctx(
        static_cast<std::size_t>(todo), jobs,
        [this] { return CaseRunner(*this); },
        [&](CaseRunner& runner, std::size_t k) {
            return runner.run(cases[done + k]);
        },
        [&](std::size_t k, RunReport&& r) {
            const std::uint64_t gi = index[done + k];
            ++s.runs;
            ++s.by_outcome[static_cast<std::size_t>(r.outcome)];
            if (r.faults_fired > 0) ++s.runs_with_fault_fired;
            if (r.outcome != Outcome::kDeterministic) {
                s.add_failure(gi, cases[done + k], r);
            }
            if (on_run) {
                on_run(static_cast<std::size_t>(gi), cases[done + k], r);
            }
            if (checkpointing && (++since_image >= every || k + 1 == todo)) {
                save_progress_file(CampaignProgress{key, done + k + 1, s},
                                   ctl.checkpoint_path);
                since_image = 0;
            }
        });
    return s;
}

CampaignSummary merge_shards(const std::vector<CampaignSummary>& shards) {
    CampaignSummary out;
    std::uint64_t total_failures = 0;
    for (const CampaignSummary& s : shards) {
        out.runs += s.runs;
        for (std::size_t i = 0; i < kNumOutcomes; ++i) {
            out.by_outcome[i] += s.by_outcome[i];
        }
        out.runs_with_fault_fired += s.runs_with_fault_fired;
        total_failures += s.failures.size() + s.failures_dropped;
        out.failures.insert(out.failures.end(), s.failures.begin(),
                            s.failures.end());
    }
    // Re-create the single-process retention decision: order by global
    // index, keep the first kMaxFailures, count the rest as dropped. Sound
    // because each shard retains at least the failures a single process
    // would have (see merge_shards doc).
    std::sort(out.failures.begin(), out.failures.end(),
              [](const CampaignSummary::Failure& a,
                 const CampaignSummary::Failure& b) {
                  return a.index < b.index;
              });
    if (out.failures.size() > CampaignSummary::kMaxFailures) {
        out.failures.resize(CampaignSummary::kMaxFailures);
    }
    out.failures_dropped = total_failures - out.failures.size();
    return out;
}

}  // namespace st::fuzz
