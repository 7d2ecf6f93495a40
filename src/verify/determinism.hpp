#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/runner.hpp"
#include "verify/io_trace.hpp"
#include "verify/streaming.hpp"
#include "verify/trace_arena.hpp"

namespace st::verify {

/// Aggregate outcome of a determinism sweep.
struct SweepResult {
    /// One retained mismatch locus, tagged with the *global* perturbation
    /// index of the first run that produced it. Global indices make shard
    /// results mergeable: re-sorting by index and re-deduplicating replays
    /// the single-process retention decision exactly.
    struct Example {
        std::uint64_t index = 0;
        std::string locus;

        bool operator==(const Example&) const = default;
    };

    std::uint64_t runs = 0;
    std::uint64_t matches = 0;
    std::uint64_t mismatches = 0;
    /// Up to `kMaxExamples` *distinct* human-readable mismatch loci for
    /// diagnosis (a sweep often trips over the same locus thousands of
    /// times; repeating it tells the reader nothing new).
    std::vector<Example> examples;
    static constexpr std::size_t kMaxExamples = 8;

    /// Record a mismatch locus: deduplicated, bounded by kMaxExamples.
    void add_example(std::uint64_t index, const std::string& locus) {
        if (examples.size() >= kMaxExamples) return;
        for (const auto& e : examples) {
            if (e.locus == locus) return;
        }
        examples.push_back(Example{index, locus});
    }

    bool all_match() const { return mismatches == 0 && runs > 0; }

    bool operator==(const SweepResult&) const = default;
};

/// Merge N shard sweep results into the byte-identical single-process
/// result. Counters add; examples concatenate, sort by first-seen global
/// index, and re-deduplicate/re-cap — sound because a locus's globally
/// first occurrence lives in exactly one shard, which retained it unless
/// its own 8 distinct earlier loci are also globally earlier.
inline SweepResult merge_sweep_shards(const std::vector<SweepResult>& shards) {
    SweepResult out;
    std::vector<SweepResult::Example> all;
    for (const SweepResult& s : shards) {
        out.runs += s.runs;
        out.matches += s.matches;
        out.mismatches += s.mismatches;
        all.insert(all.end(), s.examples.begin(), s.examples.end());
    }
    std::sort(all.begin(), all.end(),
              [](const SweepResult::Example& a,
                 const SweepResult::Example& b) { return a.index < b.index; });
    for (const auto& e : all) out.add_example(e.index, e.locus);
    return out;
}

/// The paper's §5 experiment shape: simulate a system under its nominal
/// delay settings, then re-simulate under thousands of perturbed settings and
/// require every SB's cycle-indexed I/O sequence (first `n_cycles` local
/// cycles) to match the nominal sequence exactly.
///
/// The harness is generic in the perturbation type so it drives both the
/// synchro-tokens SoC (expected: all match) and the bypassed/synchronizer
/// baselines (expected: mismatches) with the same code.
///
/// The runner drives one simulation *through a RunCapture* the harness
/// provides (elaborate `sys::Soc(spec, &cap)` and run). An attached
/// StreamingChecker classifies each run online and delivers an O(#SBs)
/// verdict for deterministic runs. With early exit on (the default), the
/// run takes a cooperative scheduler stop at the first mismatching event,
/// or once every SB has sampled the window's last cycle `n_cycles - 1` —
/// so `Soc::run_cycles` returns false on either stop whenever the runner's
/// horizon lies past the window. `baseline::BaselineSoc` records without
/// TraceProbe and never ticks the window, so its runs stop only on
/// divergence.
template <typename Perturbation>
class DeterminismHarness {
  public:
    using LiveRunner =
        std::function<void(const Perturbation&, RunCapture&)>;

    DeterminismHarness(LiveRunner runner, Perturbation nominal,
                       std::uint64_t n_cycles)
        : runner_(std::move(runner)),
          nominal_cfg_(std::move(nominal)),
          n_cycles_(n_cycles) {}

    /// Disable both cooperative stops while keeping the online check: every
    /// run, the nominal one included, simulates to the runner's horizon. No
    /// result changes either way, which is what the tests and benches that
    /// turn it off compare.
    void set_early_exit(bool on) { early_exit_ = on; }

    /// Run the nominal configuration and capture the golden traces. The
    /// run has no checker; with early exit on, its capture's window stops
    /// it once every SB has left the comparison window, since the golden
    /// keeps only that window.
    void capture_nominal() {
        RunCapture cap;
        if (early_exit_) cap.set_window(n_cycles_);
        runner_(nominal_cfg_, cap);
        golden_ = truncated(cap.traces(), n_cycles_);
        golden_index_ = GoldenIndex(golden_, n_cycles_);
        golden_captured_ = true;
    }

    const TraceSet& golden() const { return golden_; }
    const GoldenIndex& golden_index() const { return golden_index_; }

    /// Run one perturbation and compare against the golden traces.
    /// capture_nominal() is called lazily on first use.
    TraceDiff check(const Perturbation& p) {
        if (!golden_captured_) capture_nominal();
        return run_one(p);
    }

    /// Run a full sweep, executing up to `jobs` perturbations concurrently
    /// on the st::runner engine (`jobs == 1`, the default, is the plain
    /// serial path; `jobs == 0` means all hardware threads). A non-default
    /// `shard` runs only that 1-of-N slice of the perturbation indices;
    /// shard results merge back with merge_sweep_shards.
    ///
    /// The golden traces are captured once, up front, on the calling thread
    /// and then shared read-only; each perturbation runs its own private
    /// simulation, which must therefore be safe to invoke concurrently
    /// (true of the standard "elaborate a fresh Soc from a shared spec"
    /// runners). Each engine worker thread gets one reusable context — a
    /// RunCapture over its own thread-local arena plus an attached
    /// StreamingChecker — recycled across every perturbation it runs.
    /// Results reduce in perturbation order, so the SweepResult — counts
    /// and retained examples — is bit-identical for every `jobs` value,
    /// every shard split, and with early exit on or off.
    SweepResult sweep(const std::vector<Perturbation>& perturbations,
                      std::size_t jobs = 1,
                      st::runner::Shard shard = {}) {
        shard.validate();
        if (!golden_captured_) capture_nominal();
        std::vector<std::uint64_t> index;  // shard-local -> global
        index.reserve(shard.size_of(perturbations.size()));
        for (std::uint64_t i = 0; i < perturbations.size(); ++i) {
            if (shard.selects(i)) index.push_back(i);
        }
        SweepResult r;
        const auto reduce_one = [&](std::size_t k, TraceDiff&& d) {
            ++r.runs;
            if (d.identical) {
                ++r.matches;
            } else {
                ++r.mismatches;
                r.add_example(index[k], d.first_mismatch);
            }
        };
        st::runner::sweep_ctx(
            index.size(), jobs, [this] { return SweepContext(*this); },
            [&](SweepContext& ctx, std::size_t k) {
                return run_one(perturbations[index[k]], ctx);
            },
            reduce_one);
        return r;
    }

  private:
    /// Per-worker reusable state: the capture (pinning the worker's trace
    /// arena) and a checker attached once and reset per run by
    /// RunCapture::begin_run.
    struct SweepContext {
        explicit SweepContext(const DeterminismHarness& h)
            : checker(h.golden_index_,
                      StreamingOptions{.early_exit = h.early_exit_}) {
            checker.attach(cap);
        }
        SweepContext(const SweepContext&) = delete;
        SweepContext& operator=(const SweepContext&) = delete;

        RunCapture cap;
        StreamingChecker checker;
    };

    TraceDiff run_one(const Perturbation& p, SweepContext& ctx) const {
        ctx.cap.begin_run();
        runner_(p, ctx.cap);
        return ctx.checker.finish();
    }

    TraceDiff run_one(const Perturbation& p) const {
        SweepContext ctx(*this);
        return run_one(p, ctx);
    }

    LiveRunner runner_;
    Perturbation nominal_cfg_;
    std::uint64_t n_cycles_;
    bool early_exit_ = true;
    TraceSet golden_;
    GoldenIndex golden_index_;
    bool golden_captured_ = false;
};

}  // namespace st::verify
