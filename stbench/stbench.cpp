// stbench: the repository benchmark program (stbench/README.md).
//
// Runs one workload for a wall-clock budget and prints, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
//
//   --trace 0  end-to-end metrics. Cases run only through the engine entry
//              points (fuzz::Campaign::run with a default CampaignControl,
//              DeterminismHarness::sweep on a streaming LiveRunner); no spans.
//   --trace 1  per-layer metrics. The engine runs as above, then every case
//              of each batch is replayed one at a time through the same public
//              calls the engine makes, in the same order, with one span per
//              call; each replayed verdict must equal the engine's.
//
//   $ stbench --workload pair-faults-warm --seed 1 --seconds 10 --trace 0
//   $ stbench --workload mesh64-sweep --seed 7919 --record-reference
//
// Exit status: 0 correct, 1 a verdict or determinism check failed, 2 usage.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/case_exec.hpp"
#include "fuzz/injector.hpp"
#include "gang/lane.hpp"
#include "gang/program.hpp"
#include "lint/lint.hpp"
#include "sim/random.hpp"
#include "sva/spec_text.hpp"
#include "sva/verify.hpp"
#include "system/delay_config.hpp"
#include "system/invariant_monitor.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"
#include "verify/determinism.hpp"

#ifndef STBENCH_BUILD_TYPE
#define STBENCH_BUILD_TYPE "unknown"
#endif
#ifndef STBENCH_COMPILER
#define STBENCH_COMPILER "unknown"
#endif

namespace {

using namespace st;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// --- spans ------------------------------------------------------------------

/// One timed call into a layer: name, start, end, the span that caused it,
/// and the case it belongs to.
struct Span {
    const char* name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;
    std::uint64_t case_id = 0;
};

/// In-memory span recorder. `span(name, f)` runs `f` as a child of the span
/// currently open and returns what `f` returns.
class Tracer {
  public:
    Tracer() { spans_.reserve(1 << 16); }

    void set_case(std::uint64_t id) { case_ = id; }

    template <typename F>
    decltype(auto) span(const char* name, F&& f) {
        struct Closer {
            Tracer* t;
            std::int32_t i;
            ~Closer() { t->close(i); }
        } closer{this, open(name)};
        return f();
    }

    const std::vector<Span>& spans() const { return spans_; }
    /// Index of the span closed most recently.
    std::int32_t last_closed() const { return last_closed_; }
    std::int64_t duration(std::int32_t i) const {
        return spans_[i].end - spans_[i].start;
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover.
    std::map<std::string, std::vector<double>> self_ns() const {
        std::vector<std::int64_t> child(spans_.size(), 0);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].parent >= 0) {
                child[spans_[i].parent] += duration(static_cast<std::int32_t>(i));
            }
        }
        std::map<std::string, std::vector<double>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            out[spans_[i].name].push_back(static_cast<double>(
                duration(static_cast<std::int32_t>(i)) - child[i]));
        }
        return out;
    }

    /// CSV: name,start_ns,end_ns,parent,case (times relative to `t0`).
    void write_csv(const std::string& path, std::int64_t t0) const {
        std::ofstream os(path, std::ios::binary);
        os << "name,start_ns,end_ns,parent,case\n";
        for (const Span& s : spans_) {
            os << s.name << ',' << (s.start - t0) << ',' << (s.end - t0) << ','
               << s.parent << ',' << s.case_id << '\n';
        }
        if (!os) throw std::runtime_error("cannot write spans to " + path);
    }

  private:
    std::int32_t open(const char* name) {
        const auto i = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(Span{name, 0, 0, current_, case_});
        current_ = i;
        spans_.back().start = now_ns();
        return i;
    }
    void close(std::int32_t i) {
        spans_[i].end = now_ns();
        current_ = spans_[i].parent;
        last_closed_ = i;
    }

    std::vector<Span> spans_;
    std::int32_t current_ = -1;
    std::int32_t last_closed_ = -1;
    std::uint64_t case_ = 0;
};

/// Exact simulation counts accumulated over traced cases.
struct SimCounters {
    std::uint64_t cases = 0;
    std::uint64_t events = 0;     ///< Scheduler::events_executed() in sim.run
    std::uint64_t sb_cycles = 0;  ///< local cycles advanced, summed over SBs
    std::uint64_t captured = 0;   ///< RunCapture::events_captured() at the end
    std::int64_t run_ns = 0;
    std::vector<double> run_ns_by_outcome[fuzz::kNumOutcomes];
};

std::uint64_t total_sb_cycles(sys::Soc& soc) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
        n += soc.wrapper(i).clock().cycles();
    }
    return n;
}

// --- workloads --------------------------------------------------------------

/// One closed-loop batch executed by the engine.
struct BatchRun {
    std::uint64_t cases = 0;
    double seconds = 0;
    /// Outcome histogram (campaigns: fuzz::Outcome order; sweeps: match,
    /// mismatch) and FNV-1a digest of the per-case outcome sequence.
    std::uint64_t hist[fuzz::kNumOutcomes] = {};
    std::uint64_t digest = verify::kFnvOffset;
    /// Per-case outcome codes in case order (campaigns only).
    std::vector<std::uint8_t> outcomes;
    /// Cases whose verdict breaks the workload's own rule.
    std::uint64_t wrong = 0;
    std::variant<fuzz::CampaignSummary, verify::SweepResult> summary;
};

/// Cases of `b` that disagree with `a` (same inputs, other jobs value).
std::uint64_t disagreement(const BatchRun& a, const BatchRun& b) {
    if (a.summary == b.summary && a.digest == b.digest) return 0;
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < std::min(a.outcomes.size(), b.outcomes.size());
         ++i) {
        n += a.outcomes[i] != b.outcomes[i];
    }
    return std::clamp<std::uint64_t>(n, 1, std::max<std::uint64_t>(1, b.cases));
}

class Workload {
  public:
    virtual ~Workload() = default;

    /// Timed set-ups per engine round (setup_s is the median of all).
    virtual std::size_t setup_reps() const = 0;

    /// Everything from the spec (or generator options) to the first case
    /// ready. False when a set-up check (lint, verify) fails.
    virtual bool setup() = 0;
    /// Drop what setup() built, so the next setup() pays the full cost.
    virtual void teardown() = 0;

    /// One batch through the engine entry point. With `keep` the per-case
    /// verdicts are retained for the traced replay to compare against.
    virtual BatchRun run_batch(std::uint64_t seed, std::size_t jobs,
                               bool keep) = 0;

    /// The public calls setup() makes, one span each. False when the
    /// result differs from the engine's own set-up.
    virtual bool traced_setup(Tracer& tr) = 0;
    /// Replay every case of batch `seed` one at a time under a "case" span.
    /// Returns the number of cases whose verdict differs from the engine's
    /// (from the last run_batch with `keep`).
    virtual std::uint64_t traced_replay(Tracer& tr, std::uint64_t seed,
                                        SimCounters& sc) = 0;
    /// Time gang::Lane::rewind on the same cases (ROADMAP item 1 compares it
    /// against elaboration); each rewind follows a run of the case.
    virtual void rewind_probe(Tracer& tr, std::uint64_t seed) = 0;
    /// Bytes of the image every case starts from.
    virtual std::uint64_t image_bytes() const = 0;
};

class CampaignWorkload final : public Workload {
  public:
    CampaignWorkload(fuzz::CampaignConfig cfg, std::size_t batch,
                     std::size_t reps, bool all_deterministic)
        : cfg_(std::move(cfg)),
          batch_(batch),
          reps_(reps),
          all_deterministic_(all_deterministic) {}

    std::size_t setup_reps() const override { return reps_; }

    bool setup() override {
        campaign_ = std::make_unique<fuzz::Campaign>(cfg_);
        return true;
    }
    void teardown() override { campaign_.reset(); }

    BatchRun run_batch(std::uint64_t seed, std::size_t jobs,
                       bool keep) override {
        BatchRun b;
        b.outcomes.resize(batch_);
        if (keep) reports_.assign(batch_, fuzz::RunReport{});
        const std::int64_t t0 = now_ns();
        fuzz::CampaignSummary s = campaign_->run(
            batch_, seed,
            [&](std::size_t i, const fuzz::FuzzCase&,
                const fuzz::RunReport& r) {
                b.outcomes[i] = static_cast<std::uint8_t>(r.outcome);
                if (keep) reports_[i] = r;
            },
            jobs);
        b.seconds = seconds_since(t0);
        b.cases = s.runs;
        for (std::size_t k = 0; k < fuzz::kNumOutcomes; ++k) {
            b.hist[k] = s.by_outcome[k];
        }
        b.digest = snap::fnv1a(b.outcomes.data(), b.outcomes.size());
        if (all_deterministic_) {
            b.wrong = s.runs - s.by_outcome[0];
        }
        b.summary = std::move(s);
        return b;
    }

    bool traced_setup(Tracer& tr) override {
        teardown();
        std::shared_ptr<const gang::Program> prog;
        verify::TraceSet golden;
        snap::Snapshot prefix;
        tr.span("setup", [&] {
            auto spec = tr.span("system.spec", [&] {
                return std::make_shared<const sys::SocSpec>(
                    sys::make_named_spec(cfg_.spec_name));
            });
            prog = tr.span("gang.program",
                           [&] { return gang::Program::get(std::move(spec)); });
            const sim::Time deadline = fuzz::case_deadline(
                fuzz::max_effective_period(prog->spec()), cfg_.cycles);
            tr.span("verify.golden", [&] {
                sys::Soc soc(prog->spec_ptr());
                bool budget = false;
                fuzz::run_bounded(soc, cfg_.cycles, deadline, cfg_.max_events,
                                  budget);
                golden = verify::truncated(soc.traces(), cfg_.cycles);
                verify::GoldenIndex index(golden, cfg_.cycles);
            });
            if (cfg_.warmup_cycles > 0) {
                tr.span("snap.prefix", [&] {
                    sys::Soc warm(prog->spec_ptr());
                    bool budget = false;
                    fuzz::run_bounded(warm, cfg_.warmup_cycles, deadline,
                                      cfg_.max_events, budget);
                    warm.settle();
                    prefix = warm.save_snapshot();
                    snap::RewindPlan plan(prefix.bytes());
                });
            }
        });
        prog.reset();
        setup();
        return golden == campaign_->golden() &&
               prefix == campaign_->warmup_prefix();
    }

    std::uint64_t traced_replay(Tracer& tr, std::uint64_t seed,
                                SimCounters& sc) override {
        const std::vector<fuzz::FuzzCase> cases = draw(seed);
        // One capture and one attached checker for the whole replay, as a
        // fuzz::CaseRunner keeps per worker.
        verify::RunCapture cap;
        verify::StreamingChecker checker(campaign_->golden_index());
        checker.attach(cap);
        std::uint64_t wrong = 0;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            tr.set_case(i);
            const fuzz::RunReport r = tr.span(
                "case", [&] { return replay(tr, cases[i], cap, checker, sc); });
            if (i >= reports_.size() || !(r == reports_[i])) ++wrong;
        }
        return wrong;
    }

    void rewind_probe(Tracer& tr, std::uint64_t seed) override {
        const std::vector<fuzz::FuzzCase> cases = draw(seed);
        gang::Lane lane(campaign_->program(),
                        {.golden = &campaign_->golden_index(), .monitor = true});
        const bool warm = cfg_.warmup_cycles > 0;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            tr.set_case(i);
            tr.span("probe", [&] {
                tr.span("gang.rewind", [&] {
                    if (warm) {
                        lane.rewind(campaign_->warmup_prefix(),
                                    campaign_->warmup_prefix_plan());
                    } else {
                        lane.rewind();
                    }
                });
                tr.span("probe.run", [&] {
                    sys::apply_live(lane.soc(), cases[i].delays);
                    const sim::Time deadline = fuzz::case_deadline(
                        fuzz::perturbed_max_effective_period(
                            campaign_->spec(), cases[i].delays),
                        cfg_.cycles);
                    bool budget = false;
                    fuzz::run_bounded(lane.soc(), cfg_.cycles, deadline,
                                      cfg_.max_events, budget);
                });
            });
        }
    }

    std::uint64_t image_bytes() const override {
        return cfg_.warmup_cycles > 0
                   ? campaign_->warmup_prefix().bytes().size()
                   : campaign_->program()->pristine().bytes().size();
    }

  private:
    /// The batch's cases, drawn exactly as Campaign::run draws them.
    std::vector<fuzz::FuzzCase> draw(std::uint64_t seed) const {
        std::vector<fuzz::FuzzCase> cases;
        cases.reserve(batch_);
        sim::Rng rng(seed);
        for (std::size_t i = 0; i < batch_; ++i) {
            cases.push_back(campaign_->random_case(rng));
        }
        return cases;
    }

    /// fuzz::CaseRunner::run, call for call, one span per layer.
    fuzz::RunReport replay(Tracer& tr, const fuzz::FuzzCase& c,
                           verify::RunCapture& cap,
                           verify::StreamingChecker& checker,
                           SimCounters& sc) const {
        const fuzz::Campaign& campaign = *campaign_;
        auto perturbed = tr.span("system.apply", [&] {
            return std::make_shared<const sys::SocSpec>(
                sys::apply(campaign.spec(), c.delays));
        });
        const sim::Time deadline = fuzz::case_deadline(
            fuzz::max_effective_period(*perturbed), cfg_.cycles);
        checker.set_early_exit(cfg_.classes.empty() && c.faults.empty());

        std::unique_ptr<sys::Soc> soc;
        std::unique_ptr<fuzz::Injector> injector;
        std::unique_ptr<sys::InvariantMonitor> monitor;
        if (cfg_.warmup_cycles == 0) {
            soc = tr.span("system.elaborate", [&] {
                return std::make_unique<sys::Soc>(std::move(perturbed), &cap);
            });
        } else {
            soc = tr.span("system.elaborate", [&] {
                return std::make_unique<sys::Soc>(
                    campaign.program()->spec_ptr(), &cap);
            });
            tr.span("snap.restore", [&] {
                soc->restore_snapshot(campaign.warmup_prefix(),
                                      campaign.warmup_prefix_plan());
            });
        }
        injector = tr.span("fuzz.inject", [&] {
            return std::make_unique<fuzz::Injector>(*soc, c.faults);
        });
        monitor = tr.span("fuzz.monitor", [&] {
            return std::make_unique<sys::InvariantMonitor>(*soc);
        });
        if (cfg_.warmup_cycles > 0) {
            tr.span("system.apply_live",
                    [&] { sys::apply_live(*soc, c.delays); });
        }

        const std::uint64_t events0 = soc->scheduler().events_executed();
        const std::uint64_t cycles0 = total_sb_cycles(*soc);
        bool budget_expired = false;
        const bool goal = tr.span("sim.run", [&] {
            return fuzz::run_bounded(*soc, cfg_.cycles, deadline,
                                     cfg_.max_events, budget_expired);
        });
        const std::int64_t run_ns = tr.duration(tr.last_closed());
        sc.events += soc->scheduler().events_executed() - events0;
        sc.sb_cycles += total_sb_cycles(*soc) - cycles0;
        sc.captured += cap.events_captured();
        sc.run_ns += run_ns;
        ++sc.cases;

        // classify_case calls finish() itself; this extra call (const, no
        // side effects) times the verdict on its own.
        tr.span("verify.finish", [&] { return checker.finish(); });
        fuzz::RunReport r = tr.span("fuzz.classify", [&] {
            return fuzz::classify_case(*soc, injector->fired(), goal,
                                       budget_expired, monitor->violations(),
                                       nullptr, &checker,
                                       campaign.golden_index(), cap);
        });
        sc.run_ns_by_outcome[static_cast<std::size_t>(r.outcome)].push_back(
            static_cast<double>(run_ns));
        tr.span("system.teardown", [&] {
            monitor.reset();
            injector.reset();
            soc.reset();
        });
        return r;
    }

    fuzz::CampaignConfig cfg_;
    std::size_t batch_;
    std::size_t reps_;
    bool all_deterministic_;
    std::unique_ptr<fuzz::Campaign> campaign_;
    std::vector<fuzz::RunReport> reports_;
};

/// st_topo's pipeline on a generated mesh: lint, verify, golden capture, then
/// a streaming DeterminismHarness sweep through the LiveRunner shape.
class SweepWorkload final : public Workload {
  public:
    using Harness = verify::DeterminismHarness<sys::DelayConfig>;

    SweepWorkload(topo::Options gen, std::uint64_t cycles, std::size_t batch,
                  std::size_t reps)
        : gen_(gen), cycles_(cycles), batch_(batch), reps_(reps) {}

    std::size_t setup_reps() const override { return reps_; }

    bool setup() override {
        teardown();
        spec_ = std::make_unique<const sys::SocSpec>(
            sva::to_spec(topo::generate(gen_)));
        const bool lint_ok = lint::lint(*spec_).ok();
        const bool verify_ok = sva::verify(*spec_).clean();
        harness_ = std::make_unique<Harness>(
            Harness::LiveRunner(live(*spec_)),
            sys::DelayConfig::nominal(*spec_), cycles_);
        harness_->capture_nominal();
        return lint_ok && verify_ok;
    }
    void teardown() override {
        harness_.reset();
        spec_.reset();
    }

    BatchRun run_batch(std::uint64_t seed, std::size_t jobs,
                       bool keep) override {
        const std::vector<sys::DelayConfig> ps = draw(seed);
        BatchRun b;
        const std::int64_t t0 = now_ns();
        verify::SweepResult r = harness_->sweep(ps, jobs);
        b.seconds = seconds_since(t0);
        b.cases = r.runs;
        b.hist[0] = r.matches;
        b.hist[1] = r.mismatches;
        b.digest = verify::fnv1a_u64(verify::fnv1a_u64(b.digest, r.matches),
                                     r.mismatches);
        for (const auto& e : r.examples) {
            b.digest = verify::fnv1a_u64(b.digest, e.index);
        }
        b.wrong = r.mismatches;
        if (keep) engine_ = r;
        b.summary = std::move(r);
        return b;
    }

    bool traced_setup(Tracer& tr) override {
        teardown();
        std::unique_ptr<const sys::SocSpec> spec;
        std::unique_ptr<Harness> harness;
        bool ok = true;
        tr.span("setup", [&] {
            sva::SpecDoc doc =
                tr.span("topo.generate", [&] { return topo::generate(gen_); });
            spec = tr.span("sva.to_spec", [&] {
                return std::make_unique<const sys::SocSpec>(sva::to_spec(doc));
            });
            ok &= tr.span("lint.lint", [&] { return lint::lint(*spec).ok(); });
            ok &= tr.span("sva.verify",
                          [&] { return sva::verify(*spec).clean(); });
            harness = std::make_unique<Harness>(
                Harness::LiveRunner(live(*spec)),
                sys::DelayConfig::nominal(*spec), cycles_);
            tr.span("verify.golden", [&] { harness->capture_nominal(); });
        });
        // The sweep never builds a gang::Program; elaborate one on its own
        // so ROADMAP item 1 can weigh it against per-case elaboration.
        tr.span("probe", [&] {
            tr.span("gang.program",
                    [&] { return gang::Program::get(*spec); });
        });
        ok &= setup();
        return ok && harness->golden() == harness_->golden();
    }

    std::uint64_t traced_replay(Tracer& tr, std::uint64_t seed,
                                SimCounters& sc) override {
        const std::vector<sys::DelayConfig> ps = draw(seed);
        // The harness's per-worker SweepContext: one capture, one attached
        // early-exit checker.
        verify::RunCapture cap;
        verify::StreamingChecker checker(harness_->golden_index(),
                                         {.early_exit = true});
        checker.attach(cap);
        verify::SweepResult r;
        std::uint64_t wrong = 0;
        for (std::size_t i = 0; i < ps.size(); ++i) {
            tr.set_case(i);
            const verify::TraceDiff d = tr.span("case", [&] {
                cap.begin_run();
                // The LiveRunner body, then run_one's checker->finish().
                const sys::SocSpec perturbed = tr.span(
                    "system.apply", [&] { return sys::apply(*spec_, ps[i]); });
                auto soc = tr.span("system.elaborate", [&] {
                    return std::make_unique<sys::Soc>(perturbed, &cap);
                });
                const std::uint64_t events0 =
                    soc->scheduler().events_executed();
                const std::uint64_t cycles0 = total_sb_cycles(*soc);
                tr.span("sim.run", [&] {
                    return soc->run_cycles(horizon(), sim::ms(2000));
                });
                sc.run_ns += tr.duration(tr.last_closed());
                sc.events += soc->scheduler().events_executed() - events0;
                sc.sb_cycles += total_sb_cycles(*soc) - cycles0;
                sc.captured += cap.events_captured();
                ++sc.cases;
                tr.span("system.teardown", [&] { soc.reset(); });
                return tr.span("verify.finish",
                               [&] { return checker.finish(); });
            });
            // DeterminismHarness::sweep's reduction, per case.
            ++r.runs;
            if (d.identical) {
                ++r.matches;
            } else {
                ++r.mismatches;
                ++wrong;
                r.add_example(i, d.first_mismatch);
            }
        }
        if (!(r == engine_)) wrong = std::max<std::uint64_t>(wrong, 1);
        return wrong;
    }

    void rewind_probe(Tracer& tr, std::uint64_t seed) override {
        const std::vector<sys::DelayConfig> ps = draw(seed);
        // A program held past this probe would turn the next traced
        // set-up's gang.program into a registry hit.
        gang::Lane lane(gang::Program::get(*spec_),
                        {.golden = &harness_->golden_index()});
        image_bytes_ = lane.pristine().bytes().size();
        for (std::size_t i = 0; i < ps.size(); ++i) {
            tr.set_case(i);
            tr.span("probe", [&] {
                tr.span("gang.rewind", [&] { lane.rewind(); });
                tr.span("probe.run", [&] {
                    sys::apply_live(lane.soc(), ps[i]);
                    return lane.soc().run_cycles(horizon(), sim::ms(2000));
                });
            });
        }
    }

    std::uint64_t image_bytes() const override { return image_bytes_; }

  private:
    std::uint64_t horizon() const { return cycles_ + 40; }

    /// st_topo's LiveRunner: elaborate the perturbed spec, run past the
    /// golden horizon.
    Harness::LiveRunner live(const sys::SocSpec& spec) const {
        const std::uint64_t h = horizon();
        return [&spec, h](const sys::DelayConfig& cfg, verify::RunCapture& cap) {
            sys::Soc soc(sys::apply(spec, cfg), &cap);
            soc.run_cycles(h, sim::ms(2000));
        };
    }

    /// Paper-style joint perturbation (st_topo --sweep): every FIFO and ring
    /// delay from {50, 75, 150, 200}% of nominal, clocks clamped to >= 75%.
    std::vector<sys::DelayConfig> draw(std::uint64_t seed) const {
        static constexpr unsigned kPct[4] = {50, 75, 150, 200};
        std::vector<sys::DelayConfig> ps;
        sim::Rng rng(seed);
        const sys::DelayConfig nominal = sys::DelayConfig::nominal(*spec_);
        const std::size_t first_clock =
            nominal.dimensions() - nominal.clock_pct.size();
        for (std::size_t i = 0; i < batch_; ++i) {
            sys::DelayConfig cfg = nominal;
            for (std::size_t d = 0; d < cfg.dimensions(); ++d) {
                const unsigned pct = kPct[rng.next_below(4)];
                cfg.set(d, d >= first_clock ? std::max(75u, pct) : pct);
            }
            ps.push_back(std::move(cfg));
        }
        return ps;
    }

    topo::Options gen_;
    std::uint64_t cycles_;
    std::size_t batch_;
    std::size_t reps_;
    std::unique_ptr<const sys::SocSpec> spec_;
    std::unique_ptr<Harness> harness_;
    std::uint64_t image_bytes_ = 0;
    verify::SweepResult engine_;
};

/// Batch sizes make one jobs-1 batch take ~0.1-0.4 s, so a run holds enough
/// batches for its percentiles (run_end_to_end); the mesh batch still gives
/// each of the four jobs-4 workers eight cases. The last argument is the
/// number of set-ups timed per round. Changing a batch size changes batch 0,
/// so references.txt must be re-recorded.
std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "paper-triangle") {
        fuzz::CampaignConfig cfg;
        cfg.spec_name = "triangle";
        cfg.cycles = 100;
        return std::make_unique<CampaignWorkload>(cfg, 500, 8, true);
    }
    if (name == "pair-faults-warm") {
        fuzz::CampaignConfig cfg;
        cfg.spec_name = "pair";
        cfg.cycles = 100;
        cfg.classes = fuzz::all_fault_classes();
        cfg.max_faults = 2;
        cfg.warmup_cycles = 60;
        return std::make_unique<CampaignWorkload>(cfg, 2000, 8, false);
    }
    if (name == "mesh64-sweep") {
        topo::Options gen;
        gen.shape = topo::Shape::kMesh;
        gen.sbs = 64;
        gen.seed = 7;
        return std::make_unique<SweepWorkload>(gen, 90, 32, 1);
    }
    return nullptr;
}

/// Per-seed references for batch 0: "workload seed cases h0 h1 h2 h3 digest".
struct Reference {
    std::uint64_t cases = 0;
    std::uint64_t hist[fuzz::kNumOutcomes] = {};
    std::uint64_t digest = 0;
};

std::optional<Reference> load_reference(const std::string& path,
                                        const std::string& workload,
                                        std::uint64_t seed) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("cannot read references " + path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string name;
        std::uint64_t s = 0;
        Reference r;
        ls >> name >> s >> r.cases;
        for (auto& h : r.hist) ls >> h;
        ls >> std::hex >> r.digest;
        if (ls && name == workload && s == seed) return r;
    }
    return std::nullopt;
}

std::string reference_line(const std::string& workload, std::uint64_t seed,
                           const BatchRun& b) {
    std::ostringstream os;
    os << workload << ' ' << seed << ' ' << b.cases;
    for (const auto h : b.hist) os << ' ' << h;
    os << " 0x" << std::hex << b.digest;
    return os.str();
}

/// Seed of batch `b` of a run seeded `seed`.
std::uint64_t batch_seed(std::uint64_t seed, std::uint64_t b) {
    sim::Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (b + 1)));
    return rng.next_u64();
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string json_number(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

/// Outcome of one run: what was attempted, what failed, and why.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void fail(std::uint64_t cases, const std::string& why) {
        failed += cases;
        problems.push_back(why);
    }
};

/// One engine round: batch `b` at jobs 1, then the same inputs at jobs 4.
/// Checks the workload's verdict rule, jobs-1 == jobs-4 bit for bit, and on
/// batch 0 the recorded reference for the seed.
std::pair<BatchRun, BatchRun> engine_round(
    Workload& w, const std::string& name, std::uint64_t seed, std::uint64_t b,
    bool keep, const std::optional<Reference>& ref, Tally& t) {
    const std::uint64_t bs = batch_seed(seed, b);
    BatchRun j1 = w.run_batch(bs, 1, keep);
    BatchRun j4 = w.run_batch(bs, 4, false);
    t.attempted += j1.cases + j4.cases;
    if (j1.wrong > 0) {
        t.fail(j1.wrong, "batch " + std::to_string(b) + ": " +
                             std::to_string(j1.wrong) +
                             " wrong verdict(s) at jobs 1");
    }
    const std::uint64_t split = disagreement(j1, j4);
    const std::uint64_t j4_wrong = std::min(j4.cases, j4.wrong + split);
    if (j4_wrong > 0) {
        t.fail(j4_wrong, "batch " + std::to_string(b) +
                             ": jobs-4 summary differs from jobs 1 or holds "
                             "wrong verdicts");
    }
    if (b == 0 && ref) {
        bool same = ref->cases == j1.cases && ref->digest == j1.digest;
        for (std::size_t k = 0; k < fuzz::kNumOutcomes; ++k) {
            same &= ref->hist[k] == j1.hist[k];
        }
        if (!same) {
            // Every jobs-1 case of the batch is now suspect; those already
            // counted as wrong above are not counted twice.
            t.fail(j1.cases - j1.wrong,
                   "batch 0 does not reproduce the reference: " +
                       reference_line(name, seed, j1));
        }
    }
    return {std::move(j1), std::move(j4)};
}

/// This process's resident-set high-water mark. VmHWM, not getrusage's
/// ru_maxrss: Linux carries the launcher's peak across exec into the
/// latter, so it would report the Python parent's footprint.
double peak_rss_mb() {
    std::ifstream is("/proc/self/status");
    std::string key;
    while (is >> key) {
        if (key == "VmHWM:") {
            double kb = 0;
            is >> kb;
            return kb / 1024.0;
        }
        is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Per-layer metric table: span name -> reported name and unit.
struct LayerSpec {
    const char* span;
    const char* metric;
    double ns_per_unit;
    const char* unit;
};

constexpr LayerSpec kLayers[] = {
    {"topo.generate", "topo.generate_ms", 1e6, "ms"},
    {"lint.lint", "lint.lint_ms", 1e6, "ms"},
    {"sva.verify", "sva.verify_ms", 1e6, "ms"},
    {"gang.program", "gang.program_ms", 1e6, "ms"},
    {"verify.golden", "verify.golden_ms", 1e6, "ms"},
    {"snap.prefix", "snap.prefix_ms", 1e6, "ms"},
    {"system.apply", "system.apply_us", 1e3, "us"},
    {"system.elaborate", "system.elaborate_us", 1e3, "us"},
    {"gang.rewind", "gang.rewind_us", 1e3, "us"},
    {"snap.restore", "snap.restore_us", 1e3, "us"},
    {"system.apply_live", "system.apply_live_us", 1e3, "us"},
    {"fuzz.inject", "fuzz.inject_us", 1e3, "us"},
    {"fuzz.monitor", "fuzz.monitor_us", 1e3, "us"},
    {"sim.run", "sim.run_us", 1e3, "us"},
    {"verify.finish", "verify.finish_us", 1e3, "us"},
    {"fuzz.classify", "fuzz.classify_us", 1e3, "us"},
    {"system.teardown", "system.teardown_us", 1e3, "us"},
};

void add_timing(std::vector<Metric>& out, const std::string& metric,
                const std::vector<double>& ns, double ns_per_unit,
                const std::string& unit) {
    out.push_back({metric + ".p50", median(ns) / ns_per_unit, unit});
    out.push_back({metric + ".p99", percentile(ns, 99) / ns_per_unit, unit});
    out.push_back({metric + ".n", static_cast<double>(ns.size()), "count"});
}

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                t.failed == 0 && t.problems.empty() ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    json_number(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string refs;
    std::string spans;
    bool record_reference = false;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "stbench: %s\n"
                 "usage: stbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1]\n"
                 "               [--refs FILE] [--spans FILE] "
                 "[--record-reference]\n"
                 "workloads: paper-triangle pair-faults-warm mesh64-sweep\n",
                 why);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                a.workload = next();
            } else if (arg == "--seed") {
                a.seed = std::stoull(next());
            } else if (arg == "--seconds") {
                a.seconds = std::stod(next());
            } else if (arg == "--trace") {
                a.trace = std::stoi(next()) != 0;
            } else if (arg == "--refs") {
                a.refs = next();
            } else if (arg == "--spans") {
                a.spans = next();
            } else if (arg == "--record-reference") {
                a.record_reference = true;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (a.seconds <= 0) usage("--seconds must be positive");
    return a;
}

/// --trace 0: engine rounds until the budget is spent, each opening with
/// setup_reps() timed set-ups (spread over the run, so one burst of host
/// noise cannot shift the whole set-up sample). Round 0 warms caches; its
/// batch is checked but not timed.
std::vector<Metric> run_end_to_end(Workload& w, const Args& a,
                                   const std::optional<Reference>& ref,
                                   std::int64_t t_start, Tally& t) {
    std::vector<double> setup_s, j1, j4;
    for (std::uint64_t b = 0;; ++b) {
        for (std::size_t r = 0; r < w.setup_reps(); ++r) {
            w.teardown();
            const std::int64_t t0 = now_ns();
            const bool ok = w.setup();
            setup_s.push_back(seconds_since(t0));
            if (!ok) t.fail(0, "set-up checks (lint/verify) failed");
        }
        const auto [r1, r4] =
            engine_round(w, a.workload, a.seed, b, false, ref, t);
        if (b > 0) {
            j1.push_back(static_cast<double>(r1.cases) / r1.seconds);
            j4.push_back(static_cast<double>(r4.cases) / r4.seconds);
        }
        if (b >= 3 && seconds_since(t_start) >= a.seconds) break;
    }
    for (const auto& [name, v] : {std::pair{"runs_per_s_j1", &j1},
                                  std::pair{"runs_per_s_j4", &j4},
                                  std::pair{"setup_s", &setup_s}}) {
        std::printf("  %-34s %zu samples, p10 %.6g, p25 %.6g, median %.6g, "
                    "p75 %.6g, p90 %.6g\n",
                    name, v->size(), percentile(*v, 10), percentile(*v, 25),
                    median(*v), percentile(*v, 75), percentile(*v, 90));
    }
    // The host is shared: for seconds at a time another guest slows a core
    // by up to ~40%, so jobs-1 batch throughput is bimodal and the share of
    // slow batches varies from run to run. A median follows that share; the
    // slow mode itself shows up in every run and is steady. So jobs-1
    // throughput is the rate nine batches in ten reach (p10), and set-up time
    // the time three set-ups in four beat (p75). A jobs-4 batch spans all
    // four cores, whose slow phases average out, so its median is used.
    return {
        {"runs_per_s_j1", percentile(j1, 10), "1/s"},
        {"runs_per_s_j4", median(j4), "1/s"},
        {"setup_s", percentile(setup_s, 75), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

/// --trace 1: rounds of {traced set-ups, engine at jobs 1 and 4, traced
/// replay of the same batch, rewind probe} until the budget is spent.
std::vector<Metric> run_traced(Workload& w, const Args& a,
                               const std::optional<Reference>& ref,
                               std::int64_t t_start, Tally& t) {
    Tracer tr;
    SimCounters sc, sc0;
    // Jobs-4 over 4x jobs-1 on the same batch, timed back to back, so slow
    // drift of the host cancels within each round.
    std::vector<double> efficiency;
    double engine_s = 0;
    std::int64_t traced_ns = 0;
    std::uint64_t replayed = 0;
    for (std::uint64_t b = 0;; ++b) {
        for (std::size_t r = 0; r < w.setup_reps(); ++r) {
            if (!w.traced_setup(tr)) {
                t.fail(0, "traced set-up differs from the engine's set-up");
            }
        }
        const auto [r1, r4] =
            engine_round(w, a.workload, a.seed, b, true, ref, t);
        efficiency.push_back(r1.seconds / (4.0 * r4.seconds));
        engine_s += r1.seconds;

        const std::size_t first = tr.spans().size();
        const std::uint64_t wrong =
            w.traced_replay(tr, batch_seed(a.seed, b), sc);
        for (std::size_t i = first; i < tr.spans().size(); ++i) {
            if (tr.spans()[i].parent < 0) {
                traced_ns += tr.duration(static_cast<std::int32_t>(i));
            }
        }
        replayed += r1.cases;
        t.attempted += r1.cases;
        if (wrong > 0) {
            t.fail(wrong, "batch " + std::to_string(b) + ": " +
                              std::to_string(wrong) +
                              " traced verdict(s) differ from the engine's");
        }
        // Counts come from batch 0 alone, so they repeat exactly per seed.
        if (b == 0) sc0 = sc;
        w.rewind_probe(tr, batch_seed(a.seed, b));
        if (b >= 1 && seconds_since(t_start) >= a.seconds) break;
    }
    if (!a.spans.empty()) tr.write_csv(a.spans, t_start);

    std::vector<Metric> m;
    const auto self = tr.self_ns();
    const auto samples = [&](const char* span) {
        const auto it = self.find(span);
        return it == self.end() ? std::vector<double>{} : it->second;
    };
    for (const LayerSpec& l : kLayers) {
        add_timing(m, l.metric, samples(l.span), l.ns_per_unit, l.unit);
    }
    for (std::size_t k = 0; k < fuzz::kNumOutcomes; ++k) {
        add_timing(m,
                   std::string("sim.run_us.") +
                       fuzz::outcome_name(static_cast<fuzz::Outcome>(k)),
                   sc.run_ns_by_outcome[k], 1e3, "us");
    }
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
    };
    m.push_back({"snap.image_bytes", static_cast<double>(w.image_bytes()),
                 "bytes"});
    m.push_back({"sim.events_per_case", ratio(sc0.events, sc0.cases), "count"});
    m.push_back({"sim.events_per_sb_cycle", ratio(sc0.events, sc0.sb_cycles),
                 "count"});
    m.push_back({"sim.ns_per_event",
                 ratio(static_cast<std::uint64_t>(sc.run_ns), sc.events), "ns"});
    m.push_back({"verify.events_captured", ratio(sc0.captured, sc0.cases),
                 "count"});
    m.push_back({"runner.efficiency_j4", median(efficiency), "ratio"});
    // Traced per-case time against the untraced jobs-1 engine on the very
    // same cases; unattributed = case time no child span covers.
    m.push_back({"trace.overhead_frac",
                 engine_s > 0 ? traced_ns * 1e-9 / engine_s - 1.0 : 0.0,
                 "frac"});
    const std::vector<double> case_self = samples("case");
    double case_self_ns = 0;
    for (const double v : case_self) case_self_ns += v;
    m.push_back({"trace.unattributed_frac",
                 traced_ns > 0 ? case_self_ns / static_cast<double>(traced_ns)
                               : 0.0,
                 "frac"});
    m.push_back({"trace.cases", static_cast<double>(replayed), "count"});
    return m;
}

}  // namespace

int main(int argc, char** argv) {
    const Args a = parse_args(argc, argv);
    if (a.workload.empty()) usage("--workload is required");
    const std::unique_ptr<Workload> w = make_workload(a.workload);
    if (!w) usage(("unknown workload " + a.workload).c_str());

    std::printf("host: nproc %u, compiler %s, build %s\n",
                std::thread::hardware_concurrency(), STBENCH_COMPILER,
                STBENCH_BUILD_TYPE);
    const std::int64_t t_start = now_ns();
    try {
        if (a.record_reference) {
            if (!w->setup()) {
                std::fprintf(stderr, "stbench: set-up checks failed\n");
                return 1;
            }
            const BatchRun b = w->run_batch(batch_seed(a.seed, 0), 1, false);
            std::printf("%s\n", reference_line(a.workload, a.seed, b).c_str());
            return 0;
        }
        const std::optional<Reference> ref =
            a.refs.empty() ? std::nullopt
                           : load_reference(a.refs, a.workload, a.seed);
        Tally t;
        const std::vector<Metric> metrics =
            a.trace ? run_traced(*w, a, ref, t_start, t)
                    : run_end_to_end(*w, a, ref, t_start, t);

        std::printf("%s seed %llu (%s): reference %s\n", a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed),
                    a.trace ? "traced" : "end to end",
                    ref ? "checked" : "not recorded for this seed");
        for (const std::string& p : t.problems) {
            std::printf("FAILED: %s\n", p.c_str());
        }
        for (const Metric& m : metrics) {
            std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        std::printf("  %-34s %14.6g frac (%llu of %llu cases)\n",
                    "failed_frac",
                    static_cast<double>(t.failed) /
                        static_cast<double>(std::max<std::uint64_t>(
                            1, t.attempted)),
                    static_cast<unsigned long long>(t.failed),
                    static_cast<unsigned long long>(t.attempted));
        print_result(t, metrics);
        return t.failed == 0 && t.problems.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "stbench: %s\n", e.what());
        return 1;
    }
}
