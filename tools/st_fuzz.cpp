// st_fuzz: fault-injection fuzzing harness for synchro-tokens SoCs.
//
// Drives seeded property-based campaigns over the composed space of delay
// perturbations (the paper's §5 experiment) and injected hardware faults
// (token loss/duplication, FIFO stalls and stuck data, clock restart
// glitches, spurious tokens). Every run is classified against the nominal
// golden traces as deterministic / divergent / deadlock / invariant, failing
// cases are shrunk to minimal counterexamples, and counterexamples round-trip
// through replayable text repro files.
//
//   $ ./tools/st_fuzz --spec pair --runs 200                 # fault-free
//   $ ./tools/st_fuzz --spec pair --runs 50 --faults token-drop
//                     --expect deadlock,invariant --require-fired
//   $ ./tools/st_fuzz --fixture token-drop-deadlock --shrink
//                     --max-dims 3 --out repro.txt
//   $ ./tools/st_fuzz --replay repro.txt
//
// Exit status: 0 when every check passed, 1 on any unexpected outcome,
// 2 on usage / I/O errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/checkpoint.hpp"
#include "fuzz/fault.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "runner/runner.hpp"
#include "system/testbenches.hpp"

namespace {

using namespace st;

struct Options {
    std::string spec = "pair";
    std::uint64_t seed = 1;
    std::uint64_t runs = 100;
    std::uint64_t cycles = 100;
    std::uint64_t max_events = 2'000'000;
    std::vector<fuzz::FaultClass> classes;
    std::size_t max_faults = 2;
    std::uint64_t warmup = 0;
    std::optional<std::set<fuzz::Outcome>> expect;
    bool require_fired = false;
    bool do_shrink = false;
    std::size_t max_dims = 0;  ///< 0 = unchecked
    std::string out_path;
    std::string replay_path;
    std::string fixture;
    std::size_t jobs = 0;  ///< 0 = auto (hardware threads, ST_JOBS override)
    runner::Shard shard;   ///< deterministic 1-of-N slice of the campaign
    std::string checkpoint_path;
    std::uint64_t checkpoint_every = 0;  ///< 0 = default (1024)
    bool resume = false;
    std::uint64_t stop_after = 0;  ///< 0 = run to completion
    std::vector<std::string> merge_paths;
    bool quiet = false;
};

/// Known-bad seeded fixtures, expressed directly in the repro format. The
/// token-drop fixture buries the real cause (one lost token) under decoy
/// delay perturbations and absorbed faults, so shrinking has real work to do.
struct Fixture {
    const char* name;
    const char* repro;
};

const Fixture kFixtures[] = {
    {"token-drop-deadlock",
     "spec pair\n"
     "cycles 120\n"
     "outcome deadlock\n"
     "delay 0 150\n"   // fifo0 stage delay
     "delay 3 150\n"   // ring0 b->a wire
     "delay 4 75\n"    // clk0 period
     "fault token-drop unit=0 side=1 nth=1 value=0\n"
     "fault restart-glitch unit=0 side=0 nth=1 value=300\n"
     "fault fifo-stall unit=0 side=0 nth=2 value=400\n"},
};

void usage() {
    std::printf(
        "usage: st_fuzz [options]\n"
        "  --spec NAME        testbench spec");
    for (const auto& s : sys::named_specs()) std::printf("|%s", s.c_str());
    std::printf(
        " (default pair)\n"
        "  --seed N           campaign PRNG seed (default 1)\n"
        "  --runs N           random cases to run (default 100)\n"
        "  --cycles N         local-cycle comparison window (default 100)\n"
        "  --max-events N     per-run livelock watchdog budget\n"
        "  --faults LIST      comma-separated fault classes to inject, or\n"
        "                     'all'; omitted = fault-free delay fuzzing\n"
        "  --max-faults N     max faults per random case (default 2)\n"
        "  --warmup N         shared nominal warm-up prefix (local cycles,\n"
        "                     < --cycles); each case forks from one snapshot\n"
        "                     of the prefix instead of re-simulating it\n"
        "  --expect LIST      comma-separated acceptable outcomes; any run\n"
        "                     outside the list fails the campaign\n"
        "  --require-fired    every run must trigger >= 1 injected fault\n"
        "  --shrink           shrink the first failing case to a minimal\n"
        "                     counterexample\n"
        "  --max-dims N       fail if the shrunk case keeps > N dimensions\n"
        "  --out FILE         write the shrunk counterexample repro to FILE\n"
        "  --replay FILE      replay a repro file; fail unless the recorded\n"
        "                     outcome reproduces\n"
        "  --fixture NAME     run a built-in known-bad fixture");
    for (const auto& f : kFixtures) std::printf(" [%s]", f.name);
    std::printf(
        "\n"
        "  --jobs N           parallel campaign workers (default: hardware\n"
        "                     threads, ST_JOBS override); results are\n"
        "                     bit-identical at every N\n"
        "  --shard I/N        run only the 1-of-N deterministic slice I of\n"
        "                     the campaign's case indices; N completed shard\n"
        "                     checkpoints --merge to the byte-identical\n"
        "                     single-process summary\n"
        "  --checkpoint FILE  write periodic campaign-progress images (and a\n"
        "                     final one) to FILE; atomic, resumable\n"
        "  --checkpoint-every K  reduced cases between images (default 1024)\n"
        "  --resume           continue from --checkpoint FILE if it exists\n"
        "                     (fresh start otherwise); the final summary is\n"
        "                     bit-identical to an uninterrupted run\n"
        "  --stop-after N     stop cleanly after N reduced cases (simulates\n"
        "                     a mid-campaign kill for resume testing)\n"
        "  --merge LIST       merge comma-separated completed shard\n"
        "                     checkpoint files and print the combined\n"
        "                     campaign summary\n"
        "  --quiet            print only summary lines\n");
}

bool parse_classes(const std::string& list,
                   std::vector<fuzz::FaultClass>& out) {
    if (list == "all") {
        out = fuzz::all_fault_classes();
        return true;
    }
    std::istringstream is(list);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        const auto cls = fuzz::parse_fault_class(tok);
        if (!cls) {
            std::fprintf(stderr, "st_fuzz: unknown fault class '%s'\n",
                         tok.c_str());
            return false;
        }
        out.push_back(*cls);
    }
    return !out.empty();
}

bool parse_expect(const std::string& list, std::set<fuzz::Outcome>& out) {
    std::istringstream is(list);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        const auto o = fuzz::parse_outcome(tok);
        if (!o) {
            std::fprintf(stderr, "st_fuzz: unknown outcome '%s'\n",
                         tok.c_str());
            return false;
        }
        out.insert(*o);
    }
    return !out.empty();
}

const char* locus_kind_name(verify::MismatchLocus::Kind k) {
    switch (k) {
        case verify::MismatchLocus::Kind::kValue: return "value";
        case verify::MismatchLocus::Kind::kExtra: return "extra-event";
        case verify::MismatchLocus::Kind::kShortfall: return "shortfall";
        case verify::MismatchLocus::Kind::kMissingSb: return "missing-sb";
        case verify::MismatchLocus::Kind::kNone: break;
    }
    return "none";
}

void print_locus(const verify::MismatchLocus& l) {
    if (!l.valid()) return;
    std::printf("    locus kind=%s sb=%s index=%llu cycle=%llu port=%u",
                locus_kind_name(l.kind), l.sb.c_str(),
                static_cast<unsigned long long>(l.index),
                static_cast<unsigned long long>(l.cycle), l.port);
    if (l.expected) {
        std::printf(" expected=0x%llx",
                    static_cast<unsigned long long>(l.expected->word));
    }
    if (l.actual) {
        std::printf(" actual=0x%llx",
                    static_cast<unsigned long long>(l.actual->word));
    }
    std::printf("\n");
}

void print_case(const fuzz::FuzzCase& c, const fuzz::RunReport& r) {
    std::printf("  outcome=%s fired=%llu events=%llu%s%s\n",
                fuzz::outcome_name(r.outcome),
                static_cast<unsigned long long>(r.faults_fired),
                static_cast<unsigned long long>(r.events),
                r.detail.empty() ? "" : " :: ", r.detail.c_str());
    print_locus(r.locus);
    for (std::size_t d = 0; d < c.delays.dimensions(); ++d) {
        if (c.delays.get(d) != 100) {
            std::printf("    delay %s = %u%%\n",
                        c.delays.dim_name(d).c_str(), c.delays.get(d));
        }
    }
    for (const auto& f : c.faults) {
        std::printf("    fault %s\n", f.describe().c_str());
    }
}

/// Shrink `failing`, report, enforce --max-dims, optionally write --out.
/// Returns false on any check failure.
bool shrink_and_report(const fuzz::Campaign& campaign,
                       const fuzz::FuzzCase& failing, const Options& opt) {
    const fuzz::ShrinkResult res = fuzz::shrink(campaign, failing);
    std::printf(
        "shrunk: %zu -> %zu dimension(s) in %zu run(s), outcome %s\n",
        failing.complexity(), res.minimal.complexity(), res.attempts,
        fuzz::outcome_name(res.outcome));
    print_case(res.minimal, campaign.run_case(res.minimal));
    if (opt.max_dims != 0 && res.minimal.complexity() > opt.max_dims) {
        std::fprintf(stderr,
                     "st_fuzz: shrunk case keeps %zu dimensions (> %zu)\n",
                     res.minimal.complexity(), opt.max_dims);
        return false;
    }
    if (!opt.out_path.empty()) {
        fuzz::Repro repro = fuzz::Repro::from_case(
            campaign.config().spec_name, campaign.config().cycles,
            res.outcome, res.minimal);
        repro.seed = opt.seed;
        repro.jobs = runner::resolve_jobs(opt.jobs);
        std::ofstream out(opt.out_path);
        if (!out) {
            std::fprintf(stderr, "st_fuzz: cannot write '%s'\n",
                         opt.out_path.c_str());
            return false;
        }
        out << repro.to_text();
        std::printf("wrote %s\n", opt.out_path.c_str());
    }
    return true;
}

/// Replay one parsed repro (from file or fixture). Asserts the recorded
/// outcome reproduces; with --shrink also minimizes it.
int run_repro(const fuzz::Repro& repro, const Options& opt) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = repro.spec_name;
    cfg.cycles = repro.cycles;
    cfg.max_events = opt.max_events;
    const fuzz::Campaign campaign(cfg);
    const fuzz::FuzzCase c = repro.to_case(campaign.spec());
    const fuzz::RunReport r = campaign.run_case(c);
    std::printf("replay: format=v%llu spec=%s cycles=%llu",
                static_cast<unsigned long long>(repro.version),
                repro.spec_name.c_str(),
                static_cast<unsigned long long>(repro.cycles));
    if (repro.seed) {
        std::printf(" seed=%llu",
                    static_cast<unsigned long long>(*repro.seed));
    }
    if (repro.jobs) {
        std::printf(" jobs=%llu",
                    static_cast<unsigned long long>(*repro.jobs));
    }
    std::printf("\n");
    print_case(c, r);
    if (repro.expected && r.outcome != *repro.expected) {
        std::fprintf(stderr,
                     "st_fuzz: recorded outcome %s did not reproduce "
                     "(got %s)\n",
                     fuzz::outcome_name(*repro.expected),
                     fuzz::outcome_name(r.outcome));
        return 1;
    }
    if (opt.do_shrink) {
        if (r.outcome == fuzz::Outcome::kDeterministic) {
            std::fprintf(stderr,
                         "st_fuzz: nothing to shrink (deterministic)\n");
            return 1;
        }
        if (!shrink_and_report(campaign, c, opt)) return 1;
    }
    return 0;
}

void print_summary_line(const char* label, const std::string& spec,
                        std::uint64_t seed, const fuzz::CampaignSummary& s) {
    std::printf(
        "%s: spec=%s seed=%llu runs=%llu | deterministic=%llu "
        "divergent=%llu deadlock=%llu invariant=%llu | fault-fired=%llu\n",
        label, spec.c_str(), static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(s.runs),
        static_cast<unsigned long long>(s.by_outcome[0]),
        static_cast<unsigned long long>(s.by_outcome[1]),
        static_cast<unsigned long long>(s.by_outcome[2]),
        static_cast<unsigned long long>(s.by_outcome[3]),
        static_cast<unsigned long long>(s.runs_with_fault_fired));
}

/// --merge: combine completed shard checkpoints into the single-process
/// summary. Every file must belong to the same campaign, be complete, and
/// together the shards must partition the case space exactly.
int run_merge(const Options& opt) {
    std::vector<fuzz::CampaignProgress> parts;
    for (const auto& path : opt.merge_paths) {
        parts.push_back(fuzz::load_progress_file(path));
    }
    const fuzz::CampaignKey& ref = parts.front().key;
    std::set<std::uint64_t> indices;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        const fuzz::CampaignProgress& p = parts[i];
        if (!p.key.same_campaign(ref)) {
            std::fprintf(stderr,
                         "st_fuzz: '%s' belongs to a different campaign\n",
                         opt.merge_paths[i].c_str());
            return 2;
        }
        if (p.key.shard.count != parts.size() ||
            !indices.insert(p.key.shard.index).second) {
            std::fprintf(stderr,
                         "st_fuzz: '%s' is shard %llu/%llu — expected %zu "
                         "distinct shards of /%zu\n",
                         opt.merge_paths[i].c_str(),
                         static_cast<unsigned long long>(p.key.shard.index),
                         static_cast<unsigned long long>(p.key.shard.count),
                         parts.size(), parts.size());
            return 2;
        }
        const std::uint64_t expect =
            p.key.shard.size_of(p.key.n_runs);
        if (p.completed != expect) {
            std::fprintf(stderr,
                         "st_fuzz: '%s' is incomplete (%llu of %llu cases)\n",
                         opt.merge_paths[i].c_str(),
                         static_cast<unsigned long long>(p.completed),
                         static_cast<unsigned long long>(expect));
            return 2;
        }
    }
    std::vector<fuzz::CampaignSummary> summaries;
    summaries.reserve(parts.size());
    for (auto& p : parts) summaries.push_back(std::move(p.summary));
    const fuzz::CampaignSummary merged = fuzz::merge_shards(summaries);
    std::printf("merged %zu shard(s):\n", parts.size());
    print_summary_line("campaign", ref.spec_name, ref.seed, merged);
    if (!opt.quiet) {
        for (const auto& f : merged.failures) {
            std::printf("failure at run %llu:\n",
                        static_cast<unsigned long long>(f.index));
            print_case(f.c, f.report);
        }
    }
    return 0;
}

int run_campaign(const Options& opt) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = opt.spec;
    cfg.cycles = opt.cycles;
    cfg.max_events = opt.max_events;
    cfg.classes = opt.classes;
    cfg.max_faults = opt.max_faults;
    cfg.warmup_cycles = opt.warmup;
    const fuzz::Campaign campaign(cfg);

    // Fault-free campaigns default to demanding full determinism — that is
    // the paper's claim under benign delay perturbation.
    std::set<fuzz::Outcome> expect;
    if (opt.expect) {
        expect = *opt.expect;
    } else if (opt.classes.empty()) {
        expect = {fuzz::Outcome::kDeterministic};
    }

    fuzz::CampaignControl ctl;
    ctl.shard = opt.shard;
    ctl.checkpoint_path = opt.checkpoint_path;
    ctl.checkpoint_every = opt.checkpoint_every;
    ctl.stop_after = opt.stop_after;
    if (opt.resume) {
        // The CLI resume is lenient so "rerun the same command line until it
        // exits 0" works: a missing checkpoint file means a fresh start.
        std::ifstream probe(opt.checkpoint_path, std::ios::binary);
        ctl.resume = probe.good();
        if (!ctl.resume && !opt.quiet) {
            std::printf("no checkpoint at '%s'; starting fresh\n",
                        opt.checkpoint_path.c_str());
        }
    }

    std::uint64_t unexpected = 0;
    std::uint64_t unfired = 0;
    const auto summary = campaign.run(
        opt.runs, opt.seed,
        [&](std::size_t i, const fuzz::FuzzCase& c,
            const fuzz::RunReport& r) {
            const bool outcome_ok =
                expect.empty() || expect.count(r.outcome) != 0;
            const bool fired_ok = !opt.require_fired || r.faults_fired > 0;
            if (!outcome_ok) ++unexpected;
            if (!fired_ok) ++unfired;
            if (!opt.quiet || !outcome_ok || !fired_ok) {
                std::printf("run %zu:%s%s\n", i,
                            outcome_ok ? "" : " UNEXPECTED",
                            fired_ok ? "" : " NO-FAULT-FIRED");
                print_case(c, r);
            }
        },
        runner::resolve_jobs(opt.jobs), ctl);

    std::string label = "campaign";
    if (!opt.shard.is_full()) {
        label += " (shard " + std::to_string(opt.shard.index) + "/" +
                 std::to_string(opt.shard.count) + ")";
    }
    print_summary_line(label.c_str(), opt.spec, opt.seed, summary);
    if (opt.stop_after != 0 && summary.runs < opt.shard.size_of(opt.runs)) {
        std::printf("stopped after %llu reduced case(s); resume with "
                    "--resume --checkpoint %s\n",
                    static_cast<unsigned long long>(summary.runs),
                    opt.checkpoint_path.c_str());
        return unexpected == 0 && unfired == 0 ? 0 : 1;
    }

    bool ok = unexpected == 0 && unfired == 0;
    if (opt.do_shrink && !summary.failures.empty()) {
        ok = shrink_and_report(campaign, summary.failures.front().c, opt) &&
             ok;
    }
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "st_fuzz: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--spec") {
            opt.spec = next();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--runs") {
            opt.runs = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--cycles") {
            opt.cycles = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--max-events") {
            opt.max_events = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--faults") {
            if (!parse_classes(next(), opt.classes)) return 2;
        } else if (arg == "--max-faults") {
            opt.max_faults = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--warmup") {
            opt.warmup = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--expect") {
            std::set<fuzz::Outcome> e;
            if (!parse_expect(next(), e)) return 2;
            opt.expect = std::move(e);
        } else if (arg == "--require-fired") {
            opt.require_fired = true;
        } else if (arg == "--shrink") {
            opt.do_shrink = true;
        } else if (arg == "--max-dims") {
            opt.max_dims = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--out") {
            opt.out_path = next();
        } else if (arg == "--replay") {
            opt.replay_path = next();
        } else if (arg == "--fixture") {
            opt.fixture = next();
        } else if (arg == "--jobs") {
            opt.jobs = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--shard") {
            const std::string text = next();
            const auto shard = runner::parse_shard(text);
            if (!shard) {
                std::fprintf(stderr,
                             "st_fuzz: --shard expects I/N with I < N, got "
                             "'%s'\n",
                             text.c_str());
                return 2;
            }
            opt.shard = *shard;
        } else if (arg == "--checkpoint") {
            opt.checkpoint_path = next();
        } else if (arg == "--checkpoint-every") {
            opt.checkpoint_every = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "--stop-after") {
            opt.stop_after = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--merge") {
            std::istringstream is(next());
            std::string tok;
            while (std::getline(is, tok, ',')) {
                if (!tok.empty()) opt.merge_paths.push_back(tok);
            }
            if (opt.merge_paths.empty()) {
                std::fprintf(stderr,
                             "st_fuzz: --merge expects a comma-separated "
                             "list of checkpoint files\n");
                return 2;
            }
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            return 2;
        }
    }

    if ((opt.resume || opt.stop_after != 0) && opt.checkpoint_path.empty()) {
        std::fprintf(stderr,
                     "st_fuzz: --resume/--stop-after need --checkpoint\n");
        return 2;
    }

    try {
        if (!opt.merge_paths.empty()) return run_merge(opt);
        if (!opt.replay_path.empty()) {
            std::ifstream in(opt.replay_path);
            if (!in) {
                std::fprintf(stderr, "st_fuzz: cannot read '%s'\n",
                             opt.replay_path.c_str());
                return 2;
            }
            std::ostringstream text;
            text << in.rdbuf();
            return run_repro(fuzz::Repro::parse(text.str()), opt);
        }
        if (!opt.fixture.empty()) {
            for (const auto& f : kFixtures) {
                if (opt.fixture == f.name) {
                    return run_repro(fuzz::Repro::parse(f.repro), opt);
                }
            }
            std::fprintf(stderr, "st_fuzz: unknown fixture '%s'\n",
                         opt.fixture.c_str());
            return 2;
        }
        return run_campaign(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "st_fuzz: %s\n", e.what());
        return 2;
    }
}
