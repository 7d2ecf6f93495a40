// st_topo: procedural NoC-scale topology generator driver.
//
// Generates a seeded mesh / torus / star / hierarchical-ring SocSpec
// (64-1024 SBs, src/topo), optionally emits it as a `.stspec` v1 file for
// the st_lint / st_fuzz / st_debug toolchain, lints it, proves the sva
// verification obligations, and sweeps routed-traffic determinism under
// perturbed delay configurations — re-running the sweep at every --jobs
// value and requiring bit-identical aggregates.
//
//   $ ./tools/st_topo --shape mesh --sbs 256 --seed 42 --lint --verify
//   $ ./tools/st_topo --shape torus --sbs 64 --emit torus64.stspec
//   $ ./tools/st_topo --shape mesh --sbs 64 --seed 7 --sweep 3 --jobs 1,2,4
//
// Exit status: 0 clean, 1 any lint error / unproven obligation / trace
// mismatch / jobs-variance, 2 usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "sim/random.hpp"
#include "sva/spec_text.hpp"
#include "sva/verify.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "topo/topo.hpp"
#include "verify/determinism.hpp"

namespace {

using namespace st;

struct Options {
    topo::Options gen;
    std::string emit_path;
    bool lint = false;
    bool verify = false;
    std::size_t sweep_seeds = 0;  ///< 0 = no sweep
    runner::Shard shard;          ///< 1-of-N slice of the sweep indices
    std::vector<std::size_t> jobs = {1, 2, 4};
    std::uint64_t cycles = 90;  ///< golden-trace horizon (local cycles)
    bool quiet = false;
};

void usage() {
    std::printf(
        "usage: st_topo [options]\n"
        "  --shape NAME    mesh|torus|star|hring (default mesh)\n"
        "  --sbs N         SB count, >= 2 (default 64)\n"
        "  --seed S        generator seed, non-zero (default 1)\n"
        "  --emit PATH     write the generated .stspec ('-' for stdout)\n"
        "  --lint          run every static lint pass (clean required)\n"
        "  --verify        prove the sva verification obligations\n"
        "  --sweep K       determinism sweep over K perturbed delay\n"
        "                  configs; repeated at every --jobs value and the\n"
        "                  aggregates must be bit-identical\n"
        "  --jobs LIST     comma-separated worker counts for --sweep\n"
        "                  (default 1,2,4)\n"
        "  --shard I/N     run only the 1-of-N deterministic slice I of the\n"
        "                  sweep; shard results merge to the full sweep\n"
        "                  (verify::merge_sweep_shards)\n"
        "  --cycles N      golden-trace horizon in local cycles (default "
        "90)\n"
        "  --quiet         print only the final verdict lines\n");
}

std::uint64_t parse_num(const char* flag, const char* s) {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s, &end, 0);
    if (end == s || *end != '\0') {
        std::fprintf(stderr, "st_topo: %s expects a number, got '%s'\n", flag,
                     s);
        std::exit(2);
    }
    return v;
}

/// Paper-style joint perturbation: every FIFO/ring delay dimension drawn
/// from {50, 75, 150, 200} percent of nominal, clocks clamped to the
/// audited >= 75 percent envelope.
sys::DelayConfig perturb(const sys::SocSpec& spec, std::uint64_t seed) {
    auto cfg = sys::DelayConfig::nominal(spec);
    sim::Rng rng(seed);
    const unsigned percents[4] = {50, 75, 150, 200};
    for (std::size_t d = 0; d < cfg.dimensions(); ++d) {
        const bool is_clock = d >= cfg.dimensions() - cfg.clock_pct.size();
        const unsigned pct = percents[rng.next_below(4)];
        cfg.set(d, is_clock ? std::max(75u, pct) : pct);
    }
    return cfg;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--shape") {
            const char* name = next();
            const auto s = topo::parse_shape(name);
            if (!s) {
                std::fprintf(stderr, "st_topo: unknown shape '%s'\n", name);
                return 2;
            }
            opt.gen.shape = *s;
        } else if (arg == "--sbs") {
            opt.gen.sbs = parse_num("--sbs", next());
        } else if (arg == "--seed") {
            opt.gen.seed = parse_num("--seed", next());
        } else if (arg == "--emit") {
            opt.emit_path = next();
        } else if (arg == "--lint") {
            opt.lint = true;
        } else if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--sweep") {
            opt.sweep_seeds = parse_num("--sweep", next());
        } else if (arg == "--shard") {
            const char* text = next();
            const auto shard = runner::parse_shard(text);
            if (!shard) {
                std::fprintf(stderr,
                             "st_topo: --shard expects I/N with I < N, got "
                             "'%s'\n",
                             text);
                return 2;
            }
            opt.shard = *shard;
        } else if (arg == "--cycles") {
            opt.cycles = parse_num("--cycles", next());
        } else if (arg == "--jobs") {
            opt.jobs.clear();
            std::string list = next();
            std::size_t pos = 0;
            while (pos <= list.size()) {
                const auto comma = list.find(',', pos);
                const auto part = list.substr(
                    pos, comma == std::string::npos ? comma : comma - pos);
                opt.jobs.push_back(parse_num("--jobs", part.c_str()));
                if (comma == std::string::npos) break;
                pos = comma + 1;
            }
            if (opt.jobs.empty()) {
                usage();
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

    sva::SpecDoc doc;
    try {
        doc = topo::generate(opt.gen);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "st_topo: %s\n", e.what());
        return 2;
    }
    const std::string tag = std::string(topo::shape_name(opt.gen.shape)) +
                            std::to_string(opt.gen.sbs);
    if (!opt.quiet) {
        std::printf("%s: %zu sb(s), %zu ring(s), %zu bus(es), "
                    "%zu channel(s), seed 0x%llx\n",
                    tag.c_str(), doc.sbs.size(), doc.rings.size(),
                    doc.multi_rings.size(), doc.channels.size(),
                    static_cast<unsigned long long>(opt.gen.seed));
    }

    if (!opt.emit_path.empty()) {
        const std::string text = sva::to_text(doc);
        if (opt.emit_path == "-") {
            std::fputs(text.c_str(), stdout);
        } else {
            std::ofstream os(opt.emit_path, std::ios::binary);
            os << text;
            if (!os) {
                std::fprintf(stderr, "st_topo: cannot write %s\n",
                             opt.emit_path.c_str());
                return 2;
            }
            if (!opt.quiet) {
                std::printf("%s: wrote %s (%zu bytes)\n", tag.c_str(),
                            opt.emit_path.c_str(), text.size());
            }
        }
    }

    bool failed = false;
    const sys::SocSpec spec = sva::to_spec(doc);

    if (opt.lint) {
        const auto report = lint::lint(spec);
        if (!opt.quiet || !report.ok()) {
            for (const auto& d : report.diagnostics()) {
                std::printf("%s: %s\n", tag.c_str(), d.to_string().c_str());
            }
        }
        std::printf("%s: lint: %zu error(s), %zu warning(s), %zu note(s)\n",
                    tag.c_str(), report.errors(), report.warnings(),
                    report.notes());
        failed |= !report.ok();
    }

    if (opt.verify) {
        const auto vr = sva::verify(spec);
        std::printf("%s: verify: %s\n", tag.c_str(), vr.summary().c_str());
        failed |= !vr.clean();
    }

    if (opt.sweep_seeds > 0) {
        // Streaming sweep: each case elaborates the perturbed spec into the
        // harness's per-worker capture, whose attached checker stops the run
        // at the first mismatching event, or once every SB has sampled the
        // window's last cycle — so a matching run ends at `opt.cycles`, not
        // at the 40-cycle-longer horizon.
        const std::uint64_t horizon = opt.cycles + 40;
        const auto run = [&spec, horizon](const sys::DelayConfig& cfg,
                                          verify::RunCapture& cap) {
            sys::Soc soc(sys::apply(spec, cfg), &cap);
            soc.run_cycles(horizon, sim::ms(2000));
        };
        std::vector<sys::DelayConfig> sweep;
        for (std::uint64_t s = 1; s <= opt.sweep_seeds; ++s) {
            sweep.push_back(perturb(spec, opt.gen.seed + s));
        }
        // One harness per jobs value would re-capture the golden run; a
        // single harness captures it once and the aggregates must still be
        // bit-identical at every worker count (the runner reduces in
        // perturbation order).
        verify::DeterminismHarness<sys::DelayConfig> harness(
            verify::DeterminismHarness<sys::DelayConfig>::LiveRunner(run),
            sys::DelayConfig::nominal(spec), opt.cycles);
        bool first = true;
        verify::SweepResult reference;
        bool jobs_variance = false;
        for (const std::size_t jobs : opt.jobs) {
            const auto r = harness.sweep(sweep, jobs, opt.shard);
            std::printf(
                "%s: sweep(jobs=%zu%s): %llu run(s), %llu match, "
                "%llu mismatch\n",
                tag.c_str(), jobs,
                opt.shard.is_full()
                    ? ""
                    : (", shard " + std::to_string(opt.shard.index) + "/" +
                       std::to_string(opt.shard.count))
                          .c_str(),
                static_cast<unsigned long long>(r.runs),
                static_cast<unsigned long long>(r.matches),
                static_cast<unsigned long long>(r.mismatches));
            for (const auto& e : r.examples) {
                std::printf("%s:   mismatch: run %llu: %s\n", tag.c_str(),
                            static_cast<unsigned long long>(e.index),
                            e.locus.c_str());
            }
            failed |= !r.all_match();
            if (first) {
                reference = r;
                first = false;
            } else if (!(r == reference)) {
                jobs_variance = true;
            }
        }
        if (jobs_variance) {
            std::printf("%s: sweep: AGGREGATES VARY ACROSS --jobs VALUES\n",
                        tag.c_str());
            failed = true;
        } else if (opt.jobs.size() > 1) {
            std::printf("%s: sweep: bit-identical aggregates at every "
                        "--jobs value\n",
                        tag.c_str());
        }
    }

    return failed ? 1 : 0;
}
