// st_lint: static analyzer for synchro-tokens SocSpecs.
//
// Runs every lint pass (topology, schedule feasibility, FIFO provisioning,
// counter widths, clock hazards, deadlock fixpoint) over the shipped
// testbench specs or over a deliberately broken fixture, and prints a
// GCC-style diagnostics listing. Exit status is non-zero when any
// error-severity diagnostic was produced — CTest runs this over every shipped
// spec (expected clean) and over every fixture (expected to fail).
//
// --verify adds the sva static-verification tier: the token-flow graph
// passes prove deadlock-freedom / occupancy / clock-envelope / ordering
// obligations, and every non-proven finding carries a concretized witness
// that is replayed through the st_fuzz classifier (CONFIRMED or RETRACTED).
//
//   $ ./tools/st_lint                      # lint all shipped testbenches
//   $ ./tools/st_lint --spec triangle --verify
//   $ ./tools/st_lint --fixture undersized-fifo --verify --format=json
//   $ ./tools/st_lint --spec-file tests/data/ring_of_rings_256.stspec --verify
//   $ ./tools/st_lint --spec all --race-audit 200 --jobs 4

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/fixtures.hpp"
#include "lint/lint.hpp"
#include "lint/race_audit.hpp"
#include "runner/runner.hpp"
#include "sva/fixtures.hpp"
#include "sva/spec_text.hpp"
#include "sva/verify.hpp"
#include "system/testbenches.hpp"

namespace {

using namespace st;

struct Options {
    std::string spec = "all";
    std::string fixture;
    std::string spec_file;
    std::uint64_t race_cycles = 0;
    std::size_t jobs = 0;  ///< 0 = auto (hardware threads, ST_JOBS override)
    bool verify = false;
    bool json = false;
    bool quiet = false;
};

/// printf-append into a string buffer. Specs are linted in parallel under
/// --spec all, so each one's listing is built off to the side and printed by
/// the reducer in catalog order — interleaving-free at any --jobs value.
void appendf(std::string& out, const char* fmt, ...) {
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n > 0) {
        const auto old = out.size();
        out.resize(old + static_cast<std::size_t>(n) + 1);
        std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                       ap2);
        out.pop_back();  // drop vsnprintf's terminating NUL
    }
    va_end(ap2);
}

/// The canonical diagnostic order: lint rules in pass-catalog order (with
/// each pass's sub-rules inlined), then the sva verifier passes, then the
/// dynamic race audit. Diagnostics are stably sorted by this before
/// rendering, so output is invariant under emission order and --jobs.
std::vector<std::string> canonical_rule_order() {
    std::vector<std::string> order = {
        "ring-endpoints", "channel-ring",       "initial-holder",
        "isolated-sb",    "param-sanity",       "counter-width",
        "recycle-feasibility", "fifo-depth",    "fifo-head-visibility",
        "clock-ratio",    "restart-delay",      "deadlock-fixpoint"};
    for (const auto& p : sva::sva_pass_catalog()) order.push_back(p.id);
    order.push_back("sched-race");
    return order;
}

sys::SocSpec make_shipped(const std::string& name) {
    try {
        return sys::make_named_spec(name);
    } catch (const std::invalid_argument&) {
        std::fprintf(stderr, "st_lint: unknown spec '%s'\n", name.c_str());
        std::exit(2);
    }
}

void usage() {
    std::printf(
        "usage: st_lint [options]\n"
        "  --spec NAME       shipped testbench to lint: all");
    for (const auto& s : sys::named_specs()) std::printf("|%s", s.c_str());
    std::printf(
        " (default all)\n"
        "  --fixture NAME    lint a deliberately broken fixture instead\n"
        "                    (lint and sva fixture catalogs)\n"
        "  --spec-file PATH  lint a .stspec file instead\n"
        "  --verify          run the sva static-verification tier: prove\n"
        "                    deadlock/occupancy/clock/ordering obligations\n"
        "                    and replay counterexample witnesses dynamically\n"
        "  --format=FMT      text (default) or json\n"
        "  --race-audit N    additionally simulate N local cycles with the\n"
        "                    scheduler same-slot race audit enabled\n"
        "  --jobs N          lint specs — and verifier passes and witness\n"
        "                    replays under --verify — in parallel\n"
        "                    (default: hardware threads, ST_JOBS override);\n"
        "                    output is bit-identical at any value\n"
        "  --list            list passes and fixtures, then exit\n"
        "  --quiet           print only per-spec summary lines\n");
}

void list_catalogs() {
    std::printf("passes:\n");
    for (const auto& p : lint::pass_catalog()) {
        std::printf("  %-22s %s\n", p.id, p.summary);
    }
    std::printf("verifier passes (--verify):\n");
    for (const auto& p : sva::sva_pass_catalog()) {
        std::printf("  %-22s %s\n", p.id, p.summary);
    }
    std::printf("fixtures (each must fail with its rule):\n");
    for (const auto& f : lint::fixture_catalog()) {
        std::printf("  %-22s [%s] %s\n", f.name, f.expected_rule, f.summary);
    }
    std::printf("verifier fixtures (--verify; expected verdict):\n");
    for (const auto& f : sva::fixture_catalog()) {
        std::printf("  %-22s [%s -> %s] %s\n", f.name, f.pass,
                    sva::verdict_name(f.expected), f.summary);
    }
}

/// Render one report GCC-style, using the spec name as the "file" component.
void render_report(std::string& out, const std::string& spec_name,
                   const lint::LintReport& report, bool quiet) {
    if (!quiet) {
        for (const auto& d : report.diagnostics()) {
            appendf(out, "%s: %s: %s: %s [%s]\n", spec_name.c_str(),
                    d.locus.c_str(), lint::severity_name(d.severity),
                    d.message.c_str(), d.rule.c_str());
            if (!d.fix_hint.empty()) {
                appendf(out, "%s: %s: note: fix: %s\n", spec_name.c_str(),
                        d.locus.c_str(), d.fix_hint.c_str());
            }
        }
    }
    appendf(out, "%s: %zu error(s), %zu warning(s), %zu note(s)\n",
            spec_name.c_str(), report.errors(), report.warnings(),
            report.notes());
}

/// One spec's rendered diagnostics plus its error count. `json` holds the
/// per-spec JSON object when --format=json; the reducer assembles the array.
struct LintRun {
    std::string text;
    std::string json;
    std::size_t errors = 0;
};

/// Lint — and under --verify statically verify — one spec, rendering into
/// `run.text` (and `run.json` for machine-readable output).
LintRun lint_one(const std::string& name, const sys::SocSpec& spec,
                 const Options& opt) {
    LintRun run;
    lint::LintReport report = lint::lint(spec);
    std::string verify_summary;
    if (opt.verify) {
        sva::VerifyOptions vopt;
        vopt.jobs = runner::resolve_jobs(opt.jobs);
        const sva::VerifyReport vr = sva::verify(spec, vopt);
        sva::render(vr, report);
        verify_summary = vr.summary();
    }
    // Only audit dynamically when the spec is statically sound: elaborating
    // a structurally broken spec would throw long before any race could.
    if (opt.race_cycles > 0 && report.ok()) {
        lint::LintReport audit =
            lint::run_race_audit(spec, opt.race_cycles, sim::ms(500));
        if (!opt.quiet && !opt.json) {
            appendf(run.text, "%s: race audit over %llu cycles: %zu race(s)\n",
                    name.c_str(),
                    static_cast<unsigned long long>(opt.race_cycles),
                    audit.errors());
        }
        report.merge(audit);
    }
    report.canonicalize(canonical_rule_order());
    if (!verify_summary.empty()) {
        appendf(run.text, "%s: verify: %s\n", name.c_str(),
                verify_summary.c_str());
    }
    render_report(run.text, name, report, opt.quiet);
    if (opt.json) {
        appendf(run.json,
                "{\"name\":\"%s\",\"errors\":%zu,\"warnings\":%zu,"
                "\"notes\":%zu",
                lint::json_escape(name).c_str(), report.errors(),
                report.warnings(), report.notes());
        if (!verify_summary.empty()) {
            appendf(run.json, ",\"verify\":\"%s\"",
                    lint::json_escape(verify_summary).c_str());
        }
        appendf(run.json, ",\"diagnostics\":%s}", report.to_json().c_str());
    }
    run.errors = report.errors();
    return run;
}

/// Print one run in the selected format; JSON objects are comma-joined into
/// a top-level array by the caller via `index`.
void emit(const LintRun& run, const Options& opt, std::size_t index) {
    if (opt.json) {
        std::printf("%s%s", index ? ",\n" : "[\n", run.json.c_str());
    } else {
        std::fputs(run.text.c_str(), stdout);
    }
}

void emit_close(const Options& opt, bool any) {
    if (opt.json) std::printf("%s]\n", any ? "\n" : "[");
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
        if (arg == "--spec") {
            opt.spec = next();
        } else if (arg == "--fixture") {
            opt.fixture = next();
        } else if (arg == "--spec-file") {
            opt.spec_file = next();
        } else if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--format=text") {
            opt.json = false;
        } else if (arg == "--format=json") {
            opt.json = true;
        } else if (arg == "--race-audit") {
            const char* value = next();
            char* end = nullptr;
            opt.race_cycles = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0' || opt.race_cycles == 0) {
                std::fprintf(stderr,
                             "st_lint: --race-audit expects a positive cycle "
                             "count, got '%s'\n",
                             value);
                return 2;
            }
        } else if (arg == "--jobs") {
            opt.jobs = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--list") {
            list_catalogs();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            return 2;
        }
    }

    const int exclusive = (!opt.fixture.empty() ? 1 : 0) +
                          (!opt.spec_file.empty() ? 1 : 0) +
                          (opt.spec != "all" ? 1 : 0);
    if (exclusive > 1) {
        std::fprintf(stderr,
                     "st_lint: --spec, --fixture and --spec-file are "
                     "mutually exclusive\n");
        return 2;
    }

    std::size_t errors = 0;
    if (!opt.fixture.empty()) {
        try {
            const LintRun run =
                lint_one(opt.fixture, sva::make_fixture(opt.fixture), opt);
            emit(run, opt, 0);
            emit_close(opt, true);
            errors = run.errors;
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "st_lint: %s\n", e.what());
            return 2;
        }
    } else if (!opt.spec_file.empty()) {
        try {
            const auto spec = sva::to_spec(sva::load_spec_file(opt.spec_file));
            const LintRun run = lint_one(opt.spec_file, spec, opt);
            emit(run, opt, 0);
            emit_close(opt, true);
            errors = run.errors;
        } catch (const std::runtime_error& e) {
            std::fprintf(stderr, "st_lint: %s\n", e.what());
            return 2;
        }
    } else if (opt.spec == "all") {
        // Specs are independent: fan them out on the st::runner engine and
        // print each rendered listing in catalog order.
        const auto names = sys::named_specs();
        runner::sweep(
            names.size(), runner::resolve_jobs(opt.jobs),
            [&](std::size_t i) {
                return lint_one(names[i], make_shipped(names[i]), opt);
            },
            [&](std::size_t i, LintRun&& run) {
                emit(run, opt, i);
                errors += run.errors;
            });
        emit_close(opt, !names.empty());
    } else {
        const LintRun run = lint_one(opt.spec, make_shipped(opt.spec), opt);
        emit(run, opt, 0);
        emit_close(opt, true);
        errors = run.errors;
    }
    return errors == 0 ? 0 : 1;
}
