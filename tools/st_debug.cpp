// st_debug: deterministic debug driver for synchro-tokens SoCs.
//
// Commands execute in argument order, like a batch debugger script, against
// one Soc elaborated from --spec (or restored via --load). Because the
// simulation is deterministic in local-cycle space, two sessions that issue
// the same commands stop in bit-identical states — which is what makes
// save/restore/diff a meaningful workflow:
//
//   $ ./tools/st_debug --spec pair --break 0:50 --run --save a.snap
//   $ ./tools/st_debug --spec pair --load a.snap --save b.snap
//   $ ./tools/st_debug --diff a.snap b.snap          # identical
//
//   $ ./tools/st_debug --spec triangle --break 1:30 --run --step 200 --digest
//
// Exit status: 0 when every command succeeded (--diff: snapshots identical),
// 1 when --diff found divergence, 2 on usage / I/O errors.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "debug/driver.hpp"
#include "snap/snapshot.hpp"
#include "system/testbenches.hpp"

namespace {

using namespace st;

void usage() {
    std::printf(
        "usage: st_debug [commands...]   (executed in order)\n"
        "  --spec NAME        testbench spec");
    for (const auto& s : sys::named_specs()) std::printf("|%s", s.c_str());
    std::printf(
        " (default pair)\n"
        "  --break SB:CYCLE   add a breakpoint: stop when SB reaches the\n"
        "                     local cycle (repeatable)\n"
        "  --run              run until a breakpoint, quiescence, or the\n"
        "                     deadline; prints the stop reason\n"
        "  --step N           execute N scheduler events, then settle; a\n"
        "                     clock edge is one event with its commit and\n"
        "                     enable decision\n"
        "  --deadline-us N    simulated-time budget for --run (default 1000)\n"
        "  --save FILE        write a snapshot of the current state\n"
        "  --load FILE        restore FILE into a fresh Soc (same spec)\n"
        "  --digest           print the 64-bit state digest\n"
        "  --cycles           print each SB's local cycle count\n"
        "  --race-audit       enable the scheduler same-slot race audit for\n"
        "                     subsequent commands; the setting survives\n"
        "                     --load (resumed sessions audit identically)\n"
        "  --races            print the number of races recorded so far\n"
        "  --diff A B         compare two snapshot files; lists differing\n"
        "                     chunks, exit 1 unless identical\n");
}

struct Session {
    std::string spec_name = "pair";
    sim::Time deadline = sim::us(1000);
    std::unique_ptr<debug::Driver> driver;

    debug::Driver& get() {
        if (!driver) {
            driver = std::make_unique<debug::Driver>(
                sys::make_named_spec(spec_name));
        }
        return *driver;
    }
};

bool parse_breakpoint(const std::string& s, debug::Breakpoint& bp) {
    const auto colon = s.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
        return false;
    }
    bp.sb = std::strtoull(s.substr(0, colon).c_str(), nullptr, 0);
    bp.cycle = std::strtoull(s.substr(colon + 1).c_str(), nullptr, 0);
    return true;
}

void print_state(debug::Driver& drv, const sys::SocSpec& spec) {
    std::printf("t=%llu ps", static_cast<unsigned long long>(drv.now()));
    for (std::size_t i = 0; i < spec.sbs.size(); ++i) {
        std::printf(" %s=%llu", spec.sbs[i].name.c_str(),
                    static_cast<unsigned long long>(drv.cycle(i)));
    }
    std::printf("\n");
}

int diff_files(const std::string& a, const std::string& b) {
    const snap::Snapshot sa = snap::Snapshot::load_file(a);
    const snap::Snapshot sb = snap::Snapshot::load_file(b);
    const auto diffs = snap::diff_snapshots(sa, sb);
    if (diffs.empty()) {
        std::printf("identical: %s == %s (digest %016llx)\n", a.c_str(),
                    b.c_str(),
                    static_cast<unsigned long long>(sa.digest()));
        return 0;
    }
    std::printf("%zu differing chunk(s) between %s and %s:\n%s",
                diffs.size(), a.c_str(), b.c_str(),
                snap::format_diff(diffs).c_str());
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    Session ses;
    if (argc <= 1) {
        usage();
        return 2;
    }
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "st_debug: %s needs a value\n",
                                 arg.c_str());
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--spec") {
                ses.spec_name = next();
                if (ses.driver) {
                    std::fprintf(stderr,
                                 "st_debug: --spec must precede the first "
                                 "driver command\n");
                    return 2;
                }
            } else if (arg == "--deadline-us") {
                ses.deadline =
                    sim::us(std::strtoull(next().c_str(), nullptr, 0));
            } else if (arg == "--break") {
                debug::Breakpoint bp;
                if (!parse_breakpoint(next(), bp)) {
                    std::fprintf(stderr,
                                 "st_debug: --break wants SB:CYCLE\n");
                    return 2;
                }
                ses.get().add_breakpoint(bp);
            } else if (arg == "--run") {
                auto& drv = ses.get();
                const debug::StopInfo stop = drv.run(ses.deadline);
                std::printf("%s\n", debug::format_stop(stop).c_str());
                print_state(drv, drv.soc().spec());
            } else if (arg == "--step") {
                auto& drv = ses.get();
                const std::uint64_t n =
                    std::strtoull(next().c_str(), nullptr, 0);
                const std::uint64_t done = drv.step(n);
                std::printf("stepped %llu event(s)\n",
                            static_cast<unsigned long long>(done));
                print_state(drv, drv.soc().spec());
            } else if (arg == "--save") {
                const std::string path = next();
                ses.get().save(path);
                std::printf("saved %s (digest %016llx)\n", path.c_str(),
                            static_cast<unsigned long long>(
                                ses.get().digest()));
            } else if (arg == "--load") {
                const std::string path = next();
                ses.get().load(path);
                std::printf("loaded %s\n", path.c_str());
                print_state(ses.get(), ses.get().soc().spec());
            } else if (arg == "--digest") {
                std::printf("digest %016llx\n",
                            static_cast<unsigned long long>(
                                ses.get().digest()));
            } else if (arg == "--cycles") {
                print_state(ses.get(), ses.get().soc().spec());
            } else if (arg == "--race-audit") {
                ses.get().set_race_audit(true);
            } else if (arg == "--races") {
                std::printf("%zu race(s)\n", ses.get().races().size());
            } else if (arg == "--diff") {
                const std::string a = next();
                const std::string b = next();
                return diff_files(a, b);
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                usage();
                return 2;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "st_debug: %s\n", e.what());
        return 2;
    }
    return 0;
}
