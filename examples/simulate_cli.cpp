// simulate_cli: command-line driver for the synchro-tokens simulator — run
// any built-in topology with optional delay perturbation, dump statistics,
// the timing audit, the deadlock rule check, and (optionally) a full VCD.
//
//   $ ./examples/simulate_cli --topology triangle --cycles 500
//   $ ./examples/simulate_cli --topology mesh --perturb 150 --report
//   $ ./examples/simulate_cli --topology pair --vcd trace.vcd

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "deadlock/stall.hpp"
#include "system/delay_config.hpp"
#include "system/invariant_monitor.hpp"
#include "system/soc.hpp"
#include "system/stats.hpp"
#include "system/testbenches.hpp"
#include "system/vcd_probe.hpp"

namespace {

using namespace st;

struct Options {
    std::string topology = "pair";
    std::uint64_t cycles = 300;
    unsigned perturb = 100;  // percent applied to every datapath delay
    std::string vcd_path;
    bool report = true;
    bool audit = true;
};

void usage() {
    std::printf(
        "usage: simulate_cli [options]\n"
        "  --topology pair|triangle|chain|mesh|wide|bus (default pair)\n"
        "  --cycles N           local cycles to simulate (default 300)\n"
        "  --perturb PCT        scale all datapath delays to PCT%% (default 100)\n"
        "  --vcd FILE           dump a full-system VCD\n"
        "  --no-report          skip the statistics report\n"
        "  --no-audit           skip timing audit and deadlock rules\n");
}

sys::SocSpec make_spec(const std::string& topology) {
    if (topology == "pair") return sys::make_pair_spec();
    if (topology == "triangle") return sys::make_triangle_spec();
    if (topology == "chain") return sys::make_chain_spec();
    if (topology == "mesh") return sys::make_mesh_spec();
    if (topology == "wide") return sys::make_wide_pair_spec();
    if (topology == "bus") return sys::make_bus_spec();
    std::fprintf(stderr, "unknown topology '%s'\n", topology.c_str());
    std::exit(2);
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
        if (arg == "--topology") {
            opt.topology = next();
        } else if (arg == "--cycles") {
            opt.cycles = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--perturb") {
            opt.perturb = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        } else if (arg == "--vcd") {
            opt.vcd_path = next();
        } else if (arg == "--no-report") {
            opt.report = false;
        } else if (arg == "--no-audit") {
            opt.audit = false;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            return 2;
        }
    }

    auto spec = make_spec(opt.topology);
    auto cfg = sys::DelayConfig::nominal(spec);
    if (opt.perturb != 100) {
        cfg.fifo_pct.assign(cfg.fifo_pct.size(), opt.perturb);
        cfg.ring_ab_pct.assign(cfg.ring_ab_pct.size(), opt.perturb);
        cfg.ring_ba_pct.assign(cfg.ring_ba_pct.size(), opt.perturb);
    }

    if (opt.audit) {
        const auto stalls = dl::build_stall_model(spec);
        const auto fp = dl::solve_stalls(stalls);
        sim::Time worst = 0;
        for (const sim::Time s : fp.stall) worst = std::max(worst, s);
        std::printf("deadlock rules: %s over %zu station(s); worst stall "
                    "bound %s\n",
                    fp.converged ? "OK, stall fixpoint converges"
                                 : "DEADLOCK RISK, stall fixpoint diverges",
                    stalls.stations.size(), sim::format_time(worst).c_str());
    }

    sys::Soc soc(sys::apply(spec, cfg));
    sys::InvariantMonitor monitor(soc);
    std::unique_ptr<std::ofstream> vcd_file;
    std::unique_ptr<sys::VcdProbe> vcd;
    if (!opt.vcd_path.empty()) {
        vcd_file = std::make_unique<std::ofstream>(opt.vcd_path);
        vcd = std::make_unique<sys::VcdProbe>(soc, *vcd_file);
    }

    const bool done = soc.run_cycles(opt.cycles, sim::ms(500));
    std::printf("%s: %s after %s\n", opt.topology.c_str(),
                done          ? "completed"
                : soc.deadlocked() ? "DEADLOCKED"
                                   : "deadline hit",
                sim::format_time(soc.scheduler().now()).c_str());

    if (opt.audit) {
        const auto audit = soc.audit_timing();
        std::printf("timing audit: %s\n", audit.summary().c_str());
    }
    if (!monitor.violations().empty()) {
        std::printf("INVARIANT VIOLATIONS:\n");
        for (const auto& v : monitor.violations()) {
            std::printf("  %s\n", v.c_str());
        }
        return 1;
    }
    if (opt.report) {
        std::printf("%s", sys::collect_stats(soc).to_string().c_str());
    }
    if (vcd) std::printf("VCD written to %s\n", opt.vcd_path.c_str());
    return done ? 0 : 1;
}
