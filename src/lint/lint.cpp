#include "lint/lint.hpp"

namespace st::lint {

const std::vector<PassInfo>& pass_catalog() {
    static const std::vector<PassInfo> catalog = {
        {"ring-endpoints",
         "SB indices in range, no self-loop rings, multi-rings >= 2 members"},
        {"channel-ring",
         "every channel's master-handshake ring joins the channel's SBs"},
        {"initial-holder",
         "exactly one initial token holder per ring and multi-ring"},
        {"isolated-sb", "no SB outside every ring and channel"},
        {"param-sanity",
         "hold/depth/data-bits/clock parameters within model bounds"},
        {"counter-width",
         "hold/recycle values fit the 8-bit tester-loadable counters"},
        {"recycle-feasibility",
         "R*T_local covers the nominal token absence per ring node"},
        {"fifo-provisioning",
         "burst occupancy vs. FIFO depth; static head-visibility margin"},
        {"clock-hazards",
         "clock-period ratio and async-restart-latency warnings"},
        {"deadlock-rules",
         "transitive-stall fixpoint over the dl::StallModel stations"},
    };
    return catalog;
}

LintReport lint(const sys::SocSpec& spec) {
    LintReport report;
    check_endpoints(spec, report);
    if (!report.ok()) {
        report.add(Severity::kNote, "ring-endpoints", "spec",
                   "structural errors above: schedule/occupancy passes "
                   "skipped (their arithmetic needs valid indices)");
        return report;
    }
    check_channel_ring(spec, report);
    check_initial_holder(spec, report);
    check_isolated_sb(spec, report);
    check_param_sanity(spec, report);
    check_counter_width(spec, report);
    for (const auto& sb : spec.sbs) {
        if (dl::effective_period(sb) == 0) {
            report.add(Severity::kNote, "param-sanity", "spec",
                       "zero clock period above: timing passes skipped "
                       "(their arithmetic divides by the local period)");
            return report;
        }
    }
    const dl::StallModel stalls = dl::build_stall_model(spec);
    check_recycle_feasibility(stalls, report);
    check_fifo_provisioning(spec, report);
    check_clock_hazards(spec, report);
    check_deadlock_rules(stalls, report);
    return report;
}

}  // namespace st::lint
