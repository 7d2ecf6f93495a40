#include "system/delay_config.hpp"

#include <stdexcept>

#include "system/soc.hpp"

namespace st::sys {

DelayConfig DelayConfig::nominal(const SocSpec& spec) {
    DelayConfig c;
    c.fifo_pct.assign(spec.channels.size(), 100);
    c.ring_ab_pct.assign(spec.rings.size(), 100);
    c.ring_ba_pct.assign(spec.rings.size(), 100);
    c.clock_pct.assign(spec.sbs.size(), 100);
    return c;
}

unsigned DelayConfig::get(std::size_t dim) const {
    if (dim < fifo_pct.size()) return fifo_pct[dim];
    dim -= fifo_pct.size();
    if (dim < ring_ab_pct.size()) return ring_ab_pct[dim];
    dim -= ring_ab_pct.size();
    if (dim < ring_ba_pct.size()) return ring_ba_pct[dim];
    dim -= ring_ba_pct.size();
    if (dim < clock_pct.size()) return clock_pct[dim];
    throw std::out_of_range("DelayConfig::get: bad dimension");
}

void DelayConfig::set(std::size_t dim, unsigned pct) {
    if (dim < fifo_pct.size()) {
        fifo_pct[dim] = pct;
        return;
    }
    dim -= fifo_pct.size();
    if (dim < ring_ab_pct.size()) {
        ring_ab_pct[dim] = pct;
        return;
    }
    dim -= ring_ab_pct.size();
    if (dim < ring_ba_pct.size()) {
        ring_ba_pct[dim] = pct;
        return;
    }
    dim -= ring_ba_pct.size();
    if (dim < clock_pct.size()) {
        clock_pct[dim] = pct;
        return;
    }
    throw std::out_of_range("DelayConfig::set: bad dimension");
}

std::string DelayConfig::dim_name(std::size_t dim) const {
    if (dim < fifo_pct.size()) return "fifo" + std::to_string(dim);
    dim -= fifo_pct.size();
    if (dim < ring_ab_pct.size()) return "ring" + std::to_string(dim) + ".ab";
    dim -= ring_ab_pct.size();
    if (dim < ring_ba_pct.size()) return "ring" + std::to_string(dim) + ".ba";
    dim -= ring_ba_pct.size();
    if (dim < clock_pct.size()) return "clk" + std::to_string(dim);
    throw std::out_of_range("DelayConfig::dim_name: bad dimension");
}

SocSpec apply(const SocSpec& nominal, const DelayConfig& cfg) {
    if (cfg.fifo_pct.size() != nominal.channels.size() ||
        cfg.ring_ab_pct.size() != nominal.rings.size() ||
        cfg.ring_ba_pct.size() != nominal.rings.size() ||
        cfg.clock_pct.size() != nominal.sbs.size()) {
        throw std::invalid_argument("DelayConfig shape does not match SocSpec");
    }
    SocSpec out = nominal;
    for (std::size_t i = 0; i < out.channels.size(); ++i) {
        auto& f = out.channels[i].fifo;
        f.stage_delay = sim::scale_percent(f.stage_delay, cfg.fifo_pct[i]);
    }
    for (std::size_t i = 0; i < out.rings.size(); ++i) {
        out.rings[i].delay_ab =
            sim::scale_percent(out.rings[i].delay_ab, cfg.ring_ab_pct[i]);
        out.rings[i].delay_ba =
            sim::scale_percent(out.rings[i].delay_ba, cfg.ring_ba_pct[i]);
    }
    for (std::size_t i = 0; i < out.sbs.size(); ++i) {
        auto& c = out.sbs[i].clock;
        c.base_period = sim::scale_percent(c.base_period, cfg.clock_pct[i]);
    }
    return out;
}

void apply_live(Soc& soc, const DelayConfig& cfg) {
    const SocSpec& nominal = soc.spec();
    if (cfg.fifo_pct.size() != nominal.channels.size() ||
        cfg.ring_ab_pct.size() != nominal.rings.size() ||
        cfg.ring_ba_pct.size() != nominal.rings.size() ||
        cfg.clock_pct.size() != nominal.sbs.size()) {
        throw std::invalid_argument("DelayConfig shape does not match SocSpec");
    }
    for (std::size_t i = 0; i < nominal.channels.size(); ++i) {
        soc.fifo(i).set_stage_delay(sim::scale_percent(
            nominal.channels[i].fifo.stage_delay, cfg.fifo_pct[i]));
    }
    for (std::size_t i = 0; i < nominal.rings.size(); ++i) {
        // Hop 0 carries a -> b (the Soc adds node_a first), hop 1 b -> a.
        soc.ring(i).set_hop_delay(
            0, sim::scale_percent(nominal.rings[i].delay_ab,
                                  cfg.ring_ab_pct[i]));
        soc.ring(i).set_hop_delay(
            1, sim::scale_percent(nominal.rings[i].delay_ba,
                                  cfg.ring_ba_pct[i]));
    }
    for (std::size_t i = 0; i < nominal.sbs.size(); ++i) {
        soc.wrapper(i).clock().set_base_period(sim::scale_percent(
            nominal.sbs[i].clock.base_period, cfg.clock_pct[i]));
    }
}

}  // namespace st::sys
