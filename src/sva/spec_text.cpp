#include "sva/spec_text.hpp"

#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "synchro/token_node.hpp"
#include "workload/noc.hpp"
#include "workload/traffic.hpp"

namespace st::sva {

namespace {

// --- writer ----------------------------------------------------------------

const char* noc_mode_name(unsigned mode) {
    switch (mode) {
        case 0: return "mesh";
        case 1: return "torus";
        case 2: return "star";
    }
    throw std::invalid_argument("stspec: unknown noc mode " +
                                std::to_string(mode));
}

void write_node(std::ostringstream& os, const NodeDoc& n) {
    os << n.hold << "," << n.recycle << ",";
    if (n.has_initial_recycle) {
        os << n.initial_recycle;
    } else {
        os << "-";
    }
    os << "," << (n.holder ? "h" : "w");
}

// --- reader ----------------------------------------------------------------

struct Cursor {
    std::size_t line = 0;  ///< 1-based, for error messages
};

[[noreturn]] void fail(const Cursor& at, const std::string& what) {
    throw std::runtime_error("stspec line " + std::to_string(at.line) + ": " +
                             what);
}

std::vector<std::string> split(const std::string& s, char sep) {
    std::vector<std::string> out;
    std::string cur;
    for (const char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

std::uint64_t parse_u64(const Cursor& at, const std::string& s) {
    if (s.empty()) fail(at, "expected a number, got an empty field");
    std::size_t pos = 0;
    std::uint64_t v = 0;
    try {
        v = std::stoull(s, &pos, 0);  // base 0: accepts 0x... seeds
    } catch (const std::exception&) {
        fail(at, "malformed number '" + s + "'");
    }
    if (pos != s.size()) fail(at, "trailing junk in number '" + s + "'");
    return v;
}

/// parse_u64 for a field narrower than 64 bits. A value that does not fit
/// is rejected by name rather than truncated, so every accepted file
/// round-trips.
template <typename T>
T parse_field(const Cursor& at, const std::string& field,
              const std::string& s) {
    const std::uint64_t v = parse_u64(at, s);
    if (v > std::numeric_limits<T>::max()) {
        fail(at, "field '" + field + "' value " + s + " exceeds " +
                     std::to_string(std::numeric_limits<T>::max()));
    }
    return static_cast<T>(v);
}

NodeDoc parse_node(const Cursor& at, const std::string& s) {
    const auto f = split(s, ',');
    if (f.size() != 4) {
        fail(at, "node '" + s + "' wants hold,recycle,initrec|-,h|w");
    }
    NodeDoc n;
    n.hold = parse_field<std::uint32_t>(at, "hold", f[0]);
    n.recycle = parse_field<std::uint32_t>(at, "recycle", f[1]);
    if (f[2] != "-") {
        n.has_initial_recycle = true;
        n.initial_recycle =
            parse_field<std::uint32_t>(at, "initial recycle", f[2]);
    }
    if (f[3] == "h") {
        n.holder = true;
    } else if (f[3] == "w") {
        n.holder = false;
    } else {
        fail(at, "node role must be 'h' or 'w', got '" + f[3] + "'");
    }
    return n;
}

/// key=value fields after the record name, order-insensitive.
class Fields {
  public:
    Fields(const Cursor& at, const std::vector<std::string>& tokens,
           std::size_t first)
        : at_(at) {
        for (std::size_t i = first; i < tokens.size(); ++i) {
            const auto eq = tokens[i].find('=');
            if (eq == std::string::npos || eq == 0) {
                fail(at_, "expected key=value, got '" + tokens[i] + "'");
            }
            kv_.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
        }
    }

    bool has(const std::string& key) const {
        for (const auto& [k, v] : kv_) {
            if (k == key) return true;
        }
        return false;
    }

    std::string get(const std::string& key) const {
        for (const auto& [k, v] : kv_) {
            if (k == key) return v;
        }
        fail(at_, "missing field '" + key + "'");
    }

    std::uint64_t num(const std::string& key) const {
        return parse_u64(at_, get(key));
    }

    template <typename T>
    T narrow(const std::string& key) const {
        return parse_field<T>(at_, key, get(key));
    }

  private:
    const Cursor& at_;
    std::vector<std::pair<std::string, std::string>> kv_;
};

std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> out;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok) out.push_back(tok);
    return out;
}

}  // namespace

std::string to_text(const SpecDoc& doc) {
    std::ostringstream os;
    os << "stspec v1\n";
    for (const auto& sb : doc.sbs) {
        os << "sb " << sb.name << " period=" << sb.period
           << " divider=" << sb.divider << " phase=" << sb.phase
           << " restart=" << sb.restart;
        if (sb.has_noc) {
            os << " kernel=noc:" << noc_mode_name(sb.noc.mode) << ","
               << sb.noc.x << "," << sb.noc.y << "," << sb.noc.width << ","
               << sb.noc.height << "," << sb.noc.nodes << ","
               << sb.noc.inject_period << ",0x" << std::hex << sb.seed
               << std::dec;
        } else {
            os << " kernel=traffic:0x" << std::hex << sb.seed << std::dec;
        }
        os << "\n";
    }
    for (const auto& r : doc.rings) {
        os << "ring " << r.name << " a=" << r.sb_a << " b=" << r.sb_b
           << " dab=" << r.delay_ab << " dba=" << r.delay_ba << " na=";
        write_node(os, r.node_a);
        os << " nb=";
        write_node(os, r.node_b);
        os << "\n";
    }
    for (const auto& m : doc.multi_rings) {
        os << "mring " << m.name << " members=";
        for (std::size_t i = 0; i < m.members.size(); ++i) {
            if (i) os << ";";
            os << m.members[i].sb << ":" << m.members[i].hop_delay << ":";
            write_node(os, m.members[i].node);
        }
        os << "\n";
    }
    for (const auto& c : doc.channels) {
        os << "chan " << c.name << " from=" << c.from_sb << " to=" << c.to_sb
           << (c.on_multi_ring ? " mring=" : " ring=") << c.ring
           << " depth=" << c.depth << " stage=" << c.stage_delay
           << " bits=" << c.data_bits << " head=" << c.head_req << ","
           << c.head_ack << " tail=" << c.tail_req << "," << c.tail_ack
           << "\n";
    }
    return os.str();
}

SpecDoc parse_spec_text(const std::string& text) {
    SpecDoc doc;
    Cursor at;
    bool saw_header = false;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        ++at.line;
        const auto tokens = tokenize(line);
        if (tokens.empty() || tokens[0][0] == '#') continue;
        if (!saw_header) {
            if (tokens.size() != 2 || tokens[0] != "stspec" ||
                tokens[1] != "v1") {
                fail(at, "expected header 'stspec v1'");
            }
            saw_header = true;
            continue;
        }
        if (tokens.size() < 2) fail(at, "record wants a kind and a name");
        const std::string& kind = tokens[0];
        const Fields f(at, tokens, 2);
        if (kind == "sb") {
            SbDoc sb;
            sb.name = tokens[1];
            sb.period = f.num("period");
            sb.divider = f.narrow<unsigned>("divider");
            sb.phase = f.num("phase");
            sb.restart = f.num("restart");
            const std::string kernel = f.get("kernel");
            const std::string traffic_prefix = "traffic:";
            const std::string noc_prefix = "noc:";
            if (kernel.rfind(traffic_prefix, 0) == 0) {
                sb.seed =
                    parse_u64(at, kernel.substr(traffic_prefix.size()));
            } else if (kernel.rfind(noc_prefix, 0) == 0) {
                const auto bits =
                    split(kernel.substr(noc_prefix.size()), ',');
                if (bits.size() != 8) {
                    fail(at, "noc kernel wants "
                             "mode,x,y,w,h,nodes,inject,seed");
                }
                sb.has_noc = true;
                if (bits[0] == "mesh") {
                    sb.noc.mode = 0;
                } else if (bits[0] == "torus") {
                    sb.noc.mode = 1;
                } else if (bits[0] == "star") {
                    sb.noc.mode = 2;
                } else {
                    fail(at, "unknown noc mode '" + bits[0] + "'");
                }
                // Widths of the wl::NocKernel::Config fields.
                sb.noc.x = parse_field<std::uint8_t>(at, "noc x", bits[1]);
                sb.noc.y = parse_field<std::uint8_t>(at, "noc y", bits[2]);
                sb.noc.width =
                    parse_field<std::uint8_t>(at, "noc width", bits[3]);
                sb.noc.height =
                    parse_field<std::uint8_t>(at, "noc height", bits[4]);
                sb.noc.nodes =
                    parse_field<std::uint16_t>(at, "noc nodes", bits[5]);
                sb.noc.inject_period =
                    parse_field<std::uint32_t>(at, "noc inject", bits[6]);
                sb.seed = parse_u64(at, bits[7]);
            } else {
                fail(at, "unsupported kernel '" + kernel +
                             "' (traffic:<seed> or noc:<...>)");
            }
            doc.sbs.push_back(std::move(sb));
        } else if (kind == "ring") {
            RingDoc r;
            r.name = tokens[1];
            r.sb_a = f.num("a");
            r.sb_b = f.num("b");
            r.delay_ab = f.num("dab");
            r.delay_ba = f.num("dba");
            r.node_a = parse_node(at, f.get("na"));
            r.node_b = parse_node(at, f.get("nb"));
            doc.rings.push_back(std::move(r));
        } else if (kind == "mring") {
            MultiRingDoc m;
            m.name = tokens[1];
            for (const auto& part : split(f.get("members"), ';')) {
                const auto bits = split(part, ':');
                if (bits.size() != 3) {
                    fail(at, "member '" + part + "' wants sb:hop:node");
                }
                MemberDoc mem;
                mem.sb = parse_u64(at, bits[0]);
                mem.hop_delay = parse_u64(at, bits[1]);
                mem.node = parse_node(at, bits[2]);
                m.members.push_back(std::move(mem));
            }
            doc.multi_rings.push_back(std::move(m));
        } else if (kind == "chan") {
            ChannelDoc c;
            c.name = tokens[1];
            c.from_sb = f.num("from");
            c.to_sb = f.num("to");
            if (f.has("mring")) {
                c.on_multi_ring = true;
                c.ring = f.num("mring");
            } else {
                c.ring = f.num("ring");
            }
            c.depth = f.num("depth");
            c.stage_delay = f.num("stage");
            c.data_bits = f.narrow<unsigned>("bits");
            const auto head = split(f.get("head"), ',');
            const auto tail = split(f.get("tail"), ',');
            if (head.size() != 2 || tail.size() != 2) {
                fail(at, "head/tail want req,ack delay pairs");
            }
            c.head_req = parse_u64(at, head[0]);
            c.head_ack = parse_u64(at, head[1]);
            c.tail_req = parse_u64(at, tail[0]);
            c.tail_ack = parse_u64(at, tail[1]);
            doc.channels.push_back(std::move(c));
        } else {
            fail(at, "unknown record kind '" + kind + "'");
        }
    }
    if (!saw_header) fail(at, "empty input (no 'stspec v1' header)");
    return doc;
}

SpecDoc load_spec_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open spec file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return parse_spec_text(buf.str());
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

namespace {

core::TokenNode::Params to_params(const NodeDoc& n) {
    core::TokenNode::Params p;
    p.hold = n.hold;
    p.recycle = n.recycle;
    p.initial_holder = n.holder;
    if (n.has_initial_recycle) p.initial_recycle = n.initial_recycle;
    return p;
}

}  // namespace

sys::SocSpec to_spec(const SpecDoc& doc) {
    sys::SocSpec spec;
    for (std::size_t i = 0; i < doc.sbs.size(); ++i) {
        const auto& sb = doc.sbs[i];
        sys::SbSpec s;
        s.name = sb.name;
        s.clock.base_period = sb.period;
        s.clock.divider = sb.divider;
        s.clock.phase = sb.phase;
        s.clock.restart_delay = sb.restart;
        const std::uint64_t seed = sb.seed;
        if (sb.has_noc) {
            // Output port k of SB i is the k-th channel with from_sb == i
            // (Soc attaches outputs in channel order); each port's
            // neighbour coordinates come from the destination SB's own noc
            // record, so the routing table is derived, never stored.
            wl::NocKernel::Config cfg;
            cfg.mode = static_cast<wl::NocKernel::Config::Mode>(sb.noc.mode);
            cfg.x = static_cast<std::uint8_t>(sb.noc.x);
            cfg.y = static_cast<std::uint8_t>(sb.noc.y);
            cfg.width = static_cast<std::uint8_t>(sb.noc.width);
            cfg.height = static_cast<std::uint8_t>(sb.noc.height);
            cfg.nodes = static_cast<std::uint16_t>(sb.noc.nodes);
            cfg.seed = seed;
            cfg.inject_period = sb.noc.inject_period;
            for (const auto& c : doc.channels) {
                if (c.from_sb != i) continue;
                if (c.to_sb >= doc.sbs.size() ||
                    !doc.sbs[c.to_sb].has_noc) {
                    throw std::runtime_error(
                        "stspec: noc SB '" + sb.name + "' channel '" +
                        c.name + "' targets a non-noc SB");
                }
                const auto& peer = doc.sbs[c.to_sb].noc;
                wl::NocKernel::Config::OutPort port;
                port.x = static_cast<std::uint8_t>(peer.x);
                port.y = static_cast<std::uint8_t>(peer.y);
                cfg.ports.push_back(port);
            }
            s.make_kernel = [cfg] {
                return std::make_unique<wl::NocKernel>(cfg);
            };
        } else {
            s.make_kernel = [seed] {
                return std::make_unique<wl::TrafficKernel>(seed);
            };
        }
        spec.sbs.push_back(std::move(s));
    }
    for (const auto& r : doc.rings) {
        sys::RingSpec ring;
        ring.name = r.name;
        ring.sb_a = r.sb_a;
        ring.sb_b = r.sb_b;
        ring.node_a = to_params(r.node_a);
        ring.node_b = to_params(r.node_b);
        ring.delay_ab = r.delay_ab;
        ring.delay_ba = r.delay_ba;
        spec.rings.push_back(std::move(ring));
    }
    for (const auto& m : doc.multi_rings) {
        sys::MultiRingSpec mr;
        mr.name = m.name;
        for (const auto& mem : m.members) {
            sys::MultiRingSpec::Member member;
            member.sb = mem.sb;
            member.hop_delay = mem.hop_delay;
            member.node = to_params(mem.node);
            mr.members.push_back(std::move(member));
        }
        spec.multi_rings.push_back(std::move(mr));
    }
    for (const auto& c : doc.channels) {
        sys::ChannelSpec ch;
        ch.name = c.name;
        ch.from_sb = c.from_sb;
        ch.to_sb = c.to_sb;
        ch.ring = c.ring;
        ch.on_multi_ring = c.on_multi_ring;
        ch.fifo.depth = c.depth;
        ch.fifo.stage_delay = c.stage_delay;
        ch.fifo.data_bits = c.data_bits;
        ch.fifo.head_req_delay = c.head_req;
        ch.fifo.head_ack_delay = c.head_ack;
        ch.tail_link.data_bits = c.data_bits;
        ch.tail_link.req_delay = c.tail_req;
        ch.tail_link.ack_delay = c.tail_ack;
        spec.channels.push_back(std::move(ch));
    }
    return spec;
}

}  // namespace st::sva
