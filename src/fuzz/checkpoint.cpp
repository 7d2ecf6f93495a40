#include "fuzz/checkpoint.hpp"

#include <string>
#include <utility>

namespace st::fuzz {

namespace {

constexpr std::uint16_t kProgressVersion = 2;  // 1: three events per edge

/// Read one enum byte, rejecting any value at or past `count`: a byte this
/// build defines no enumerator for.
template <typename E>
E read_enum(snap::StateReader& r, std::size_t count, const char* what) {
    const std::uint8_t v = r.u8();
    if (v >= count) {
        throw snap::SnapshotError("campaign progress image has unknown " +
                                  std::string(what) + " " +
                                  std::to_string(v));
    }
    return static_cast<E>(v);
}

constexpr std::size_t kNumDirs =
    static_cast<std::size_t>(verify::IoEvent::Dir::kOut) + 1;
constexpr std::size_t kNumLocusKinds =
    static_cast<std::size_t>(verify::MismatchLocus::Kind::kMissingSb) + 1;

void write_pct_vector(snap::StateWriter& w, const std::vector<unsigned>& v) {
    w.u64(v.size());
    for (const unsigned pct : v) w.u32(static_cast<std::uint32_t>(pct));
}

std::vector<unsigned> read_pct_vector(snap::StateReader& r) {
    std::vector<unsigned> v;
    for (std::uint64_t n = r.u64(); n > 0; --n) v.push_back(r.u32());
    return v;
}

void write_event(snap::StateWriter& w, const verify::IoEvent& e) {
    w.u64(e.cycle);
    w.u8(static_cast<std::uint8_t>(e.dir));
    w.u32(e.port);
    w.u64(e.word);
}

verify::IoEvent read_event(snap::StateReader& r) {
    verify::IoEvent e;
    e.cycle = r.u64();
    e.dir = read_enum<verify::IoEvent::Dir>(r, kNumDirs, "event direction");
    e.port = r.u32();
    e.word = r.u64();
    return e;
}

void write_case(snap::StateWriter& w, std::uint64_t index,
                const FuzzCase& c) {
    w.begin("case");
    w.u64(index);
    write_pct_vector(w, c.delays.fifo_pct);
    write_pct_vector(w, c.delays.ring_ab_pct);
    write_pct_vector(w, c.delays.ring_ba_pct);
    write_pct_vector(w, c.delays.clock_pct);
    w.u64(c.faults.size());
    for (const Fault& f : c.faults) {
        w.u8(static_cast<std::uint8_t>(f.cls));
        w.u64(f.unit);
        w.u64(f.side);
        w.u64(f.nth);
        w.u64(f.value);
    }
    w.end();
}

std::uint64_t read_case(snap::StateReader& r, FuzzCase& c) {
    r.enter("case");
    const std::uint64_t index = r.u64();
    c.delays.fifo_pct = read_pct_vector(r);
    c.delays.ring_ab_pct = read_pct_vector(r);
    c.delays.ring_ba_pct = read_pct_vector(r);
    c.delays.clock_pct = read_pct_vector(r);
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        Fault f;
        f.cls = read_enum<FaultClass>(r, kNumFaultClasses, "fault class");
        f.unit = static_cast<std::size_t>(r.u64());
        f.side = static_cast<std::size_t>(r.u64());
        f.nth = r.u64();
        f.value = r.u64();
        c.faults.push_back(f);
    }
    r.leave();
    return index;
}

void write_report(snap::StateWriter& w, const RunReport& rep) {
    w.begin("report");
    w.u8(static_cast<std::uint8_t>(rep.outcome));
    w.b(rep.goal_met);
    w.u64(rep.faults_fired);
    w.u64(rep.events);
    w.u64(rep.protocol_errors);
    w.str(rep.detail);
    const verify::MismatchLocus& l = rep.locus;
    w.u8(static_cast<std::uint8_t>(l.kind));
    w.str(l.sb);
    w.u64(l.index);
    w.u64(l.cycle);
    w.u32(l.port);
    w.b(l.expected.has_value());
    if (l.expected) write_event(w, *l.expected);
    w.b(l.actual.has_value());
    if (l.actual) write_event(w, *l.actual);
    w.end();
}

RunReport read_report(snap::StateReader& r) {
    RunReport rep;
    r.enter("report");
    rep.outcome = read_enum<Outcome>(r, kNumOutcomes, "outcome");
    rep.goal_met = r.b();
    rep.faults_fired = r.u64();
    rep.events = r.u64();
    rep.protocol_errors = r.u64();
    rep.detail = r.str();
    verify::MismatchLocus& l = rep.locus;
    l.kind = read_enum<verify::MismatchLocus::Kind>(r, kNumLocusKinds,
                                                     "mismatch locus kind");
    l.sb = r.str();
    l.index = r.u64();
    l.cycle = r.u64();
    l.port = r.u32();
    if (r.b()) l.expected = read_event(r);
    if (r.b()) l.actual = read_event(r);
    r.leave();
    return rep;
}

}  // namespace

bool CampaignKey::same_campaign(const CampaignKey& other) const {
    CampaignKey a = *this;
    CampaignKey b = other;
    a.shard = runner::Shard{};
    b.shard = runner::Shard{};
    return a == b;
}

CampaignKey make_campaign_key(const CampaignConfig& cfg, std::uint64_t seed,
                              std::uint64_t n_runs, runner::Shard shard) {
    CampaignKey k;
    k.spec_name = cfg.spec_name;
    k.cycles = cfg.cycles;
    k.max_events = cfg.max_events;
    k.seed = seed;
    k.n_runs = n_runs;
    k.classes = cfg.classes;
    k.max_faults = cfg.max_faults;
    k.warmup_cycles = cfg.warmup_cycles;
    k.shard = shard;
    return k;
}

snap::Snapshot encode_progress(const CampaignProgress& p) {
    snap::StateWriter w;
    w.begin_group("stcampaign", kProgressVersion);

    w.begin("key");
    w.str(p.key.spec_name);
    w.u64(p.key.cycles);
    w.u64(p.key.max_events);
    w.u64(p.key.seed);
    w.u64(p.key.n_runs);
    w.u64(p.key.classes.size());
    for (const FaultClass cls : p.key.classes) {
        w.u8(static_cast<std::uint8_t>(cls));
    }
    w.u64(p.key.max_faults);
    w.u64(p.key.warmup_cycles);
    // The retired warm-up-fork and streaming mode bytes: always on.
    w.b(true);
    w.b(true);
    w.u64(p.key.shard.index);
    w.u64(p.key.shard.count);
    w.end();

    w.begin("progress");
    w.u64(p.completed);
    w.end();

    w.begin_group("summary");
    w.begin("counts");
    w.u64(p.summary.runs);
    for (std::size_t i = 0; i < kNumOutcomes; ++i) {
        w.u64(p.summary.by_outcome[i]);
    }
    w.u64(p.summary.runs_with_fault_fired);
    w.u64(p.summary.failures_dropped);
    w.u64(p.summary.failures.size());
    w.end();
    for (const CampaignSummary::Failure& f : p.summary.failures) {
        w.begin_group("failure");
        write_case(w, f.index, f.c);
        write_report(w, f.report);
        w.end();
    }
    w.end();  // summary

    w.end();  // stcampaign
    return snap::Snapshot(w.take());
}

CampaignProgress decode_progress(const snap::Snapshot& snap) {
    CampaignProgress p;
    snap::StateReader r(snap.bytes());
    if (r.enter("stcampaign", kProgressVersion) < kProgressVersion) {
        throw snap::SnapshotError("campaign progress image is version 1");
    }

    r.enter("key");
    p.key.spec_name = r.str();
    p.key.cycles = r.u64();
    p.key.max_events = r.u64();
    p.key.seed = r.u64();
    p.key.n_runs = r.u64();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        p.key.classes.push_back(
            read_enum<FaultClass>(r, kNumFaultClasses, "fault class"));
    }
    p.key.max_faults = r.u64();
    p.key.warmup_cycles = r.u64();
    // Images from builds that still had the re-simulated warm-up and the
    // batch verdict record those modes as 0 here; this build runs neither.
    if (!r.b()) {
        throw snap::SnapshotError(
            "campaign key has the warm-up fork off: the re-simulated "
            "warm-up mode it names was removed");
    }
    if (!r.b()) {
        throw snap::SnapshotError(
            "campaign key has streaming off: the batch verdict mode it "
            "names was removed");
    }
    p.key.shard.index = r.u64();
    p.key.shard.count = r.u64();
    r.leave();

    r.enter("progress");
    p.completed = r.u64();
    r.leave();

    r.enter("summary");
    r.enter("counts");
    p.summary.runs = r.u64();
    for (std::size_t i = 0; i < kNumOutcomes; ++i) {
        p.summary.by_outcome[i] = r.u64();
    }
    p.summary.runs_with_fault_fired = r.u64();
    p.summary.failures_dropped = r.u64();
    const std::uint64_t n_failures = r.u64();
    r.leave();
    for (std::uint64_t i = 0; i < n_failures; ++i) {
        r.enter("failure");
        CampaignSummary::Failure f;
        f.index = read_case(r, f.c);
        f.report = read_report(r);
        r.leave();
        p.summary.failures.push_back(std::move(f));
    }
    r.leave();  // summary

    r.leave();  // stcampaign
    if (!r.done()) {
        throw snap::SnapshotError(
            "campaign progress image has trailing bytes");
    }
    return p;
}

void save_progress_file(const CampaignProgress& p, const std::string& path) {
    encode_progress(p).save_file_atomic(path);
}

CampaignProgress load_progress_file(const std::string& path) {
    return decode_progress(snap::Snapshot::load_file(path));
}

}  // namespace st::fuzz
