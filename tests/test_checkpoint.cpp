// Tests for campaign checkpoint images, resume, and shard merge — the
// determinism contract extended across process boundaries: a campaign split
// into N shards, or killed and resumed at any reduction point, must produce
// the byte-identical summary of one uninterrupted single-process run.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/checkpoint.hpp"
#include "snap/snapshot.hpp"
#include "snap/state_io.hpp"

namespace {

using namespace st;

fuzz::CampaignConfig faulty_config() {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 80;
    cfg.classes = fuzz::all_fault_classes();
    cfg.max_faults = 2;
    return cfg;
}

/// A progress image with a non-trivial summary: real failures carrying
/// delay vectors, faults, loci, and expected/actual events.
fuzz::CampaignProgress sample_progress() {
    const fuzz::Campaign campaign(faulty_config());
    fuzz::CampaignProgress p;
    p.key = fuzz::make_campaign_key(campaign.config(), 9, 24,
                                    runner::Shard{1, 3});
    fuzz::CampaignControl ctl;
    ctl.shard = p.key.shard;
    p.summary = campaign.run(24, 9, {}, 2, ctl);
    p.completed = p.summary.runs;
    return p;
}

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "st_checkpoint_" + name;
}

// --- image round-trip ---

TEST(Checkpoint, EncodeDecodeRoundTrip) {
    const fuzz::CampaignProgress p = sample_progress();
    ASSERT_GT(p.summary.runs, 0u);
    const fuzz::CampaignProgress q =
        fuzz::decode_progress(fuzz::encode_progress(p));
    EXPECT_TRUE(p == q);
}

TEST(Checkpoint, FileRoundTripIsAtomicAndStable) {
    const fuzz::CampaignProgress p = sample_progress();
    const std::string path = temp_path("roundtrip.ckpt");
    fuzz::save_progress_file(p, path);
    // Overwrite in place (the atomic tmp+rename path) and reload.
    fuzz::save_progress_file(p, path);
    const fuzz::CampaignProgress q = fuzz::load_progress_file(path);
    EXPECT_TRUE(p == q);
    std::remove(path.c_str());
}

TEST(Checkpoint, RejectsNewerFormatVersion) {
    // Negative fixture: a hand-crafted image whose top-level chunk claims
    // version 3. A build that only understands up to version 2 must refuse
    // it rather than misparse the body.
    snap::StateWriter w;
    w.begin_group("stcampaign", 3);
    w.begin("key", 2);
    w.str("pair");
    w.end();
    w.end();
    EXPECT_THROW(fuzz::decode_progress(snap::Snapshot(w.take())),
                 snap::SnapshotError);
}

TEST(Checkpoint, RejectsTrailingBytes) {
    const fuzz::CampaignProgress p = sample_progress();
    snap::Snapshot img = fuzz::encode_progress(p);
    std::vector<std::uint8_t> bytes = img.bytes();
    bytes.push_back(0xAB);
    EXPECT_THROW(fuzz::decode_progress(snap::Snapshot(std::move(bytes))),
                 snap::SnapshotError);
}

// --- crafted images ---

/// Knobs for one hand-built progress image in the checkpoint wire format: a
/// one-failure summary whose case carries one delay per vector and one
/// fault, and whose report carries a value locus with both events.
struct Crafted {
    std::uint16_t version = 2;        ///< of the "stcampaign" group
    std::uint8_t fork_byte = 1;       ///< key: the retired warm-up fork flag
    std::uint8_t streaming_byte = 1;  ///< key: the retired streaming flag
    std::uint64_t pct_count = 1;      ///< declared length of fifo_pct
    std::uint64_t fault_count = 1;    ///< declared fault count
    std::uint8_t fault_class = 0;
    std::uint8_t outcome = 1;
    std::uint8_t locus_kind = 1;
    std::uint8_t dir = 0;  ///< direction of the locus's expected event
};

void write_crafted_event(snap::StateWriter& w, std::uint8_t dir) {
    w.u64(5);
    w.u8(dir);
    w.u32(0);
    w.u64(0x2a);
}

/// Written field by field, independently of fuzz::encode_progress, so the
/// defaults double as a fixed record of the wire format.
snap::Snapshot craft(const Crafted& k) {
    snap::StateWriter w;
    w.begin_group("stcampaign", k.version);
    w.begin("key");
    w.str("pair");
    for (const std::uint64_t v : {80, 2'000'000, 9, 24}) w.u64(v);
    w.u64(1);  // one fault class
    w.u8(0);
    w.u64(2);   // max_faults
    w.u64(0);   // warmup_cycles
    w.u8(k.fork_byte);
    w.u8(k.streaming_byte);
    w.u64(0);  // shard 0/1
    w.u64(1);
    w.end();
    w.begin("progress");
    w.u64(1);
    w.end();
    w.begin_group("summary");
    w.begin("counts");
    for (const std::uint64_t v : {1, 0, 1, 0, 0, 1, 0, 1}) w.u64(v);
    w.end();
    w.begin_group("failure");
    w.begin("case");
    w.u64(0);  // global index
    w.u64(k.pct_count);
    w.u32(150);
    for (int v = 0; v < 3; ++v) {  // ring a->b, ring b->a, clocks
        w.u64(1);
        w.u32(100);
    }
    w.u64(k.fault_count);
    w.u8(k.fault_class);
    for (const std::uint64_t v : {0, 1, 2, 0}) w.u64(v);
    w.end();
    w.begin("report");
    w.u8(k.outcome);
    w.b(true);  // goal met
    for (const std::uint64_t v : {1, 1234, 0}) w.u64(v);
    w.str("SB 'sb0' event 3: value");
    w.u8(k.locus_kind);
    w.str("sb0");
    w.u64(3);  // index
    w.u64(5);  // cycle
    w.u32(0);  // port
    w.b(true);
    write_crafted_event(w, k.dir);
    w.b(true);
    write_crafted_event(w, 0);
    w.end();
    w.end();  // failure
    w.end();  // summary
    w.end();  // stcampaign
    return snap::Snapshot(w.take());
}

/// decode_progress must refuse `img` with a SnapshotError whose message
/// contains `what`.
void expect_rejected(const snap::Snapshot& img, const std::string& what) {
    try {
        fuzz::decode_progress(img);
        ADD_FAILURE() << "decoded an image it should reject (" << what << ")";
    } catch (const snap::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(CheckpointCrafted, WireFormatImageReencodesByteIdentically) {
    const snap::Snapshot img = craft({});
    const fuzz::CampaignProgress p = fuzz::decode_progress(img);
    EXPECT_EQ(p.summary.failures.size(), 1u);
    EXPECT_EQ(fuzz::encode_progress(p).bytes(), img.bytes());
}

TEST(CheckpointCrafted, RejectsVersion1Image) {
    // Written before a clock edge became one scheduler event: its report's
    // event count (1234) would not match one this build produces.
    expect_rejected(craft({.version = 1}), "version 1");
}

TEST(CheckpointCrafted, RejectsUnknownOutcome) {
    expect_rejected(craft({.outcome = 7}), "outcome 7");
}

TEST(CheckpointCrafted, RejectsUnknownFaultClass) {
    expect_rejected(craft({.fault_class = 9}), "fault class 9");
}

TEST(CheckpointCrafted, RejectsUnknownLocusKind) {
    expect_rejected(craft({.locus_kind = 9}), "locus kind 9");
}

TEST(CheckpointCrafted, RejectsUnknownEventDirection) {
    expect_rejected(craft({.dir = 2}), "direction 2");
}

// A corrupt count must fail at the end of its chunk, not size a container.
TEST(CheckpointCrafted, HugeFaultCountFailsAtChunkEnd) {
    expect_rejected(craft({.fault_count = 1ull << 40}), "truncated");
}

TEST(CheckpointCrafted, HugePctCountFailsAtChunkEnd) {
    expect_rejected(craft({.pct_count = 1ull << 40}), "truncated");
}

// Images from builds with the re-simulated warm-up or the batch verdict
// record those modes as 0; this build runs neither and says which.
TEST(CheckpointCrafted, RejectsRemovedCampaignModes) {
    expect_rejected(craft({.fork_byte = 0}), "warm-up fork");
    expect_rejected(craft({.streaming_byte = 0}), "streaming");
}

// --- resume ---

TEST(CheckpointResume, ResumeReproducesUninterruptedSummary) {
    const fuzz::Campaign campaign(faulty_config());
    const std::uint64_t n = 30;
    const std::uint64_t seed = 5;
    const fuzz::CampaignSummary whole = campaign.run(n, seed, {}, 2);

    for (const std::uint64_t stop : {1u, 7u, 15u, 29u}) {
        const std::string path =
            temp_path("resume_" + std::to_string(stop) + ".ckpt");
        fuzz::CampaignControl first;
        first.checkpoint_path = path;
        first.checkpoint_every = 4;
        first.stop_after = stop;
        const fuzz::CampaignSummary partial =
            campaign.run(n, seed, {}, 2, first);
        EXPECT_EQ(partial.runs, stop);

        fuzz::CampaignControl second;
        second.checkpoint_path = path;
        second.resume = true;
        const fuzz::CampaignSummary resumed =
            campaign.run(n, seed, {}, 4, second);
        EXPECT_TRUE(resumed == whole) << "stop=" << stop;
        std::remove(path.c_str());
    }
}

TEST(CheckpointResume, OnRunSeesOnlyTheRemainingGlobalIndices) {
    const fuzz::Campaign campaign(faulty_config());
    const std::string path = temp_path("resume_indices.ckpt");
    fuzz::CampaignControl first;
    first.checkpoint_path = path;
    first.stop_after = 6;
    campaign.run(20, 3, {}, 1, first);

    std::vector<std::size_t> indices;
    fuzz::CampaignControl second;
    second.checkpoint_path = path;
    second.resume = true;
    campaign.run(
        20, 3,
        [&](std::size_t i, const fuzz::FuzzCase&, const fuzz::RunReport&) {
            indices.push_back(i);
        },
        2, second);
    ASSERT_EQ(indices.size(), 14u);
    for (std::size_t k = 0; k < indices.size(); ++k) {
        EXPECT_EQ(indices[k], 6 + k);
    }
    std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsCheckpointFromDifferentCampaign) {
    const fuzz::Campaign campaign(faulty_config());
    const std::string path = temp_path("mismatch.ckpt");
    fuzz::CampaignControl first;
    first.checkpoint_path = path;
    first.stop_after = 4;
    campaign.run(20, 3, {}, 1, first);

    fuzz::CampaignControl second;
    second.checkpoint_path = path;
    second.resume = true;
    // Different seed -> different campaign identity -> refuse to resume.
    EXPECT_THROW(campaign.run(20, 4, {}, 1, second), snap::SnapshotError);
    std::remove(path.c_str());
}

TEST(CheckpointResume, ResumeWithoutPathIsAUsageError) {
    const fuzz::Campaign campaign(faulty_config());
    fuzz::CampaignControl ctl;
    ctl.resume = true;
    EXPECT_THROW(campaign.run(10, 1, {}, 1, ctl), std::invalid_argument);
}

// --- shard merge ---

TEST(CheckpointShards, MergeMatchesSingleProcessAtEveryJobsValue) {
    const fuzz::Campaign campaign(faulty_config());
    const std::uint64_t n = 36;
    const std::uint64_t seed = 13;
    const fuzz::CampaignSummary whole = campaign.run(n, seed, {}, 1);
    ASSERT_GT(whole.failures.size(), 0u);

    for (const std::size_t jobs : {1u, 2u, 4u}) {
        for (const std::uint64_t count : {2u, 3u}) {
            std::vector<fuzz::CampaignSummary> parts;
            for (std::uint64_t idx = 0; idx < count; ++idx) {
                fuzz::CampaignControl ctl;
                ctl.shard = runner::Shard{idx, count};
                parts.push_back(campaign.run(n, seed, {}, jobs, ctl));
            }
            const fuzz::CampaignSummary merged = fuzz::merge_shards(parts);
            EXPECT_TRUE(merged == whole)
                << "jobs=" << jobs << " shards=" << count;
        }
    }
}

TEST(CheckpointShards, CompletedShardCheckpointsMergeToWhole) {
    // A completed shard's final checkpoint IS its summary: load the files
    // back and merge them, as `st_fuzz --merge` does.
    const fuzz::Campaign campaign(faulty_config());
    const std::uint64_t n = 24;
    const std::uint64_t seed = 21;
    const fuzz::CampaignSummary whole = campaign.run(n, seed, {}, 2);

    std::vector<fuzz::CampaignSummary> parts;
    for (std::uint64_t idx = 0; idx < 2; ++idx) {
        const std::string path =
            temp_path("shard_" + std::to_string(idx) + ".ckpt");
        fuzz::CampaignControl ctl;
        ctl.shard = runner::Shard{idx, 2};
        ctl.checkpoint_path = path;
        campaign.run(n, seed, {}, 2, ctl);
        const fuzz::CampaignProgress p = fuzz::load_progress_file(path);
        EXPECT_EQ(p.completed, p.key.shard.size_of(n));
        parts.push_back(p.summary);
        std::remove(path.c_str());
    }
    EXPECT_TRUE(fuzz::merge_shards(parts) == whole);
}

TEST(CheckpointShards, MergeShardsReappliesFailureRetentionCap) {
    // Synthetic shards holding more than kMaxFailures combined: the merge
    // must keep the 32 globally-earliest failures and count the rest as
    // dropped, exactly as a single process would have.
    fuzz::CampaignSummary a;
    fuzz::CampaignSummary b;
    fuzz::FuzzCase c;
    fuzz::RunReport r;
    r.outcome = fuzz::Outcome::kTraceDivergent;
    for (std::uint64_t g = 0; g < 48; ++g) {
        fuzz::CampaignSummary& s = (g % 2 == 0) ? a : b;
        s.runs += 1;
        s.by_outcome[static_cast<std::size_t>(r.outcome)] += 1;
        s.add_failure(g, c, r);
    }
    const fuzz::CampaignSummary merged = fuzz::merge_shards({a, b});
    EXPECT_EQ(merged.runs, 48u);
    ASSERT_EQ(merged.failures.size(), fuzz::CampaignSummary::kMaxFailures);
    for (std::size_t i = 0; i < merged.failures.size(); ++i) {
        EXPECT_EQ(merged.failures[i].index, i);
    }
    EXPECT_EQ(merged.failures_dropped,
              48 - fuzz::CampaignSummary::kMaxFailures);
}

}  // namespace
