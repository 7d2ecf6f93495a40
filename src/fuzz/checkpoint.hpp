#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "runner/runner.hpp"
#include "snap/snapshot.hpp"

namespace st::fuzz {

/// Identity of one (campaign, shard) execution: everything that determines
/// the case sequence and its classification. Two progress images are
/// continuations of the same campaign iff their keys match — resume
/// validates this before trusting a completed-prefix count, and shard merge
/// validates it (modulo the shard fields) before adding summaries.
struct CampaignKey {
    std::string spec_name;
    std::uint64_t cycles = 0;
    std::uint64_t max_events = 0;
    std::uint64_t seed = 0;
    std::uint64_t n_runs = 0;
    std::vector<FaultClass> classes;
    std::uint64_t max_faults = 0;
    std::uint64_t warmup_cycles = 0;
    runner::Shard shard;

    bool operator==(const CampaignKey&) const = default;
    /// Equal except for the shard split — the merge-compatibility relation.
    bool same_campaign(const CampaignKey& other) const;
};

CampaignKey make_campaign_key(const CampaignConfig& cfg, std::uint64_t seed,
                              std::uint64_t n_runs, runner::Shard shard);

/// One campaign-progress image. Because Campaign::run reduces results in
/// case-index order, the completed work at any checkpoint is a contiguous
/// prefix of the shard's case sequence — so the whole resumable state is
/// just the key, the prefix length, and the partial summary. No RNG state
/// is saved: cases are re-drawn deterministically from the seed on resume.
struct CampaignProgress {
    CampaignKey key;
    /// Shard-local count of reduced cases (the prefix length).
    std::uint64_t completed = 0;
    CampaignSummary summary;

    bool operator==(const CampaignProgress&) const = default;
};

/// Encode/decode a progress image in the snap chunk format (one
/// "stcampaign" group, version 2). decode refuses version 1, whose reports
/// count three events per clock edge, and chunk versions newer than this
/// build understands, and throws snap::SnapshotError with a clear message on
/// any structural mismatch, on an enum byte this build defines no value for,
/// and on a key from a campaign mode this build no longer runs. No
/// container is sized from a count read off the image, so a corrupt count
/// fails at the end of its chunk instead of allocating.
snap::Snapshot encode_progress(const CampaignProgress& p);
CampaignProgress decode_progress(const snap::Snapshot& snap);

/// File round-trip: STSNAP file magic + the chunk image. save is atomic
/// (tmp + rename) so a kill mid-write never leaves a torn checkpoint.
void save_progress_file(const CampaignProgress& p, const std::string& path);
CampaignProgress load_progress_file(const std::string& path);

}  // namespace st::fuzz
