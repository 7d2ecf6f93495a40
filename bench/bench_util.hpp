#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace st::bench {

/// Honour ST_QUICK=1 for CI-speed runs of the heavyweight sweeps.
inline bool quick_mode() {
    const char* v = std::getenv("ST_QUICK");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline void banner(const std::string& title) {
    std::printf("\n==== %s ====\n", title.c_str());
}

/// Robust summary of repeated timing samples. Medians resist the one-off
/// outliers (page faults, scheduler preemption) that make single-shot
/// numbers jitter; CV (stddev/mean) states how trustworthy a row is.
struct SampleStats {
    double median = 0.0;
    double p95 = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
    double cv = 0.0;  ///< stddev / mean; 0 when mean is 0
    double min = 0.0;
    double max = 0.0;
    std::size_t samples = 0;
};

inline SampleStats compute_stats(std::vector<double> xs) {
    SampleStats s;
    if (xs.empty()) return s;
    std::sort(xs.begin(), xs.end());
    s.samples = xs.size();
    s.min = xs.front();
    s.max = xs.back();
    const std::size_t n = xs.size();
    s.median = n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
    // Nearest-rank p95 (ceil(0.95 n), 1-based) — exact for small n.
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(n)));
    s.p95 = xs[std::min(n - 1, rank == 0 ? 0 : rank - 1)];
    double sum = 0.0;
    for (const double x : xs) sum += x;
    s.mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (const double x : xs) var += (x - s.mean) * (x - s.mean);
    var /= static_cast<double>(n);
    s.stddev = std::sqrt(var);
    s.cv = s.mean != 0.0 ? s.stddev / s.mean : 0.0;
    return s;
}

/// HPC measurement discipline in one helper: `warmup` unrecorded runs to
/// populate caches/pools/branch predictors, then `samples` timed runs.
/// Returns per-run wall-clock seconds.
inline std::vector<double> measure_seconds(std::size_t warmup,
                                           std::size_t samples,
                                           const std::function<void()>& fn) {
    for (std::size_t i = 0; i < warmup; ++i) fn();
    std::vector<double> xs;
    xs.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        xs.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    return xs;
}

/// Machine-readable perf trajectory: collects (metric, value, units, jobs)
/// rows and writes them as a JSON array, so successive PRs can diff measured
/// numbers (`BENCH_scheduler.json`, `BENCH_campaign.json`, ...) instead of
/// scraping bench stdout. See docs/PERF.md for the schema and the recorded
/// history.
class JsonReport {
  public:
    explicit JsonReport(std::string path) : path_(std::move(path)) {}

    void add(const std::string& metric, double value,
             const std::string& units, std::size_t jobs) {
        entries_.push_back(Entry{metric, units, value, jobs, {}});
    }

    /// A row with full measurement statistics: `value` is the median (the
    /// number perf gates compare), and the distribution rides along so the
    /// recorded history can tell a real regression from sampling noise.
    void add_stats(const std::string& metric, const SampleStats& s,
                   const std::string& units, std::size_t jobs) {
        Entry e{metric, units, s.median, jobs, {}};
        e.stats = s;
        e.has_stats = true;
        entries_.push_back(std::move(e));
    }

    /// Write the collected rows. Returns false (and warns) on I/O failure —
    /// benches still print their human-readable tables either way.
    bool write() const {
        std::FILE* f = std::fopen(path_.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
            return false;
        }
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry& e = entries_[i];
            std::fprintf(f,
                         "  {\"metric\": \"%s\", \"value\": %.6g, "
                         "\"units\": \"%s\", \"jobs\": %zu",
                         e.metric.c_str(), e.value, e.units.c_str(), e.jobs);
            if (e.has_stats) {
                std::fprintf(f,
                             ", \"median\": %.6g, \"p95\": %.6g, "
                             "\"stddev\": %.6g, \"cv\": %.4g, "
                             "\"samples\": %zu",
                             e.stats.median, e.stats.p95, e.stats.stddev,
                             e.stats.cv, e.stats.samples);
            }
            std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        std::fclose(f);
        std::printf("wrote %s (%zu metric(s))\n", path_.c_str(),
                    entries_.size());
        return true;
    }

  private:
    struct Entry {
        std::string metric;
        std::string units;
        double value = 0.0;
        std::size_t jobs = 1;
        SampleStats stats;
        bool has_stats = false;
    };
    std::string path_;
    std::vector<Entry> entries_;
};

}  // namespace st::bench
