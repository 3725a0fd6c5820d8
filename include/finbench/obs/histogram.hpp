// finbench/obs/histogram.hpp
//
// Lock-free log-bucketed latency histograms (HDR-style): fixed
// log-linear buckets over nanoseconds, per-thread sharded relaxed-atomic
// increments on the record path, merge-on-snapshot, and percentile
// queries (p50/p90/p99/p99.9) on the merged snapshot. Registered by name
// (plus an optional pre-formatted OpenMetrics label set) alongside the
// counter/gauge/stat registry; the run report's `histograms` section and
// obs::write_openmetrics render every registered instance.
//
// Bucketing: values below 2^kSubBits ns get exact unit buckets; above
// that, each power-of-two octave is split into 2^kSubBits sub-buckets,
// so the relative quantization error is bounded by 2^-kSubBits (~6.3%
// with kSubBits = 4) across the whole range. Values are clamped to
// [0, kMaxTrackableNs); anything longer lands in the top bucket.
//
// Hot-path idiom matches the counters — resolve the handle once, then
// record with relaxed atomics (one increment + one add + a rare CAS for
// the running min/max, all on this thread's shard):
//
//   static obs::Histogram& h = obs::histogram("engine.chunk.seconds");
//   h.record_seconds(t.seconds());
//
// Handles are valid for the process lifetime; reset_histograms() zeroes
// contents without invalidating them.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace finbench::obs {

class Histogram {
 public:
  static constexpr int kSubBits = 4;                    // sub-buckets per octave = 16
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kMaxExponent = 41;               // top octave: [2^41, 2^42) ns
  static constexpr std::uint64_t kMaxTrackableNs =      // ~73.3 minutes
      std::uint64_t{1} << (kMaxExponent + 1);
  static constexpr int kBuckets =
      kSubBuckets + (kMaxExponent - kSubBits + 1) * kSubBuckets;  // 624
  static constexpr int kShards = 8;

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  ~Histogram();

  // Record one observation. Lock-free: relaxed increments on the calling
  // thread's shard; safe from any number of threads concurrently.
  void record_ns(std::uint64_t ns);
  void record_seconds(double seconds) {
    record_ns(seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9 + 0.5));
  }

  // Merged view of every shard at one point in time. Percentiles answer
  // from bucket midpoints, so they carry the bucketing's ~2^-kSubBits
  // relative error; count/sum are exact.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t min_ns = 0;  // 0 when count == 0
    std::uint64_t max_ns = 0;
    std::vector<std::uint64_t> buckets;  // kBuckets entries (empty when count == 0)

    // Quantile in seconds, q in [0, 1]; 0 when the snapshot is empty.
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }
    double mean_seconds() const {
      return count > 0 ? 1e-9 * static_cast<double>(sum_ns) / static_cast<double>(count) : 0.0;
    }
    double sum_seconds() const { return 1e-9 * static_cast<double>(sum_ns); }

    // Accumulate another snapshot (same bucket layout) into this one —
    // the same operation snapshot() applies across shards.
    void merge(const Snapshot& other);

    // Cumulative count of observations <= `seconds` (bucket-granular:
    // whole buckets whose upper edge is <= the threshold).
    std::uint64_t cumulative_le(double seconds) const;
  };
  Snapshot snapshot() const;

  // Zero every shard (tests / scrape-and-reset loops). Not atomic with
  // respect to concurrent record() calls — counts racing the reset may
  // land on either side.
  void reset();

  // Bucket geometry (exposed for tests and the exporters).
  static int bucket_index(std::uint64_t ns);
  static std::uint64_t bucket_lower_ns(int index);
  static std::uint64_t bucket_upper_ns(int index);  // exclusive

 private:
  struct Shard;
  Shard* shards_;  // kShards cacheline-aligned shards
};

// Look up (creating on first use) a histogram by name. `labels`, when
// given, is a pre-formatted OpenMetrics label list without braces, e.g.
// `kernel="bs.blocked.auto",layout="bs_blocked"` — it becomes part
// of the registry key, the run report key, and the exported label set.
// References are stable for the process lifetime.
Histogram& histogram(std::string_view name);
Histogram& histogram(std::string_view name, std::string_view labels);

// Snapshot of every registered histogram, sorted by registry key.
struct HistogramEntry {
  std::string name;    // metric name, no labels
  std::string labels;  // label list without braces; empty when unlabeled
  Histogram::Snapshot snap;

  // Registry key: name or name{labels}.
  std::string key() const {
    return labels.empty() ? name : name + "{" + labels + "}";
  }
};
std::vector<HistogramEntry> snapshot_histograms();

// Zero every registered histogram (handles stay valid).
void reset_histograms();

// Test isolation: zero the whole observability state — metrics registry,
// histogram registry, measurement table, and the flight recorder — so a
// test stops observing values leaked by earlier test cases in the same
// binary. Registered handles stay valid (statics in library code keep
// working); only the recorded values are cleared. Defined in
// src/obs/histogram.cpp.
void reset_for_testing();

}  // namespace finbench::obs
