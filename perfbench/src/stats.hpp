// perfbench/src/stats.hpp
//
// The benchmark's own arithmetic, kept free of I/O and timing so the unit
// tests can pin it down: percentiles and the tail rule, failure
// accounting, the open-loop schedule and generator lag, and the rate
// ladder that finds the highest request rate meeting the latency limit.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of an ascending sample: the smallest value with
// at least p% of the sample at or below it. 0 for an empty sample.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 50.0);
}

// The tail of a timing sample: the highest whole percentile, at most
// `cap`, that still has at least `min_beyond` samples strictly above its
// rank. With fewer than min_beyond + 1 samples no percentile qualifies;
// the sample maximum is reported as percentile 100 and `supported` is
// false.
struct Tail {
  int pct = 0;
  double value = 0.0;
  std::size_t n = 0;
  bool supported = false;
};

inline Tail tail_percentile(const std::vector<double>& sorted, int cap = 99,
                            std::size_t min_beyond = 10) {
  Tail t;
  t.n = sorted.size();
  if (sorted.empty()) return t;
  for (int p = cap; p >= 1; --p) {
    const double rank = std::ceil(p / 100.0 * static_cast<double>(t.n));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (t.n - 1 - idx >= min_beyond) {
      t.pct = p;
      t.value = sorted[idx];
      t.supported = true;
      return t;
    }
  }
  t.pct = 100;
  t.value = sorted.back();
  return t;
}

// Percentile p of each window of a sample: values[i] falls in window
// floor(at[i] / window_s). A window holding fewer than min_n values reads
// NaN. The open-loop phases report the median over windows, so one
// multi-millisecond stall moves one window rather than the run.
inline std::vector<double> window_percentiles(const std::vector<double>& at,
                                              const std::vector<double>& values,
                                              double window_s, double p, std::size_t min_n) {
  std::vector<std::vector<double>> win;
  for (std::size_t i = 0; i < std::min(at.size(), values.size()); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, at[i] / window_s));
    if (w >= win.size()) win.resize(w + 1);
    win[w].push_back(values[i]);
  }
  std::vector<double> out;
  for (std::vector<double>& w : win) {
    std::sort(w.begin(), w.end());
    out.push_back(w.size() < min_n ? std::numeric_limits<double>::quiet_NaN()
                                   : percentile(w, p));
  }
  return out;
}

// Which intervals to keep, given the share of CPU time stolen from the
// guest during each: those at or under `max_frac`, or, when fewer than
// half are, the least-stolen half (ties kept in order).
inline std::vector<bool> keep_least_stolen(const std::vector<double>& stolen, double max_frac) {
  const std::size_t n = stolen.size();
  std::vector<bool> keep(n, false);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (stolen[i] <= max_frac) {
      keep[i] = true;
      ++k;
    }
  }
  if (2 * k >= n) return keep;
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return stolen[a] < stolen[b]; });
  std::fill(keep.begin(), keep.end(), false);
  for (std::size_t j = 0; j < (n + 1) / 2; ++j) keep[idx[j]] = true;
  return keep;
}

// Median of the values whose `keep` flag is set, or of all values when
// none is kept. NaN values never count.
inline double median_kept(const std::vector<double>& v, const std::vector<bool>& keep) {
  std::vector<double> kept, all;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::isnan(v[i])) continue;
    all.push_back(v[i]);
    if (i < keep.size() && keep[i]) kept.push_back(v[i]);
  }
  return median(!kept.empty() ? std::move(kept) : std::move(all));
}

// Failure accounting. Every attempted unit (a request, or an option of a
// book call) ends in exactly one outcome; error_rate() is the share that
// did not end kOk. A unit that was shed is not also counted as expired or
// wrong: record() is called once per unit with its first failure.
enum class Outcome { kOk, kFailed, kShed, kExpired, kWrong };

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0, failed = 0, shed = 0, expired = 0, wrong = 0;

  void record(Outcome o, std::uint64_t units = 1) {
    attempted += units;
    switch (o) {
      case Outcome::kOk: ok += units; break;
      case Outcome::kFailed: failed += units; break;
      case Outcome::kShed: shed += units; break;
      case Outcome::kExpired: expired += units; break;
      case Outcome::kWrong: wrong += units; break;
    }
  }
  void merge(const Ledger& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    shed += o.shed;
    expired += o.expired;
    wrong += o.wrong;
  }
  std::uint64_t bad() const { return failed + shed + expired + wrong; }
  double error_rate() const {
    return attempted ? static_cast<double>(bad()) / static_cast<double>(attempted) : 0.0;
  }
};

// The outcome of one priced unit from its status flags, in precedence
// order: shed before expired before failed before a wrong value.
inline Outcome classify(bool shed, bool expired, bool failed, bool wrong) {
  if (shed) return Outcome::kShed;
  if (expired) return Outcome::kExpired;
  if (failed) return Outcome::kFailed;
  if (wrong) return Outcome::kWrong;
  return Outcome::kOk;
}

// Open-loop Poisson arrivals: due times in seconds from the phase start,
// pre-drawn from `seed` so server behaviour cannot perturb the schedule.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate, double seconds) {
  std::vector<double> due;
  if (rate <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);
  return due;
}

// How late the generator submitted: submit minus due, per request, in
// seconds. A request submitted early (never happens with a correct
// pacer) counts as on time.
inline std::vector<double> generator_lag(const std::vector<double>& due,
                                         const std::vector<double>& submitted) {
  std::vector<double> lag(std::min(due.size(), submitted.size()));
  for (std::size_t i = 0; i < lag.size(); ++i) lag[i] = std::max(0.0, submitted[i] - due[i]);
  std::sort(lag.begin(), lag.end());
  return lag;
}

// The rate ladder behind max_rps_at_slo. Step k offers start * ratio^k;
// ratio must be at most 1.10 so adjacent steps are at most 10% apart.
inline std::vector<double> ladder_rates(double start, double ratio, int steps) {
  std::vector<double> r;
  double x = start;
  for (int k = 0; k < steps; ++k, x *= ratio) r.push_back(x);
  return r;
}

struct LadderStep {
  double offered = 0.0;   // req/s the schedule targeted
  double achieved = 0.0;  // req/s completed over the step's wall time
  double p99_s = 0.0;     // p99 latency from due time (failures count as infinite)
};

inline bool meets_slo(const LadderStep& s, double slo_s, double min_achieved_frac) {
  return s.p99_s <= slo_s && s.achieved >= min_achieved_frac * s.offered;
}

// Index of the highest-offered step that meets the limit; -1 when none
// does. Steps need not be sorted.
inline int select_max_at_slo(const std::vector<LadderStep>& steps, double slo_s = 1e-3,
                             double min_achieved_frac = 0.98) {
  int best = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!meets_slo(steps[i], slo_s, min_achieved_frac)) continue;
    if (best < 0 || steps[i].offered > steps[static_cast<std::size_t>(best)].offered) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

// The ladder climbs until `patience` consecutive steps miss the limit.
inline bool ladder_done(const std::vector<LadderStep>& steps, int patience, double slo_s = 1e-3,
                        double min_achieved_frac = 0.98) {
  int misses = 0;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    if (meets_slo(*it, slo_s, min_achieved_frac)) break;
    ++misses;
  }
  return misses >= patience;
}

// Relative error as the registry validates it: |got - want| / max(1, |want|).
inline double rel_err(double got, double want) {
  if (!std::isfinite(got)) return std::numeric_limits<double>::infinity();
  return std::fabs(got - want) / std::max(1.0, std::fabs(want));
}

}  // namespace perfbench
