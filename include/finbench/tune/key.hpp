// finbench/tune/key.hpp
//
// TuneKey — the call-parameter identity the empirical autotuner keys its
// plan cache on (docs/autotuning.md). Dispatch quality shifts with batch
// shape and hardware (the source paper's central finding), so the engine's
// `auto` mode does not name a variant; it names an *intent* — a kernel
// family plus the parameters that change which concrete variant, layout
// path, and chunk granularity win:
//
//   family          canonical registry family ("bs", "binomial", ...)
//   layout          the layout the workload arrives in (negotiation cost
//                   is part of what the race measures, so an AOS batch and
//                   a blocked batch get separate plans)
//   size_bucket     floor(log2(n)) — one plan per power-of-two band; the
//                   winning variant flips across sizes, but per-exact-n
//                   plans would never hit
//   threads         engine pool size the plan was raced at
//   accuracy knobs  steps / steps_per_year / npath / bridge_depth /
//                   cn_num_prices — they change per-item cost and thus the
//                   chunking trade-off
//   american        exercise style present in a kSpecs workload (excludes
//                   european_only candidates)
//
// Only what describes the call belongs in a key: the request's own
// chunks_per_thread and task mode do not (an auto id runs the plan's).
// Keys order strictly (std::tie over every field) so they can live in a
// std::map and serialize deterministically.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

#include "finbench/core/portfolio.hpp"

namespace finbench::tune {

struct TuneKey {
  std::string family;  // canonical registry family: "bs", "binomial", ...
  core::Layout layout = core::Layout::kSpecs;
  int size_bucket = 0;  // floor(log2(n))
  int threads = 1;      // engine pool size

  // Accuracy knobs (PricingRequest fields that shift per-item cost).
  int steps = 0;
  int steps_per_year = 0;
  std::uint64_t npath = 0;
  int bridge_depth = 0;
  int cn_num_prices = 0;

  bool american = false;  // kSpecs workload carries American exercise

  auto tie() const {
    return std::tie(family, layout, size_bucket, threads, steps, steps_per_year, npath,
                    bridge_depth, cn_num_prices, american);
  }

  friend bool operator<(const TuneKey& a, const TuneKey& b) { return a.tie() < b.tie(); }
  friend bool operator==(const TuneKey& a, const TuneKey& b) { return a.tie() == b.tie(); }
  friend bool operator!=(const TuneKey& a, const TuneKey& b) { return !(a == b); }

  // Compact one-line rendering for --explain / error messages.
  std::string to_string() const;
};

// floor(log2(n)); -1 for n == 0. Two workloads in the same power-of-two
// band share a plan.
int size_bucket_of(std::size_t n);

// An auto-intent id is "<family>.auto" with exactly one dot — distinct
// from the three-part concrete ids, where ".auto" is a *width* ("widest
// compiled in"): "bs.auto" is an intent, "bs.intermediate.auto" a variant.
bool is_auto_id(std::string_view id);

// Canonical registry family of an auto id — accepts the registry families
// (bs, binomial, mc, brownian, cn) plus the spelled-out aliases
// blackscholes, montecarlo, cranknicolson. Empty when `id` is not an auto
// id or the family is unknown.
std::string_view auto_family(std::string_view id);

// Inverse of core::to_string(Layout) for cache-file parsing.
bool layout_from_string(std::string_view s, core::Layout& out);

}  // namespace finbench::tune
