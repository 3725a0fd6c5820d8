// finbench/engine/registry.hpp
//
// The kernel registry: every kernel variant in the library (kernel x
// OptLevel x SIMD width) is registered under a stable string id —
// "bs.intermediate.avx2", "mc.optimized_computed.auto", ... — with a
// uniform execution adapter over PricingRequest/PricingResult, cost-model
// metadata for weighted chunking and rooflines, and a link to the
// reference variant it must agree with (the self-validation anchor: see
// validate_variant in finbench/engine/validate.hpp).
//
// Id scheme: "<kernel>.<variant>.<width>" with width one of
//   scalar — the W=1 reference path
//   avx2   — the forced 4-wide (SNB-EP-class) path
//   auto   — the widest path compiled into this build (8-wide with AVX-512)
//
// The built-in variants register on first Registry::instance() access, so
// there is no static-initialization-order or archive-stripping hazard.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "finbench/core/option.hpp"
#include "finbench/core/optlevel.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/engine/request.hpp"

namespace finbench::engine {

// Workload form a variant consumes — the core layout tag. A request whose
// portfolio carries a different (but core::convertible) layout is
// negotiated by the engine rather than rejected.
using Layout = core::Layout;
using core::to_string;

struct VariantInfo {
  std::string id;            // "binomial.advanced.avx2"
  std::string kernel;        // family: "bs", "binomial", "brownian", "mc", "cn"
  core::OptLevel level = core::OptLevel::kReference;
  int width = 1;             // nominal SIMD lanes; 0 = widest compiled in
  Layout layout = Layout::kSpecs;
  std::string exhibit;       // paper exhibit this variant appears in
  std::string description;

  // Self-validation: the variant this one must agree with ("" for the
  // family reference itself). `tolerance` is relative for element-wise
  // comparison; when `statistical` is set the variant draws its own random
  // numbers, so validation compares standard-error bands / batch means
  // instead of elements (tolerance becomes the absolute mean band).
  std::string reference_id;
  double tolerance = 1e-9;
  bool statistical = false;

  // Graceful degradation: when a chunk of this variant fails its output
  // guard (or throws), the engine re-prices the chunk through this
  // variant instead (finbench/robust, docs/robustness.md). "" means
  // fall back to reference_id; the chain is followed until a variant
  // succeeds or the family reference itself fails. Each link must share
  // the variant's layout family.
  std::string fallback_id;

  bool european_only = false;  // variant cannot price American exercise

  // Cost model per item under this request (roofline metadata).
  double (*flops_per_item)(const PricingRequest&) = nullptr;
  double (*bytes_per_item)(const PricingRequest&) = nullptr;

  // Relative cost weight of one option (heterogeneous batches; used for
  // cost-model-weighted chunking). Null = uniform cost.
  double (*item_cost)(const core::OptionSpec&, const PricingRequest&) = nullptr;

  // Build the request's Scratch cache (pre-generated normal streams,
  // lane-blocked layouts, pre-sized result buffers). Called once before
  // any run_range chunk executes; run_batch prepares internally. Null =
  // nothing to prepare.
  //
  // Every adapter hook receives the workload view to execute — this is the
  // request's own portfolio for a layout match, or the engine's negotiated
  // (arena-backed, converted) view on a mismatch. Adapters must read the
  // workload from the view, never from req.portfolio.
  void (*prepare)(const PricingRequest&, const core::PortfolioView&) = nullptr;

  // Execute the whole workload through the kernel's native batch entry
  // point (kernel-internal OpenMP) — what the fig/tab benchmarks dispatch.
  void (*run_batch)(const PricingRequest&, const core::PortfolioView&,
                    PricingResult&) = nullptr;

  // Execute items [begin, end) of the workload: a kSpecs adapter writes
  // values[begin..end) (and std_errors for MC), a Black–Scholes adapter
  // prices the range in place in the view's arrays. Must be safe to call
  // concurrently for disjoint ranges; null = whole-batch only (the engine
  // then falls back to run_batch). Must not allocate: chunks run in the
  // engine's zero-steady-state-allocation loop (buffers come from prepare
  // / the request Scratch). A Black–Scholes adapter runs before the chunk's
  // sanitize scan, so it must take any input bits (NaN, Inf, zero,
  // negative) without throwing or undefined behavior — what sanitize =
  // kOff has always asked of it; the engine discards those outputs.
  void (*run_range)(const PricingRequest&, const core::PortfolioView&, std::size_t begin,
                    std::size_t end, PricingResult&) = nullptr;

  bool has_std_error = false;  // fills PricingResult::std_errors
};

class Registry {
 public:
  // The process-wide registry, with all built-in variants registered.
  static Registry& instance();

  // Register a variant. Throws std::invalid_argument on a duplicate or
  // empty id. Thread-safe.
  void add(VariantInfo v);

  // Null when the id is unknown. Returned pointers are stable for the
  // process lifetime.
  const VariantInfo* find(std::string_view id) const;

  // All variants, sorted by id.
  std::vector<const VariantInfo*> all() const;
  std::vector<std::string> ids() const;
  std::size_t size() const;

 private:
  Registry();
  struct Impl;
  Impl* impl_;
};

}  // namespace finbench::engine
