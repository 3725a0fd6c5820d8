// finbench/engine/registry.hpp
//
// The kernel registry: every kernel variant the autotuner races, plus the
// fallback links and references they lean on, is registered under a
// stable string id — "bs.intermediate.auto", "mc.optimized_computed.auto",
// ... — with a uniform execution adapter over PricingRequest/PricingResult,
// cost-model metadata for weighted chunking and rooflines, and a link to
// the reference variant it must agree with (the self-validation anchor:
// see validate_variant in finbench/engine/validate.hpp).
//
// Id scheme, with no exception: "<kernel>.<variant>.<width>" with width
// one of
//   scalar — the W=1 reference path (registered width 1)
//   auto   — the widest path compiled into this build (8-wide DP and
//            16-wide SP with AVX-512; registered width 0)
// No lane count is an id: the paper's 4-wide SNB-EP rows are exhibit rows,
// and the fig/tab binaries call the kernels' 4-wide paths directly. Nor
// is a paper level that loses every race on this platform (basic AOS
// Black–Scholes, the unrolled binomial tiles, the CN wavefronts, ...):
// the exhibits time those kernels directly too.
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
  std::string id;            // "binomial.advanced.auto"
  std::string kernel;        // family: "bs", "binomial", "brownian", "mc", "cn"
  core::OptLevel level = core::OptLevel::kReference;
  int width = 1;             // nominal SIMD lanes; 0 = widest compiled in
  Layout layout = Layout::kSpecs;
  std::string exhibit;       // paper exhibit this variant appears in
  std::string description;

  // Self-validation: the variant this one must agree with ("" for the
  // family reference itself). `tolerance` is relative for element-wise
  // comparison; when `statistical` is set the variant is a different
  // estimator that reports standard errors, so validation widens each
  // element's band by six of them.
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

  // Interior chunk boundaries are multiples of this many items: a kernel
  // that groups SIMD lanes by position within the range it is handed
  // (binomial's lane groups, Black–Scholes tiles, Brownian path groups,
  // the paired CN wavefront's pairs) then sees the lane groups of the
  // whole batch, so any partition gives the same bits. Black–Scholes
  // layouts chunk at multiples of 64 regardless.
  std::size_t range_align = 8;

  // Per-request setup, called once before any run_range of an execution:
  // build the request's Scratch cache (pre-generated normal streams,
  // lane-blocked layouts, scratch pools) and size the result's outputs
  // where they differ from the default — one value per option of a specs
  // workload, none for a Black–Scholes layout (priced in place), empty
  // std_errors. A paths variant sizes its outputs here. A specs variant
  // may also choose the order its options are priced in (the binomial
  // depth-pack plan): run_range is then handed a reordered copy of the
  // view, and the engine scatters the outputs back to caller order
  // (docs/engine.md). Null = nothing to prepare.
  //
  // Every adapter hook receives the workload view to execute — this is the
  // request's own portfolio for a layout match, or the engine's negotiated
  // (arena-backed, converted) view on a mismatch. Adapters must read the
  // workload from the view, never from req.portfolio.
  void (*prepare)(const PricingRequest&, const core::PortfolioView&, PricingResult&) = nullptr;

  // Execute items [begin, end) of the workload: a specs or paths adapter
  // writes its outputs for those items into the prepared result, a
  // Black–Scholes-layout adapter prices the range in place in the view's
  // arrays. The kernels behind it are serial; the engine pool runs
  // disjoint ranges concurrently. Must not allocate: chunks run in the
  // engine's zero-steady-state-allocation loop (buffers come from
  // prepare / the request Scratch). A Black–Scholes adapter runs before
  // the chunk's sanitize scan, so it must take any input bits (NaN, Inf,
  // zero, negative) without throwing or undefined behavior — what
  // sanitize = kOff has always asked of it; the engine discards those
  // outputs.
  void (*run_range)(const PricingRequest&, const core::PortfolioView&, std::size_t begin,
                    std::size_t end, PricingResult&) = nullptr;

  // The whole workload in one call — what the fig/tab benchmarks, the
  // self-validation and direct callers dispatch:
  // Engine::shared().run_batch(*this, ...), i.e. prepare, then run_range
  // over P x chunks_per_thread ranges claimed from the shared ThreadPool's
  // ticket counter (inline when called from inside a pool run), in the
  // pricing order prepare chose; outputs come back in caller order.
  void run_batch(const PricingRequest& req, const core::PortfolioView& view,
                 PricingResult& res) const;
};

class Registry {
 public:
  // The process-wide registry, with all built-in variants registered.
  static Registry& instance();

  // Register a variant. Throws
  // std::invalid_argument on a duplicate or empty id or a missing
  // run_range. Thread-safe.
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

// Next link of v's fallback chain: fallback_id, else reference_id. Null
// at the chain end (an empty or unregistered id, or v itself) and once
// one walk has taken 8 links, so a mis-registered cycle cannot spin.
// `hops` counts the walk's links; start it at 0 and pass it to every
// step:
//   int hops = 0;
//   for (auto* fb = fallback_of(v, hops); fb; fb = fallback_of(*fb, hops))
const VariantInfo* fallback_of(const VariantInfo& v, int& hops);

}  // namespace finbench::engine
