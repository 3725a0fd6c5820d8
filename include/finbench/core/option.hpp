// finbench/core/option.hpp
//
// Core option vocabulary shared by every kernel: single-option specs, the
// Black–Scholes batch record layouts whose contrast drives the paper's
// Fig. 4 experiment (AOS — the "reference data" layout costing a gather
// per SIMD access — versus SOA — the SIMD-friendly layout the advanced
// optimization converts to), and the non-owning *views* the kernels
// consume.
//
// Kernels take views (BsAosView / BsSoaView / BsSoaFView ...), never an
// owning container: a view is two-pointer-per-field cheap, so the same
// kernel prices a core::Portfolio's arena (finbench/core/portfolio.hpp),
// an engine-negotiated tile, or a caller's own arrays. core::Portfolio is
// the owner of a generated Black–Scholes book in any layout.

#pragma once

#include <cstddef>
#include <span>

#include "finbench/arch/aligned.hpp"

namespace finbench::core {

enum class OptionType { kCall, kPut };
enum class ExerciseStyle { kEuropean, kAmerican };

// A single vanilla option on one underlying. Throughout the library the
// risk-free rate r and volatility sigma are per-option unless a kernel
// states otherwise (the paper's Black–Scholes kernel shares r and sigma
// across the batch; see BsBatch*).
struct OptionSpec {
  double spot = 100.0;      // current underlying price S
  double strike = 100.0;    // strike price K
  double years = 1.0;       // time to expiry T (in years)
  double rate = 0.05;       // risk-free interest rate r
  double vol = 0.2;         // volatility sigma
  OptionType type = OptionType::kCall;
  ExerciseStyle style = ExerciseStyle::kEuropean;
  double dividend = 0.0;    // continuous dividend yield q (extension; the
                            // risk-neutral drift becomes r - q)
};

// --- Black–Scholes batch record (shared r, sigma, as in Lis. 1) -----------

// AOS: one record per option, outputs interleaved with inputs. This is the
// paper's reference layout; SIMD access requires gathering fields spread
// across `vector width` cache lines.
struct BsOptionAos {
  double spot;
  double strike;
  double years;
  double call;  // output
  double put;   // output
};

// --- Non-owning views (what kernels take) ----------------------------------

struct BsAosView {
  std::span<BsOptionAos> options{};
  double rate = 0.05;
  double vol = 0.2;
  double dividend = 0.0;

  std::size_t size() const { return options.size(); }
};

struct BsSoaView {
  std::span<double> spot{}, strike{}, years{};
  std::span<double> call{}, put{};  // outputs
  double rate = 0.05;
  double vol = 0.2;
  double dividend = 0.0;

  std::size_t size() const { return spot.size(); }
};

// Read-only SOA view for consumers that don't write prices (greeks,
// implied vol). Implicitly constructible from the mutable view.
struct BsSoaCView {
  std::span<const double> spot{}, strike{}, years{};
  double rate = 0.05;
  double vol = 0.2;
  double dividend = 0.0;

  BsSoaCView() = default;
  BsSoaCView(std::span<const double> s, std::span<const double> k, std::span<const double> t,
             double r, double v, double q)
      : spot(s), strike(k), years(t), rate(r), vol(v), dividend(q) {}
  BsSoaCView(const BsSoaView& v)  // NOLINT(google-explicit-constructor)
      : spot(v.spot), strike(v.strike), years(v.years),
        rate(v.rate), vol(v.vol), dividend(v.dividend) {}

  std::size_t size() const { return spot.size(); }
};

struct BsSoaFView {
  std::span<float> spot{}, strike{}, years{};
  std::span<float> call{}, put{};  // outputs
  float rate = 0.05f;
  float vol = 0.2f;
  float dividend = 0.0f;

  std::size_t size() const { return spot.size(); }
};

// Lanes per block of the lane-blocked layout: one 64-byte line of doubles
// per field, and a whole number of register tiles at every SIMD width.
inline constexpr std::size_t kBsBlock = 8;

// Lane-blocked AoSoA: options grouped into blocks of kBsBlock lanes, each
// block storing its fields as contiguous kBsBlock-vectors —
//   [spot×B | strike×B | years×B | call×B | put×B] per block
// so a register tile touches one cache-line run per field. Trailing lanes
// of the last block (n..ceil) are padded with the block's last option.
struct BsBlockedView {
  std::span<double> data{};  // num_blocks() * 5 * kBsBlock doubles
  std::size_t n = 0;         // logical option count
  double rate = 0.05;
  double vol = 0.2;
  double dividend = 0.0;

  std::size_t size() const { return n; }
  std::size_t num_blocks() const { return (n + kBsBlock - 1) / kBsBlock; }
  // Field f (0=spot, 1=strike, 2=years, 3=call, 4=put) of block `blk`.
  double* field(std::size_t blk, int f) const {
    return data.data() + (blk * 5 + static_cast<std::size_t>(f)) * kBsBlock;
  }
};

// --- Caller-owned AOS slots --------------------------------------------------

// A growable AOS batch for callers that keep and refill their own option
// slots (perfbench's quote stream prices each quote in one). Generated
// books live in core::Portfolio; this stays only until that benchmark
// moves to Portfolio storage.
struct BsBatchAos {
  arch::AlignedVector<BsOptionAos> options;
  double rate = 0.05;
  double vol = 0.2;
  double dividend = 0.0;  // shared continuous yield (extension; 0 = paper setup)

  std::size_t size() const { return options.size(); }

  BsAosView view() { return {{options.data(), options.size()}, rate, vol, dividend}; }
};

}  // namespace finbench::core
