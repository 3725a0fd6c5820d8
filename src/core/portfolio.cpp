// Portfolio / Arena / per-option access / layout-conversion implementation.
// Portfolio::bs is the one Black–Scholes book generator.
//
// Conversion pairs: any ordered pair of the Black–Scholes layouts
// (kBsAos, kBsSoa, kBsSoaF, kBsBlocked). The AOS<->SOA pairs — the ones
// the engine negotiates and fig4 measures — get dedicated loops; the rest
// go through a generic per-lane path. kSpecs and kPaths only admit the
// identity.

#include "finbench/core/portfolio.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>

#include "finbench/arch/timing.hpp"
#include "finbench/rng/philox.hpp"

namespace finbench::core {

// --- Arena ------------------------------------------------------------------

namespace {

constexpr std::size_t round_to_line(std::size_t bytes) {
  return (bytes + arch::kCacheLineBytes - 1) / arch::kCacheLineBytes * arch::kCacheLineBytes;
}

}  // namespace

void* Arena::allocate(std::size_t bytes) {
  const std::size_t need = round_to_line(bytes);
  // Monotonic bump: skip blocks without room (their tail is wasted until
  // reset); grow only when no committed block fits.
  while (current_ < blocks_.size() && offset_ + need > blocks_[current_].size) {
    ++current_;
    offset_ = 0;
  }
  if (current_ >= blocks_.size()) grow(need);
  std::byte* p = blocks_[current_].mem.get() + offset_;
  offset_ += need;
  in_use_ += need;
  return p;
}

void Arena::reset() {
  current_ = 0;
  offset_ = 0;
  in_use_ = 0;
}

Arena::Block& Arena::grow(std::size_t at_least) {
  // Each new block is at least as large as everything committed so far,
  // keeping the block count logarithmic in total demand.
  constexpr std::size_t kMinBlockBytes = std::size_t{64} * 1024;
  const std::size_t size = std::max({round_to_line(at_least), reserved_, kMinBlockBytes});
  Block b;
  b.mem.reset(static_cast<std::byte*>(
      ::operator new(size, std::align_val_t{arch::kCacheLineBytes})));
  b.size = size;
  blocks_.push_back(std::move(b));
  current_ = blocks_.size() - 1;
  offset_ = 0;
  reserved_ += size;
  return blocks_.back();
}

// --- Per-option access -----------------------------------------------------

namespace {

[[noreturn]] void not_bs(const char* fn) {
  throw std::invalid_argument(std::string(fn) + ": not a Black-Scholes layout");
}

}  // namespace

BsLane bs_lane(const PortfolioView& v, std::size_t i) {
  switch (v.layout) {
    case Layout::kBsAos: {
      const BsOptionAos& o = v.aos.options[i];
      return {o.spot, o.strike, o.years, o.call, o.put};
    }
    case Layout::kBsSoa:
      return {v.soa.spot[i], v.soa.strike[i], v.soa.years[i], v.soa.call[i], v.soa.put[i]};
    case Layout::kBsSoaF:
      return {static_cast<double>(v.sp.spot[i]), static_cast<double>(v.sp.strike[i]),
              static_cast<double>(v.sp.years[i]), static_cast<double>(v.sp.call[i]),
              static_cast<double>(v.sp.put[i])};
    case Layout::kBsBlocked: {
      const BsBlockedView& b = v.blocked;
      const std::size_t w = static_cast<std::size_t>(b.block);
      const std::size_t blk = i / w, ln = i % w;
      return {b.field(blk, 0)[ln], b.field(blk, 1)[ln], b.field(blk, 2)[ln],
              b.field(blk, 3)[ln], b.field(blk, 4)[ln]};
    }
    default: break;
  }
  not_bs("bs_lane");
}

void set_bs_inputs(const PortfolioView& v, std::size_t i, double spot, double strike,
                   double years) {
  switch (v.layout) {
    case Layout::kBsAos: {
      BsOptionAos& o = v.aos.options[i];
      o.spot = spot;
      o.strike = strike;
      o.years = years;
      return;
    }
    case Layout::kBsSoa:
      v.soa.spot[i] = spot;
      v.soa.strike[i] = strike;
      v.soa.years[i] = years;
      return;
    case Layout::kBsSoaF:
      v.sp.spot[i] = static_cast<float>(spot);
      v.sp.strike[i] = static_cast<float>(strike);
      v.sp.years[i] = static_cast<float>(years);
      return;
    case Layout::kBsBlocked: {
      const BsBlockedView& b = v.blocked;
      const std::size_t w = static_cast<std::size_t>(b.block);
      const std::size_t blk = i / w, ln = i % w;
      b.field(blk, 0)[ln] = spot;
      b.field(blk, 1)[ln] = strike;
      b.field(blk, 2)[ln] = years;
      return;
    }
    default: break;
  }
  not_bs("set_bs_inputs");
}

void set_bs_outputs(const PortfolioView& v, std::size_t i, double call, double put) {
  switch (v.layout) {
    case Layout::kBsAos:
      v.aos.options[i].call = call;
      v.aos.options[i].put = put;
      return;
    case Layout::kBsSoa:
      v.soa.call[i] = call;
      v.soa.put[i] = put;
      return;
    case Layout::kBsSoaF:
      v.sp.call[i] = static_cast<float>(call);
      v.sp.put[i] = static_cast<float>(put);
      return;
    case Layout::kBsBlocked: {
      const BsBlockedView& b = v.blocked;
      const std::size_t w = static_cast<std::size_t>(b.block);
      b.field(i / w, 3)[i % w] = call;
      b.field(i / w, 4)[i % w] = put;
      return;
    }
    default: break;
  }
  not_bs("set_bs_outputs");
}

BsScalars bs_scalars(const PortfolioView& v) {
  switch (v.layout) {
    case Layout::kBsAos: return {v.aos.rate, v.aos.vol, v.aos.dividend};
    case Layout::kBsSoa: return {v.soa.rate, v.soa.vol, v.soa.dividend};
    case Layout::kBsSoaF:
      return {static_cast<double>(v.sp.rate), static_cast<double>(v.sp.vol), 0.0};
    case Layout::kBsBlocked: return {v.blocked.rate, v.blocked.vol, v.blocked.dividend};
    default: break;
  }
  not_bs("bs_scalars");
}

void set_bs_scalars(PortfolioView& v, const BsScalars& s) {
  switch (v.layout) {
    case Layout::kBsAos:
      v.aos.rate = s.rate;
      v.aos.vol = s.vol;
      v.aos.dividend = s.dividend;
      return;
    case Layout::kBsSoa:
      v.soa.rate = s.rate;
      v.soa.vol = s.vol;
      v.soa.dividend = s.dividend;
      return;
    case Layout::kBsSoaF:
      v.sp.rate = static_cast<float>(s.rate);
      v.sp.vol = static_cast<float>(s.vol);
      return;
    case Layout::kBsBlocked:
      v.blocked.rate = s.rate;
      v.blocked.vol = s.vol;
      v.blocked.dividend = s.dividend;
      return;
    default: break;
  }
  not_bs("set_bs_scalars");
}

// --- Conversion -------------------------------------------------------------

namespace {

// Inputs and outputs of option i of `src` into option j of `dst`.
void copy_lane(const PortfolioView& src, std::size_t i, const PortfolioView& dst, std::size_t j) {
  const BsLane l = bs_lane(src, i);
  set_bs_inputs(dst, j, l.spot, l.strike, l.years);
  set_bs_outputs(dst, j, l.call, l.put);
}

// The five SOA field arrays of n Ts, carved as one arena allocation so a
// fresh arena commits exactly one block for them; each field starts on
// its own cache line.
template <class T>
std::array<std::span<T>, 5> carve_fields(std::size_t n, Arena& a) {
  const std::size_t stride = round_to_line(n * sizeof(T)) / sizeof(T);
  const std::span<T> all = a.make_span<T>(5 * stride);
  return {all.subspan(0, n), all.subspan(stride, n), all.subspan(2 * stride, n),
          all.subspan(3 * stride, n), all.subspan(4 * stride, n)};
}

// Carve an empty target-layout view of n options from the arena in one
// allocation. Returns the view plus the bytes it occupies.
PortfolioView carve(Layout target, std::size_t n, const BsScalars& s, Arena& a,
                    std::size_t* bytes) {
  PortfolioView v;
  v.layout = target;
  switch (target) {
    case Layout::kBsAos: {
      auto opts = a.make_span<BsOptionAos>(n);
      v.aos = {opts, s.rate, s.vol, s.dividend};
      *bytes = opts.size_bytes();
      return v;
    }
    case Layout::kBsSoa: {
      const auto f = carve_fields<double>(n, a);
      v.soa = {f[0], f[1], f[2], f[3], f[4], s.rate, s.vol, s.dividend};
      *bytes = 5 * n * sizeof(double);
      return v;
    }
    case Layout::kBsSoaF: {
      const auto f = carve_fields<float>(n, a);
      v.sp = {f[0], f[1], f[2], f[3], f[4], static_cast<float>(s.rate),
              static_cast<float>(s.vol)};
      *bytes = 5 * n * sizeof(float);
      return v;
    }
    case Layout::kBsBlocked: {
      BsBlockedView b;
      b.n = n;
      const std::size_t w = static_cast<std::size_t>(b.block);
      const std::size_t nb = n ? (n + w - 1) / w : 0;
      b.data = a.make_span<double>(nb * 5 * w);
      b.rate = s.rate;
      b.vol = s.vol;
      b.dividend = s.dividend;
      v.blocked = b;
      *bytes = b.data.size_bytes();
      return v;
    }
    default: break;
  }
  throw std::invalid_argument("carve: not a Black-Scholes layout");
}

void fill(const PortfolioView& src, const PortfolioView& dst) {
  const std::size_t n = src.size();
  if (src.layout == Layout::kBsAos && dst.layout == Layout::kBsSoa) {
    const BsOptionAos* o = src.aos.options.data();
    const BsSoaView& t = dst.soa;
    for (std::size_t i = 0; i < n; ++i) {
      t.spot[i] = o[i].spot;
      t.strike[i] = o[i].strike;
      t.years[i] = o[i].years;
      t.call[i] = o[i].call;
      t.put[i] = o[i].put;
    }
    return;
  }
  if (src.layout == Layout::kBsSoa && dst.layout == Layout::kBsAos) {
    const BsSoaView& f = src.soa;
    BsOptionAos* o = dst.aos.options.data();
    for (std::size_t i = 0; i < n; ++i) {
      o[i] = {f.spot[i], f.strike[i], f.years[i], f.call[i], f.put[i]};
    }
    return;
  }
  if (src.layout == Layout::kBsAos && dst.layout == Layout::kBsBlocked && n > 0) {
    // Block-local transpose with the tail padded inline (clamping to the
    // last option) — the conversion the "incl. AOS->blocked" Fig. 4 rows
    // pay, so it must not go through the per-lane switch dispatch.
    const BsOptionAos* o = src.aos.options.data();
    const BsBlockedView& b = dst.blocked;
    const std::size_t w = static_cast<std::size_t>(b.block);
    const std::size_t nfull = n / w;  // blocks with no padded lanes
    for (std::size_t blk = 0; blk < nfull; ++blk) {
      double* spot = b.field(blk, 0);
      double* strike = b.field(blk, 1);
      double* years = b.field(blk, 2);
      double* call = b.field(blk, 3);
      double* put = b.field(blk, 4);
      const BsOptionAos* x = o + blk * w;
      for (std::size_t ln = 0; ln < w; ++ln) {
        spot[ln] = x[ln].spot;
        strike[ln] = x[ln].strike;
        years[ln] = x[ln].years;
        call[ln] = x[ln].call;
        put[ln] = x[ln].put;
      }
    }
    for (std::size_t blk = nfull; blk < b.num_blocks(); ++blk) {
      double* spot = b.field(blk, 0);
      double* strike = b.field(blk, 1);
      double* years = b.field(blk, 2);
      double* call = b.field(blk, 3);
      double* put = b.field(blk, 4);
      const std::size_t base = blk * w;
      for (std::size_t ln = 0; ln < w; ++ln) {
        const BsOptionAos& x = o[std::min(base + ln, n - 1)];
        spot[ln] = x.spot;
        strike[ln] = x.strike;
        years[ln] = x.years;
        call[ln] = x.call;
        put[ln] = x.put;
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) copy_lane(src, i, dst, i);
  // Lane-blocked targets pad the trailing lanes of the last block by
  // replicating the final option, so block kernels never read garbage.
  if (dst.layout == Layout::kBsBlocked && n > 0) {
    const std::size_t w = static_cast<std::size_t>(dst.blocked.block);
    const std::size_t ceil_n = dst.blocked.num_blocks() * w;
    for (std::size_t i = n; i < ceil_n; ++i) copy_lane(src, n - 1, dst, i);
  }
}

}  // namespace

bool convertible(Layout src, Layout target) {
  if (src == target) return true;
  return is_bs(src) && is_bs(target);
}

PortfolioView convert(const PortfolioView& src, Layout target, Arena& a,
                      ConvertStats* stats) {
  if (src.layout == target) {
    if (stats) *stats = {};
    return src;
  }
  if (!convertible(src.layout, target)) {
    throw std::invalid_argument(std::string("convert: ") + std::string(to_string(src.layout)) +
                                " -> " + std::string(to_string(target)) +
                                " is not a supported layout conversion");
  }
  arch::WallTimer t;
  std::size_t bytes = 0;
  PortfolioView dst = carve(target, src.size(), bs_scalars(src), a, &bytes);
  fill(src, dst);
  if (stats) *stats = {t.seconds(), bytes};
  return dst;
}

std::size_t copy_outputs(const PortfolioView& from, const PortfolioView& to) {
  if (!is_bs(from.layout) || !is_bs(to.layout)) {
    throw std::invalid_argument("copy_outputs: both views must be Black-Scholes layouts");
  }
  if (from.size() != to.size()) {
    throw std::invalid_argument("copy_outputs: size mismatch");
  }
  const std::size_t n = to.size();
  if (from.layout == Layout::kBsSoa && to.layout == Layout::kBsAos) {
    BsOptionAos* o = to.aos.options.data();
    for (std::size_t i = 0; i < n; ++i) {
      o[i].call = from.soa.call[i];
      o[i].put = from.soa.put[i];
    }
  } else if (from.layout == Layout::kBsAos && to.layout == Layout::kBsSoa) {
    const BsOptionAos* o = from.aos.options.data();
    for (std::size_t i = 0; i < n; ++i) {
      to.soa.call[i] = o[i].call;
      to.soa.put[i] = o[i].put;
    }
  } else if (from.layout == Layout::kBsBlocked &&
             (to.layout == Layout::kBsAos || to.layout == Layout::kBsSoa)) {
    // Blocked writeback stays block-contiguous: one call/put run per block
    // (the steady-state cost of pricing an AOS portfolio on a blocked
    // variant, so it matters as much as the kernel's own stores).
    const BsBlockedView& b = from.blocked;
    const std::size_t w = static_cast<std::size_t>(b.block);
    for (std::size_t blk = 0; blk < b.num_blocks(); ++blk) {
      const double* call = b.field(blk, 3);
      const double* put = b.field(blk, 4);
      const std::size_t base = blk * w;
      const std::size_t lanes = std::min(w, n - base);
      if (to.layout == Layout::kBsAos) {
        BsOptionAos* o = to.aos.options.data() + base;
        for (std::size_t ln = 0; ln < lanes; ++ln) {
          o[ln].call = call[ln];
          o[ln].put = put[ln];
        }
      } else {
        for (std::size_t ln = 0; ln < lanes; ++ln) {
          to.soa.call[base + ln] = call[ln];
          to.soa.put[base + ln] = put[ln];
        }
      }
    }
  } else if (from.layout == Layout::kBsSoaF && to.layout == Layout::kBsAos) {
    // f32 -> f64 writeback (the single-precision rows priced from an AOS
    // portfolio): widen per output, contiguous reads.
    BsOptionAos* o = to.aos.options.data();
    for (std::size_t i = 0; i < n; ++i) {
      o[i].call = static_cast<double>(from.sp.call[i]);
      o[i].put = static_cast<double>(from.sp.put[i]);
    }
  } else if (from.layout == Layout::kBsSoaF && to.layout == Layout::kBsSoa) {
    for (std::size_t i = 0; i < n; ++i) {
      to.soa.call[i] = static_cast<double>(from.sp.call[i]);
      to.soa.put[i] = static_cast<double>(from.sp.put[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const BsLane f = bs_lane(from, i);
      set_bs_outputs(to, i, f.call, f.put);
    }
  }
  const std::size_t elem = to.layout == Layout::kBsSoaF ? sizeof(float) : sizeof(double);
  return n * 2 * elem;
}

std::size_t copy_inputs(const PortfolioView& from, const PortfolioView& to) {
  if (!is_bs(from.layout) || !is_bs(to.layout)) {
    throw std::invalid_argument("copy_inputs: both views must be Black-Scholes layouts");
  }
  if (from.size() != to.size()) {
    throw std::invalid_argument("copy_inputs: size mismatch");
  }
  const std::size_t n = to.size();
  if (from.layout == to.layout && from.layout != Layout::kBsBlocked) {
    // Same layout (fused-group assembly): straight array copies.
    if (from.layout == Layout::kBsAos) {
      const BsOptionAos* o = from.aos.options.data();
      BsOptionAos* t = to.aos.options.data();
      for (std::size_t i = 0; i < n; ++i) {
        t[i].spot = o[i].spot;
        t[i].strike = o[i].strike;
        t[i].years = o[i].years;
      }
    } else if (from.layout == Layout::kBsSoa) {
      std::copy_n(from.soa.spot.data(), n, to.soa.spot.data());
      std::copy_n(from.soa.strike.data(), n, to.soa.strike.data());
      std::copy_n(from.soa.years.data(), n, to.soa.years.data());
    } else {
      std::copy_n(from.sp.spot.data(), n, to.sp.spot.data());
      std::copy_n(from.sp.strike.data(), n, to.sp.strike.data());
      std::copy_n(from.sp.years.data(), n, to.sp.years.data());
    }
  } else if (from.layout == Layout::kBsAos && to.layout == Layout::kBsSoa) {
    const BsOptionAos* o = from.aos.options.data();
    for (std::size_t i = 0; i < n; ++i) {
      to.soa.spot[i] = o[i].spot;
      to.soa.strike[i] = o[i].strike;
      to.soa.years[i] = o[i].years;
    }
  } else if (from.layout == Layout::kBsAos && to.layout == Layout::kBsSoaF) {
    const BsOptionAos* o = from.aos.options.data();
    for (std::size_t i = 0; i < n; ++i) {
      to.sp.spot[i] = static_cast<float>(o[i].spot);
      to.sp.strike[i] = static_cast<float>(o[i].strike);
      to.sp.years[i] = static_cast<float>(o[i].years);
    }
  } else if (from.layout == Layout::kBsAos && to.layout == Layout::kBsBlocked) {
    // Block-local transpose; lanes past n replicate the final option.
    const BsOptionAos* o = from.aos.options.data();
    const BsBlockedView& b = to.blocked;
    const std::size_t w = static_cast<std::size_t>(b.block);
    for (std::size_t blk = 0; blk < b.num_blocks(); ++blk) {
      double* spot = b.field(blk, 0);
      double* strike = b.field(blk, 1);
      double* years = b.field(blk, 2);
      const std::size_t base = blk * w;
      for (std::size_t ln = 0; ln < w; ++ln) {
        const BsOptionAos& x = o[std::min(base + ln, n - 1)];
        spot[ln] = x.spot;
        strike[ln] = x.strike;
        years[ln] = x.years;
      }
    }
  } else {
    const auto copy_in = [&](std::size_t i, std::size_t j) {
      const BsLane l = bs_lane(from, i);
      set_bs_inputs(to, j, l.spot, l.strike, l.years);
    };
    for (std::size_t i = 0; i < n; ++i) copy_in(i, i);
    if (to.layout == Layout::kBsBlocked && n > 0) {
      const std::size_t ceil_n = to.blocked.num_blocks() * static_cast<std::size_t>(to.blocked.block);
      for (std::size_t i = n; i < ceil_n; ++i) copy_in(n - 1, i);
    }
  }
  const std::size_t elem = to.layout == Layout::kBsSoaF ? sizeof(float) : sizeof(double);
  return n * 3 * elem;
}

PortfolioView allocate_like(const PortfolioView& like, Layout target, std::size_t n, Arena& a,
                            std::size_t* bytes) {
  std::size_t sz = 0;
  PortfolioView v = carve(target, n, bs_scalars(like), a, &sz);
  if (bytes) *bytes = sz;
  return v;
}

PortfolioView subview(const PortfolioView& v, std::size_t off, std::size_t m) {
  PortfolioView s = v;
  switch (v.layout) {
    case Layout::kSpecs:
      s.specs = v.specs.subspan(off, m);
      break;
    case Layout::kBsAos:
      s.aos.options = v.aos.options.subspan(off, m);
      break;
    case Layout::kBsSoa:
      s.soa.spot = v.soa.spot.subspan(off, m);
      s.soa.strike = v.soa.strike.subspan(off, m);
      s.soa.years = v.soa.years.subspan(off, m);
      s.soa.call = v.soa.call.subspan(off, m);
      s.soa.put = v.soa.put.subspan(off, m);
      break;
    case Layout::kBsSoaF:
      s.sp.spot = v.sp.spot.subspan(off, m);
      s.sp.strike = v.sp.strike.subspan(off, m);
      s.sp.years = v.sp.years.subspan(off, m);
      s.sp.call = v.sp.call.subspan(off, m);
      s.sp.put = v.sp.put.subspan(off, m);
      break;
    case Layout::kBsBlocked: {
      const std::size_t w = static_cast<std::size_t>(v.blocked.block);
      if (off % w != 0) {
        throw std::invalid_argument("subview: a bs_blocked range must start on a block boundary");
      }
      s.blocked.n = m;
      s.blocked.data = v.blocked.data.subspan(off * 5, s.blocked.num_blocks() * 5 * w);
      break;
    }
    case Layout::kPaths:
      s.npaths = m;
      break;
  }
  return s;
}

// --- Portfolio --------------------------------------------------------------

Portfolio Portfolio::bs(std::size_t n, Layout layout, std::uint64_t seed,
                        const WorkloadParams& p) {
  if (!is_bs(layout)) {
    throw std::invalid_argument("Portfolio::bs: layout must be a Black-Scholes layout");
  }
  Portfolio out;
  std::size_t bytes = 0;
  out.view_ = carve(layout, n, {p.rate, p.vol, 0.0}, out.arena_, &bytes);
  // One AOS-ordered Philox pass, written in place: option i's spot, strike
  // and years are the draw's 3i-th to (3i+2)-th uniforms in every layout.
  rng::Philox4x32 gen(seed, /*stream=*/0xB5);
  const auto uniform_in = [&gen](double lo, double hi) {
    return lo + (hi - lo) * gen.next_u01();
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double spot = uniform_in(p.spot_min, p.spot_max);
    const double strike = uniform_in(p.strike_min, p.strike_max);
    const double years = uniform_in(p.years_min, p.years_max);
    set_bs_inputs(out.view_, i, spot, strike, years);
    set_bs_outputs(out.view_, i, 0.0, 0.0);
  }
  // Lane-blocked padding replicates the final option, as convert() does.
  if (layout == Layout::kBsBlocked) {
    const BsBlockedView& b = out.view_.blocked;
    for (std::size_t i = n; i < b.num_blocks() * static_cast<std::size_t>(b.block); ++i) {
      copy_lane(out.view_, n - 1, out.view_, i);
    }
  }
  return out;
}

Portfolio Portfolio::specs(std::size_t n, std::uint64_t seed,
                           const SingleOptionWorkloadParams& p) {
  Portfolio out;
  const std::span<OptionSpec> dst = out.arena_.make_span<OptionSpec>(n);
  // Value-initialized first, as make_option_workload's vector is: the
  // draw leaves the dividend field and the padding bytes alone.
  std::uninitialized_value_construct(dst.begin(), dst.end());
  draw_option_workload(dst, seed, p);
  out.view_ = view_of(std::span<const OptionSpec>(dst));
  return out;
}

Portfolio Portfolio::specs(std::span<const OptionSpec> copy_from) {
  Portfolio out;
  const std::span<OptionSpec> dst = out.arena_.make_span<OptionSpec>(copy_from.size());
  std::copy(copy_from.begin(), copy_from.end(), dst.begin());
  out.view_ = view_of(std::span<const OptionSpec>(dst));
  return out;
}

Portfolio Portfolio::paths(std::size_t n) {
  Portfolio out;
  out.view_ = paths_view(n);
  return out;
}

}  // namespace finbench::core
