// Portfolio / Arena / per-option access / layout-conversion implementation.
// Portfolio::bs is the one Black–Scholes book generator.
//
// Conversion pairs: any ordered pair of the Black–Scholes layouts
// (kBsAos, kBsSoa, kBsSoaF, kBsBlocked), each one instantiation of the
// same field-map copy loop. kSpecs and kPaths only admit the identity.

#include "finbench/core/portfolio.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

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

// --- The field map ----------------------------------------------------------
//
// Where field f (0 spot, 1 strike, 2 years, 3 call, 4 put) of option i
// lives in each Black–Scholes layout, as an lvalue of the layout's element
// type T; lanes(n) is the options a view of n stores (a lane-blocked view
// pads its last block), bytes(n) the bytes they occupy. The per-option
// accessors, the range copies, convert and the in-place draw all walk a
// view through this one map.

namespace {

[[noreturn]] void not_bs(const char* fn) {
  throw std::invalid_argument(std::string(fn) + ": not a Black-Scholes layout");
}

struct AosMap {
  using T = double;
  static constexpr double BsOptionAos::*kField[5] = {&BsOptionAos::spot, &BsOptionAos::strike,
                                                      &BsOptionAos::years, &BsOptionAos::call,
                                                      &BsOptionAos::put};
  BsOptionAos* options;
  T& at(int f, std::size_t i) const { return options[i].*kField[f]; }
  static std::size_t lanes(std::size_t n) { return n; }
  static std::size_t bytes(std::size_t n) { return n * sizeof(BsOptionAos); }
};

template <class E>
struct SoaMap {
  using T = E;
  T* fields[5];
  T& at(int f, std::size_t i) const { return fields[f][i]; }
  static std::size_t lanes(std::size_t n) { return n; }
  static std::size_t bytes(std::size_t n) { return 5 * n * sizeof(T); }
};

struct BlockedMap {
  using T = double;
  double* data;
  T& at(int f, std::size_t i) const {
    return data[(i / kBsBlock * 5 + static_cast<std::size_t>(f)) * kBsBlock + i % kBsBlock];
  }
  static std::size_t lanes(std::size_t n) { return (n + kBsBlock - 1) / kBsBlock * kBsBlock; }
  static std::size_t bytes(std::size_t n) { return 5 * lanes(n) * sizeof(double); }
};

AosMap map_of(const BsAosView& v) { return {v.options.data()}; }
SoaMap<double> map_of(const BsSoaView& v) {
  return {{v.spot.data(), v.strike.data(), v.years.data(), v.call.data(), v.put.data()}};
}
SoaMap<float> map_of(const BsSoaFView& v) {
  return {{v.spot.data(), v.strike.data(), v.years.data(), v.call.data(), v.put.data()}};
}
BlockedMap map_of(const BsBlockedView& v) { return {v.data.data()}; }

// f applied to the member of `v` its Black–Scholes layout populates.
template <class View, class F>
decltype(auto) visit_bs(View& v, const char* fn, F&& f) {
  switch (v.layout) {
    case Layout::kBsAos: return f(v.aos);
    case Layout::kBsSoa: return f(v.soa);
    case Layout::kBsSoaF: return f(v.sp);
    case Layout::kBsBlocked: return f(v.blocked);
    default: break;
  }
  not_bs(fn);
}

// Fields [F0, F1) of option i of `from` into option j of `to`.
template <int F0, int F1, class From, class To>
void copy_lane(const From& from, std::size_t i, const To& to, std::size_t j) {
  [&]<int... F>(std::integer_sequence<int, F...>) {
    ((to.at(F0 + F, j) = static_cast<typename To::T>(from.at(F0 + F, i))), ...);
  }(std::make_integer_sequence<int, F1 - F0>{});
}

// Fields [F0, F1) of options [0, n) of `from` into `to`. When the inputs
// travel, a lane-blocked target's padding lanes take the final option, so
// block kernels never read garbage. Returns the bytes written for the n
// options.
template <int F0, int F1>
std::size_t copy_fields(const PortfolioView& from, const PortfolioView& to, const char* fn) {
  if (from.size() != to.size()) throw std::invalid_argument(std::string(fn) + ": size mismatch");
  const std::size_t n = to.size();
  return visit_bs(from, fn, [&](const auto& f) {
    return visit_bs(to, fn, [&](const auto& t) {
      const auto src = map_of(f);
      const auto dst = map_of(t);
      using To = decltype(dst);
      for (std::size_t i = 0; i < n; ++i) copy_lane<F0, F1>(src, i, dst, i);
      if constexpr (F0 == 0) {
        for (std::size_t i = n; i < To::lanes(n); ++i) copy_lane<F0, F1>(src, n - 1, dst, i);
      }
      return n * (F1 - F0) * sizeof(typename To::T);
    });
  });
}

}  // namespace

std::size_t view_bytes(const PortfolioView& v) {
  switch (v.layout) {
    case Layout::kSpecs: return v.specs.size_bytes();
    case Layout::kPaths: return 0;
    default: break;
  }
  return visit_bs(v, "view_bytes", [&](const auto& x) {
    return decltype(map_of(x))::bytes(v.size());
  });
}

// --- Per-option access -----------------------------------------------------

BsLane bs_lane(const PortfolioView& v, std::size_t i) {
  return visit_bs(v, "bs_lane", [i](const auto& x) {
    const auto m = map_of(x);
    return BsLane{static_cast<double>(m.at(0, i)), static_cast<double>(m.at(1, i)),
                  static_cast<double>(m.at(2, i)), static_cast<double>(m.at(3, i)),
                  static_cast<double>(m.at(4, i))};
  });
}

void set_bs_inputs(const PortfolioView& v, std::size_t i, double spot, double strike,
                   double years) {
  visit_bs(v, "set_bs_inputs", [&](const auto& x) {
    const auto m = map_of(x);
    using T = typename decltype(m)::T;
    m.at(0, i) = static_cast<T>(spot);
    m.at(1, i) = static_cast<T>(strike);
    m.at(2, i) = static_cast<T>(years);
  });
}

void set_bs_outputs(const PortfolioView& v, std::size_t i, double call, double put) {
  visit_bs(v, "set_bs_outputs", [&](const auto& x) {
    const auto m = map_of(x);
    using T = typename decltype(m)::T;
    m.at(3, i) = static_cast<T>(call);
    m.at(4, i) = static_cast<T>(put);
  });
}

BsScalars bs_scalars(const PortfolioView& v) {
  return visit_bs(v, "bs_scalars", [](const auto& x) {
    return BsScalars{static_cast<double>(x.rate), static_cast<double>(x.vol),
                     static_cast<double>(x.dividend)};
  });
}

void set_bs_scalars(PortfolioView& v, const BsScalars& s) {
  visit_bs(v, "set_bs_scalars", [&s](auto& x) {
    using T = decltype(x.rate);
    x.rate = static_cast<T>(s.rate);
    x.vol = static_cast<T>(s.vol);
    x.dividend = static_cast<T>(s.dividend);
  });
}

// --- Conversion -------------------------------------------------------------

namespace {

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

// An empty target-layout view of n options, carved from the arena in one
// allocation.
PortfolioView carve(Layout target, std::size_t n, const BsScalars& s, Arena& a) {
  PortfolioView v;
  v.layout = target;
  switch (target) {
    case Layout::kBsAos:
      v.aos = {a.make_span<BsOptionAos>(n), s.rate, s.vol, s.dividend};
      return v;
    case Layout::kBsSoa: {
      const auto f = carve_fields<double>(n, a);
      v.soa = {f[0], f[1], f[2], f[3], f[4], s.rate, s.vol, s.dividend};
      return v;
    }
    case Layout::kBsSoaF: {
      const auto f = carve_fields<float>(n, a);
      v.sp = {f[0], f[1], f[2], f[3], f[4], static_cast<float>(s.rate),
              static_cast<float>(s.vol), static_cast<float>(s.dividend)};
      return v;
    }
    case Layout::kBsBlocked:
      v.blocked = {a.make_span<double>(5 * BlockedMap::lanes(n)), n, s.rate, s.vol, s.dividend};
      return v;
    default: break;
  }
  not_bs("carve");
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
  const PortfolioView dst = carve(target, src.size(), bs_scalars(src), a);
  copy_fields<0, 5>(src, dst, "convert");
  if (stats) *stats = {t.seconds(), view_bytes(dst)};
  return dst;
}

std::size_t copy_outputs(const PortfolioView& from, const PortfolioView& to) {
  return copy_fields<3, 5>(from, to, "copy_outputs");
}

std::size_t copy_inputs(const PortfolioView& from, const PortfolioView& to) {
  return copy_fields<0, 3>(from, to, "copy_inputs");
}

PortfolioView allocate_like(const PortfolioView& like, Layout target, std::size_t n, Arena& a,
                            std::size_t* bytes) {
  const PortfolioView v = carve(target, n, bs_scalars(like), a);
  if (bytes) *bytes = view_bytes(v);
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
    case Layout::kBsBlocked:
      if (off % kBsBlock != 0) {
        throw std::invalid_argument("subview: a bs_blocked range must start on a block boundary");
      }
      s.blocked.n = m;
      s.blocked.data = v.blocked.data.subspan(off * 5, s.blocked.num_blocks() * 5 * kBsBlock);
      break;
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
  out.view_ = carve(layout, n, {p.rate, p.vol, 0.0}, out.arena_);
  // One AOS-ordered Philox pass, written in place: option i's spot, strike
  // and years are the draw's 3i-th to (3i+2)-th uniforms in every layout.
  rng::Philox4x32 gen(seed, /*stream=*/0xB5);
  const auto uniform_in = [&gen](double lo, double hi) {
    return lo + (hi - lo) * gen.next_u01();
  };
  visit_bs(out.view_, "Portfolio::bs", [&](const auto& x) {
    const auto m = map_of(x);
    using T = typename decltype(m)::T;
    for (std::size_t i = 0; i < n; ++i) {
      m.at(0, i) = static_cast<T>(uniform_in(p.spot_min, p.spot_max));
      m.at(1, i) = static_cast<T>(uniform_in(p.strike_min, p.strike_max));
      m.at(2, i) = static_cast<T>(uniform_in(p.years_min, p.years_max));
      m.at(3, i) = T{0};
      m.at(4, i) = T{0};
    }
    // Lane-blocked padding replicates the final option, as convert() does.
    for (std::size_t i = n; i < m.lanes(n); ++i) copy_lane<0, 5>(m, n - 1, m, i);
  });
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
