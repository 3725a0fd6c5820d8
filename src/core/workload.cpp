#include "finbench/core/workload.hpp"

#include "finbench/rng/philox.hpp"

namespace finbench::core {

namespace {

double uniform_in(rng::Philox4x32& gen, double lo, double hi) {
  return lo + (hi - lo) * gen.next_u01();
}

}  // namespace

void draw_option_workload(std::span<OptionSpec> out, std::uint64_t seed,
                          const SingleOptionWorkloadParams& p) {
  rng::Philox4x32 gen(seed, /*stream=*/0xA0);
  for (auto& o : out) {
    o.spot = uniform_in(gen, p.spot_min, p.spot_max);
    o.strike = uniform_in(gen, p.strike_min, p.strike_max);
    o.years = uniform_in(gen, p.years_min, p.years_max);
    o.rate = uniform_in(gen, p.rate_min, p.rate_max);
    o.vol = uniform_in(gen, p.vol_min, p.vol_max);
    o.type = p.type;
    o.style = p.style;
  }
}

std::vector<OptionSpec> make_option_workload(std::size_t n, std::uint64_t seed,
                                             const SingleOptionWorkloadParams& p) {
  std::vector<OptionSpec> out(n);
  draw_option_workload(out, seed, p);
  return out;
}

}  // namespace finbench::core
