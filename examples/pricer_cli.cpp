// pricer_cli: a command-line option pricer over the whole library — every
// numerical method behind one flag, so results can be cross-checked from
// the shell:
//
//   pricer_cli --method bs        --spot 100 --strike 105 --years 1 --vol 0.25
//   pricer_cli --method binomial  --style american --type put --steps 4096
//   pricer_cli --method lr        --steps 501
//   pricer_cli --method trinomial --steps 1000
//   pricer_cli --method cn        --style american --type put
//   pricer_cli --method mc        --paths 1048576
//   pricer_cli --method all       # run everything and tabulate
//
// Batch mode: price a CSV workload (core/io.hpp format) and write prices:
//   pricer_cli --csv-in quotes.csv --csv-out priced.csv [--steps N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/io.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/kernels/cranknicolson.hpp"
#include "finbench/kernels/lattice.hpp"
#include "finbench/kernels/montecarlo.hpp"

using namespace finbench;

namespace {

struct Args {
  std::string method = "all";
  core::OptionSpec opt;
  int steps = 1024;
  std::size_t paths = 1 << 17;
  std::uint64_t seed = 0;
  std::string csv_in, csv_out;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [--method bs|binomial|lr|trinomial|cn|mc|all]\n"
      "          [--type call|put] [--style european|american]\n"
      "          [--spot S] [--strike K] [--years T] [--rate r] [--vol v]\n"
      "          [--steps N] [--paths N] [--seed N]\n",
      argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--method")) a.method = need("--method");
    else if (!std::strcmp(argv[i], "--type")) {
      a.opt.type = std::strcmp(need("--type"), "put") ? core::OptionType::kCall
                                                      : core::OptionType::kPut;
    } else if (!std::strcmp(argv[i], "--style")) {
      a.opt.style = std::strcmp(need("--style"), "american") ? core::ExerciseStyle::kEuropean
                                                             : core::ExerciseStyle::kAmerican;
    } else if (!std::strcmp(argv[i], "--spot")) a.opt.spot = std::atof(need("--spot"));
    else if (!std::strcmp(argv[i], "--strike")) a.opt.strike = std::atof(need("--strike"));
    else if (!std::strcmp(argv[i], "--years")) a.opt.years = std::atof(need("--years"));
    else if (!std::strcmp(argv[i], "--rate")) a.opt.rate = std::atof(need("--rate"));
    else if (!std::strcmp(argv[i], "--vol")) a.opt.vol = std::atof(need("--vol"));
    else if (!std::strcmp(argv[i], "--steps")) a.steps = std::atoi(need("--steps"));
    else if (!std::strcmp(argv[i], "--paths")) a.paths = std::strtoull(need("--paths"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--seed")) a.seed = std::strtoull(need("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--csv-in")) a.csv_in = need("--csv-in");
    else if (!std::strcmp(argv[i], "--csv-out")) a.csv_out = need("--csv-out");
    else usage(argv[0]);
  }
  return a;
}

void run_method(const std::string& m, const Args& a) {
  const core::OptionSpec& o = a.opt;
  const bool american = o.style == core::ExerciseStyle::kAmerican;
  try {
    if (m == "bs") {
      if (american) {
        std::printf("  %-10s %s\n", "bs", "(closed form is European-only; skipping)");
        return;
      }
      std::printf("  %-10s %.6f\n", "bs", core::black_scholes_price(o));
    } else if (m == "binomial") {
      std::printf("  %-10s %.6f  (CRR, %d steps)\n", "binomial",
                  kernels::binomial::price_one_reference(o, a.steps), a.steps);
    } else if (m == "lr") {
      std::printf("  %-10s %.6f  (Leisen-Reimer, %d steps)\n", "lr",
                  kernels::lattice::price_leisen_reimer(o, a.steps | 1), a.steps | 1);
    } else if (m == "trinomial") {
      std::printf("  %-10s %.6f  (%d steps)\n", "trinomial",
                  kernels::lattice::price_trinomial(o, a.steps), a.steps);
    } else if (m == "cn") {
      kernels::cn::GridSpec g;
      const auto r = kernels::cn::price_wavefront_split(o, g);
      std::printf("  %-10s %.6f  (257x1000 grid, %ld PSOR iterations)\n", "cn", r.price,
                  r.total_iterations);
    } else if (m == "mc") {
      if (american) {
        std::printf("  %-10s %s\n", "mc", "(European estimator; skipping)");
        return;
      }
      std::vector<kernels::mc::McResult> res(1);
      kernels::mc::price_optimized_computed(std::span(&o, 1), a.paths, a.seed, res);
      std::printf("  %-10s %.6f +/- %.6f  (%zu paths)\n", "mc", res[0].price,
                  res[0].std_error, a.paths);
    } else {
      std::fprintf(stderr, "unknown method '%s'\n", m.c_str());
      std::exit(2);
    }
  } catch (const std::exception& e) {
    std::printf("  %-10s error: %s\n", m.c_str(), e.what());
  }
}

}  // namespace

int price_csv_batch(const Args& a) {
  const auto opts = core::read_options_csv_file(a.csv_in);
  std::vector<double> prices(opts.size());
  for (std::size_t i = 0; i < opts.size(); ++i) {
    const auto& o = opts[i];
    // Pick a sensible method per option: closed form for European, the
    // best lattice for American.
    prices[i] = o.style == core::ExerciseStyle::kEuropean
                    ? core::black_scholes_price(o)
                    : kernels::lattice::price_bbsr(o, a.steps);
  }
  core::write_options_csv_file(a.csv_out, opts, prices);
  std::printf("priced %zu options from %s -> %s\n", opts.size(), a.csv_in.c_str(),
              a.csv_out.c_str());
  return 0;
}

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (!a.csv_in.empty()) {
    if (a.csv_out.empty()) {
      std::fprintf(stderr, "--csv-in requires --csv-out\n");
      return 2;
    }
    return price_csv_batch(a);
  }
  std::printf("%s %s: S=%g K=%g T=%g r=%g vol=%g\n",
              a.opt.style == core::ExerciseStyle::kAmerican ? "american" : "european",
              a.opt.type == core::OptionType::kCall ? "call" : "put", a.opt.spot, a.opt.strike,
              a.opt.years, a.opt.rate, a.opt.vol);
  if (a.method == "all") {
    for (const char* m : {"bs", "binomial", "lr", "trinomial", "cn", "mc"}) run_method(m, a);
  } else {
    run_method(a.method, a);
  }
  return 0;
}
