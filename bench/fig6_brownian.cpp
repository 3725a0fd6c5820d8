// Reproduces Fig. 6: 64-step double-precision Brownian bridge construction
// (millions of simulation paths per second) per optimization level.
//
// Paper anchors (Sec. IV-C3): at basic level KNC is 25% *slower* than
// SNB-EP; with SIMD across paths both platforms are bandwidth-bound (ratio
// = bandwidth ratio); the advanced interleaved-RNG and cache-to-cache
// variants become compute-bound, KNC ~2x SNB-EP.
//
// Measurement semantics follow the paper: "the timings in Fig. 6 do not
// account for the time taken for random number generation". Basic and
// intermediate stream pre-generated normals from DRAM; the advanced rows
// read normals from a cache-resident buffer (the effect of interleaving
// generation with construction), and the cache-to-cache row additionally
// consumes paths from cache instead of writing them to DRAM. Two
// supplementary rows report the true end-to-end variants with RNG cost
// included (what Table II's RNG rates imply).

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/brownian.hpp"
#include "finbench/rng/normal.hpp"

using namespace finbench;
using namespace finbench::kernels;

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const int depth = 6;  // 64 steps
  const std::size_t nsim = opts.full ? (1u << 19) : (1u << 16);

  const auto sched = brownian::BridgeSchedule::uniform(depth, 1.0);
  const std::size_t zn = sched.normals_per_path();
  const std::size_t np = sched.num_points();
  const int maxw = vecmath::max_width();

  bench::Projector proj;
  harness::Report report("Fig. 6: 64-step Brownian bridge construction", "paths/s");
  report.add_note("nsim = " + std::to_string(nsim) + "; " + std::to_string(zn) +
                  " normals consumed, " + std::to_string(np) + " points produced per path");
  report.add_note("RNG time excluded per the paper; '+RNG' rows include it");

  arch::AlignedVector<double> z(nsim * zn);
  rng::NormalStream stream(1);
  stream.fill(z);
  const auto z4 = brownian::lane_block_normals(z, nsim, zn, 4);

  std::vector<double> paths(nsim * np);
  std::vector<double> avg(nsim);

  const double flops = brownian::flops_per_path(depth);
  const double bytes_stream = 8.0 * (zn + np);  // normals in, path out (DRAM)
  const double bytes_cached_z = 8.0 * np;       // only the path goes to DRAM
  const double bytes_fused = 8.0;               // one reduced value per path

  // Cache-resident chunks: small enough that z and the output stay in L2.
  // Their normals are the first chunk of paths, lane-blocked at full width.
  const std::size_t chunk = 512;
  const auto z_chunk = brownian::lane_block_normals(z, chunk, zn, maxw);

  // The registry-dispatched row: the adapter owns its z stream (same seed,
  // so identical normals). The rows no registry variant covers — basic,
  // the 4-wide (SNB-EP) row, the bespoke cache-chunked rows and the
  // end-to-end RNG-interleaved ones — run the kernel over the engine pool
  // directly in the registry's 8-path ranges, on normals built above,
  // outside the timed region.
  engine::PricingRequest req;
  req.portfolio = core::paths_view(nsim);
  req.bridge_depth = depth;
  req.seed = 1;
  req.kernel_id = "brownian.intermediate.auto";
  auto direct = [&](const char* label, auto&& range) {
    return bench::items_per_sec(label, nsim, opts.reps, [&] { bench::on_pool(nsim, 8, range); });
  };

  const double basic = direct("brownian.basic", [&](std::size_t b, std::size_t e) {
    brownian::construct_basic(sched, z, nsim, paths, b, e);
  });
  const double inter4 = direct("brownian.inter4", [&](std::size_t b, std::size_t e) {
    brownian::construct_intermediate(sched, z4, nsim, paths, brownian::Width::kAvx2, b, e);
  });
  const double inter8 = bench::measure_variant("brownian.inter8", req, nsim, opts.reps);
  // The two cache-chunked rows spread their 512-path blocks over the
  // engine pool; each participant builds in its own buffers.
  // Interleaved-RNG effect: normals always hit in cache; paths to DRAM.
  const double cached_z = bench::items_per_sec("brownian.cached_z", nsim, opts.reps, [&] {
    bench::on_pool(nsim, chunk, [&](std::size_t b, std::size_t e) {
      for (std::size_t base = b; base + chunk <= e; base += chunk) {
        brownian::construct_intermediate(sched, z_chunk, chunk,
                                         {paths.data() + base * np, chunk * np});
      }
    });
  });
  // Cache-to-cache: normals and paths both stay in cache; only the reduced
  // per-path average leaves.
  const std::size_t participants =
      static_cast<std::size_t>(engine::ThreadPool::shared().size());
  std::vector<arch::AlignedVector<double>> outs(participants,
                                                arch::AlignedVector<double>(chunk * np));
  std::vector<arch::AlignedVector<double>> accs(participants, arch::AlignedVector<double>(chunk));
  const double fused = bench::items_per_sec("brownian.fused", nsim, opts.reps, [&] {
    bench::on_pool(nsim, chunk, [&](std::size_t b, std::size_t e) {
      const auto p = static_cast<std::size_t>(engine::ThreadPool::current_participant());
      arch::AlignedVector<double>& out_chunk = outs[p];
      arch::AlignedVector<double>& acc = accs[p];
      for (std::size_t base = b; base + chunk <= e; base += chunk) {
        brownian::construct_intermediate(sched, z_chunk, chunk, out_chunk);
        for (std::size_t s = 0; s < chunk; ++s) acc[s] = 0.0;
        for (std::size_t c = 1; c < np; ++c) {
          const double* row = out_chunk.data() + c * chunk;
#pragma omp simd
          for (std::size_t s = 0; s < chunk; ++s) acc[s] += row[s];
        }
        const double inv = 1.0 / static_cast<double>(np - 1);
        for (std::size_t s = 0; s < chunk; ++s) avg[base + s] = acc[s] * inv;
      }
    });
  });
  // End-to-end variants with RNG included (supplementary).
  const double e2e_interleaved =
      direct("brownian.e2e_interleaved", [&](std::size_t b, std::size_t e) {
        brownian::construct_advanced_interleaved(sched, req.seed, nsim, paths,
                                                 brownian::Width::kAuto, b, e);
      });
  const double e2e_fused = direct("brownian.e2e_fused", [&](std::size_t b, std::size_t e) {
    brownian::construct_advanced_fused(sched, req.seed, nsim, avg, brownian::Width::kAuto, b, e);
  });

  report.add_row(proj.make_row("Basic (scalar per path, omp)", basic, flops, bytes_stream, 1, 1));
  report.add_row(
      proj.make_row("Intermediate (SIMD across paths) 4w", inter4, flops, bytes_stream, 4, 4));
  report.add_row(
      proj.make_row("Intermediate (SIMD across paths) 8w", inter8, flops, bytes_stream, 8, 8));
  report.add_row(
      proj.make_row("Advanced (interleaved RNG, cached z) 8w", cached_z, flops, bytes_cached_z,
                    8, 8));
  report.add_row(
      proj.make_row("Advanced (cache-to-cache fused) 8w", fused, flops, bytes_fused, 8, 8));
  report.add_row(proj.make_row("  +RNG: end-to-end interleaved 8w", e2e_interleaved, flops,
                               bytes_cached_z, 8, 8));
  report.add_row(
      proj.make_row("  +RNG: end-to-end fused 8w", e2e_fused, flops, bytes_fused, 8, 8));

  report.add_check("SIMD across paths beats the scalar construction", inter4 > basic);
  // On this working set the 8-wide path doubles the per-group buffer
  // footprint, so parity (not gain) is the expectation; the margin covers
  // single-core scheduling noise.
  report.add_check("8-wide roughly keeps pace with 4-wide", inter8 > 0.75 * inter4);
  // The cached-z win is a *bandwidth* effect: it halves DRAM traffic, so
  // it only shows as speedup when the construction is DRAM-bound (16-core
  // machines; the paper's case). A single core is compute-bound here, so
  // the check only guards against regression, with noise margin.
  report.add_check("keeping normals in cache does not hurt (paper: helps when BW-bound)",
                   cached_z > 0.7 * inter8,
                   harness::eng(cached_z) + " vs " + harness::eng(inter8));
  report.add_check("cache-to-cache at least matches DRAM-bound construction",
                   fused > 0.95 * cached_z,
                   harness::eng(fused) + " vs " + harness::eng(cached_z));
  report.add_check("projected KNC/SNB bandwidth-bound ratio tracks 150/76",
                   harness::ratio_within(proj.project(proj.knc, inter8, flops, bytes_stream, 8) /
                                             proj.project(proj.snb, inter4, flops, bytes_stream, 4),
                                         150.0 / 76.0, 0.5, 2.0));

  bench::finish(report, opts);
  return 0;
}
