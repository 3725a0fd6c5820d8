// finbench/finbench.hpp — umbrella header: the whole public API.
//
// Prefer including the specific module headers in library code; this
// convenience header is for applications and exploration.

#pragma once

// Substrates.
#include "finbench/arch/aligned.hpp"
#include "finbench/arch/machine_model.hpp"
#include "finbench/arch/parallel.hpp"
#include "finbench/arch/timing.hpp"
#include "finbench/arch/topology.hpp"
#include "finbench/rng/halton.hpp"
#include "finbench/rng/mt19937.hpp"
#include "finbench/rng/normal.hpp"
#include "finbench/rng/philox.hpp"
#include "finbench/rng/splitmix64.hpp"
#include "finbench/rng/xoshiro256.hpp"
#include "finbench/simd/vec.hpp"
#include "finbench/simd/vecf.hpp"
#include "finbench/vecmath/array_math.hpp"
#include "finbench/vecmath/vecmath.hpp"
#include "finbench/vecmath/vecmathf.hpp"

// Core pricing vocabulary.
#include "finbench/core/analytic.hpp"
#include "finbench/core/io.hpp"
#include "finbench/core/option.hpp"
#include "finbench/core/term_structure.hpp"
#include "finbench/core/vol_surface.hpp"
#include "finbench/core/workload.hpp"

// Kernels.
#include "finbench/kernels/binomial.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/kernels/brownian.hpp"
#include "finbench/kernels/cranknicolson.hpp"
#include "finbench/kernels/lattice.hpp"
#include "finbench/kernels/montecarlo.hpp"
#include "finbench/kernels/risk.hpp"

// Benchmark harness.
#include "finbench/harness/report.hpp"
