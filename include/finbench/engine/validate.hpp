// finbench/engine/validate.hpp
//
// Registry self-validation: price a canonical workload through a variant
// and through the reference variant it links to, and compare within the
// variant's registered tolerance. Deterministic variants compare
// element-wise (relative error); statistical variants (different
// estimators) compare element-wise within the tolerance plus six standard
// errors of the two estimates.
//
// Shared by tests/test_engine.cpp and `pricectl --validate`.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace finbench::engine {

struct ValidationReport {
  std::string id;            // variant validated
  std::string reference_id;  // what it was compared against ("" = is reference)
  bool ok = false;
  bool skipped = false;      // reference variants validate trivially
  std::size_t items = 0;
  double max_rel_err = 0.0;  // worst element (deterministic comparisons)
  double mean_abs_err = 0.0; // |mean difference| (statistical comparisons)
  double tolerance = 0.0;
  std::string detail;        // human-readable failure description
};

// Validate one variant by id (throws std::invalid_argument on unknown id).
// `nopt` scales the canonical workload; small values keep it fast.
ValidationReport validate_variant(const std::string& id, std::size_t nopt = 64);

// Validate every registered variant.
std::vector<ValidationReport> validate_all(std::size_t nopt = 64);

}  // namespace finbench::engine
