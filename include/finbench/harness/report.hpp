// finbench/harness/report.hpp
//
// Result reporting shared by the bench/ binaries. Each paper exhibit is
// reproduced as a table of optimization levels x platforms:
//
//   - measured host throughput (scalar / 4-wide / 8-wide as applicable)
//   - modeled SNB-EP and KNC projections (efficiency x modeled roofline,
//     the DESIGN.md §1 hardware substitution)
//   - the paper's reported value, where the paper gives one
//   - PASS/FAIL shape checks (orderings and rough ratios)

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "finbench/arch/machine_model.hpp"

namespace finbench::harness {

struct Row {
  std::string label;                  // e.g. "Intermediate (AOS to SOA)"
  double host_items_per_sec = 0.0;    // measured on this machine
  double snb_projected = 0.0;         // modeled (0 = not applicable)
  double knc_projected = 0.0;
  std::optional<double> paper_snb;    // paper-reported values
  std::optional<double> paper_knc;
  // Cost-model metadata (0 = unknown): filled by bench::Projector::make_row
  // and carried into the JSON run report (finbench/obs/run_report.hpp).
  int width = 0;                      // SIMD lanes the measured path used
  double flops_per_item = 0.0;
  double bytes_per_item = 0.0;
  double host_efficiency = 0.0;       // measured / width-adjusted host roofline
};

class Report {
 public:
  Report(std::string exhibit, std::string units) : exhibit_(std::move(exhibit)), units_(std::move(units)) {}

  void add_row(Row row) { rows_.push_back(std::move(row)); }

  struct Check {
    std::string name;
    bool passed;
    std::string detail;
  };

  // Shape checks: named boolean assertions about the result structure
  // ("advanced beats basic", "KNC/SNB ratio within 2x of paper's", ...).
  void add_check(const std::string& name, bool passed, const std::string& detail = "");

  // Free-form context lines printed under the header.
  void add_note(std::string note) { notes_.push_back(std::move(note)); }

  // Render to stdout; returns the number of failed shape checks.
  int print() const;

  // Append rows as CSV to `path` (one line per row, exhibit tagged);
  // false when the file could not be opened or written.
  bool write_csv(const std::string& path) const;

  int failed_checks() const;

  // Read accessors for exporters (CSV, the obs JSON run report).
  const std::string& exhibit() const { return exhibit_; }
  const std::string& units() const { return units_; }
  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<Check>& checks() const { return checks_; }

 private:
  std::string exhibit_;
  std::string units_;
  std::vector<std::string> notes_;
  std::vector<Row> rows_;
  std::vector<Check> checks_;
};

// Helper: format items/sec with engineering suffixes (K/M/G).
std::string eng(double v);

// Relative-ratio check helper: is `actual` within [lo, hi] x `expected`?
bool ratio_within(double actual, double expected, double lo, double hi);

// The DESIGN.md §1 hardware substitution, as a tested library facility:
// project a kernel's throughput from this host onto a modeled machine by
// preserving its measured roofline efficiency.
//
//   efficiency = host_measured / host_roofline(width-adjusted)
//   projected  = efficiency x target_roofline(width-adjusted)
//
// Width adjustment scales each machine's compute roof to the SIMD width
// the measured code path actually uses (a scalar reference projected onto
// SNB-EP stays scalar there).
class Projector {
 public:
  Projector(arch::MachineModel host, arch::MachineModel target);

  // Roofline throughput (items/s) of `machine` for a kernel using `width`
  // SIMD lanes, `flops_per_item` DP flops and `bytes_per_item` DRAM bytes.
  static double width_adjusted_roofline(const arch::MachineModel& machine,
                                        double flops_per_item, double bytes_per_item,
                                        int width);

  double efficiency(double host_measured, double flops_per_item, double bytes_per_item,
                    int width) const;
  double project(double host_measured, double flops_per_item, double bytes_per_item,
                 int width) const;

  const arch::MachineModel& host() const { return host_; }
  const arch::MachineModel& target() const { return target_; }

 private:
  arch::MachineModel host_;
  arch::MachineModel target_;
};

}  // namespace finbench::harness
