#include "finbench/harness/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace finbench::harness {

std::string eng(double v) {
  char buf[64];
  if (v >= 1e9) std::snprintf(buf, sizeof buf, "%8.3f G", v / 1e9);
  else if (v >= 1e6) std::snprintf(buf, sizeof buf, "%8.3f M", v / 1e6);
  else if (v >= 1e3) std::snprintf(buf, sizeof buf, "%8.3f K", v / 1e3);
  else std::snprintf(buf, sizeof buf, "%8.3f  ", v);
  return buf;
}

bool ratio_within(double actual, double expected, double lo, double hi) {
  if (expected == 0.0) return false;
  const double r = actual / expected;
  return r >= lo && r <= hi;
}

void Report::add_check(const std::string& name, bool passed, const std::string& detail) {
  checks_.push_back({name, passed, detail});
}

int Report::failed_checks() const {
  int n = 0;
  for (const auto& c : checks_) n += c.passed ? 0 : 1;
  return n;
}

int Report::print() const {
  std::printf("\n================================================================================\n");
  std::printf("%s  [%s]\n", exhibit_.c_str(), units_.c_str());
  std::printf("================================================================================\n");
  for (const auto& n : notes_) std::printf("  %s\n", n.c_str());
  std::printf("  %-38s %12s %12s %12s %10s %10s\n", "variant", "host", "SNB-EP*", "KNC*",
              "paper SNB", "paper KNC");
  std::printf("  %-38s %12s %12s %12s %10s %10s\n", "", "(measured)", "(modeled)", "(modeled)",
              "", "");
  for (const auto& r : rows_) {
    auto opt_str = [](const std::optional<double>& v) -> std::string {
      return v ? eng(*v) : std::string("       -  ");
    };
    std::printf("  %-38s %12s %12s %12s %10s %10s\n", r.label.c_str(),
                eng(r.host_items_per_sec).c_str(),
                r.snb_projected > 0 ? eng(r.snb_projected).c_str() : "       -  ",
                r.knc_projected > 0 ? eng(r.knc_projected).c_str() : "       -  ",
                opt_str(r.paper_snb).c_str(), opt_str(r.paper_knc).c_str());
  }
  if (!checks_.empty()) {
    std::printf("  shape checks:\n");
    for (const auto& c : checks_) {
      std::printf("    [%s] %s%s%s\n", c.passed ? "PASS" : "FAIL", c.name.c_str(),
                  c.detail.empty() ? "" : " — ", c.detail.c_str());
    }
  }
  std::printf("  (* modeled via measured-efficiency x Table-I roofline; see DESIGN.md §1)\n");
  return failed_checks();
}

Projector::Projector(arch::MachineModel host, arch::MachineModel target)
    : host_(std::move(host)), target_(std::move(target)) {}

double Projector::width_adjusted_roofline(const arch::MachineModel& machine,
                                          double flops_per_item, double bytes_per_item,
                                          int width) {
  arch::MachineModel m = machine;
  const int w = width < 1 ? 1 : (width > m.simd_dp ? m.simd_dp : width);
  m.dp_gflops *= static_cast<double>(w) / m.simd_dp;
  return arch::roofline(m, flops_per_item, bytes_per_item).items_per_sec();
}

double Projector::efficiency(double host_measured, double flops_per_item,
                             double bytes_per_item, int width) const {
  return host_measured /
         width_adjusted_roofline(host_, flops_per_item, bytes_per_item, width);
}

double Projector::project(double host_measured, double flops_per_item, double bytes_per_item,
                          int width) const {
  return efficiency(host_measured, flops_per_item, bytes_per_item, width) *
         width_adjusted_roofline(target_, flops_per_item, bytes_per_item, width);
}

bool Report::write_csv(const std::string& path) const {
  std::ofstream f(path, std::ios::app);
  for (const auto& r : rows_) {
    f << exhibit_ << ',' << r.label << ',' << r.host_items_per_sec << ',' << r.snb_projected
      << ',' << r.knc_projected << ',' << (r.paper_snb ? *r.paper_snb : 0.0) << ','
      << (r.paper_knc ? *r.paper_knc : 0.0) << '\n';
  }
  return static_cast<bool>(f.flush());
}

}  // namespace finbench::harness
