// Tests for the benchmark-harness reporting utilities.

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "finbench/arch/machine_model.hpp"
#include "finbench/harness/report.hpp"
#include "finbench/obs/json.hpp"
#include "finbench/obs/run_report.hpp"

namespace {

using namespace finbench::harness;

// One parser reads every numeric flag of pricectl and the exhibits: plain
// digits that fit the field, nothing else.
TEST(BenchFlags, ParseCountAcceptsOnlyPlainDigitsThatFit) {
  using finbench::bench::parse_count;
  EXPECT_EQ(parse_count("0", 10), 0u);
  EXPECT_EQ(parse_count("12", 12), 12u);
  EXPECT_EQ(parse_count("18446744073709551615", UINT64_MAX), UINT64_MAX);
  for (const char* bad : {"", "-5", "+5", " 5", "5 ", "12abc", "abc", "0x10", "1e3", "1.5"}) {
    EXPECT_FALSE(parse_count(bad, 1000).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_count(nullptr, 10).has_value());
  EXPECT_FALSE(parse_count("13", 12).has_value());
  EXPECT_FALSE(parse_count("3000000000", INT_MAX).has_value());
  EXPECT_FALSE(parse_count("4294967297", INT_MAX).has_value());
  EXPECT_FALSE(parse_count("18446744073709551616", UINT64_MAX).has_value());
}

// --threads is bounded, so a typo cannot start thousands of OS threads.
// Checked on the parser: Options::parse exits before anything sizes a pool.
TEST(BenchFlags, ThreadsAboveTheBoundAreRejected) {
  using finbench::bench::kMaxThreads;
  using finbench::bench::parse_count;
  EXPECT_EQ(parse_count("1024", kMaxThreads), 1024u);
  EXPECT_FALSE(parse_count("1025", kMaxThreads).has_value());
  EXPECT_FALSE(parse_count("100000", kMaxThreads).has_value());
  char prog[] = "fig4", flag[] = "--threads", value[] = "100000";
  char* argv[] = {prog, flag, value};
  EXPECT_EXIT(finbench::bench::Options::parse(3, argv), ::testing::ExitedWithCode(2),
              "fig4: --threads takes a whole number from 0 to 1024, not '100000'");
}

TEST(Eng, FormatsMagnitudes) {
  EXPECT_NE(eng(1.5e9).find("G"), std::string::npos);
  EXPECT_NE(eng(2.5e6).find("M"), std::string::npos);
  EXPECT_NE(eng(3.5e3).find("K"), std::string::npos);
  EXPECT_EQ(eng(999.0).find("K"), std::string::npos);
}

TEST(Eng, ValuesSurviveRoundtrip) {
  const std::string s = eng(1.234e6);
  EXPECT_NE(s.find("1.234"), std::string::npos);
}

TEST(RatioWithin, Basics) {
  EXPECT_TRUE(ratio_within(100.0, 100.0, 0.5, 2.0));
  EXPECT_TRUE(ratio_within(199.0, 100.0, 0.5, 2.0));
  EXPECT_FALSE(ratio_within(201.0, 100.0, 0.5, 2.0));
  EXPECT_FALSE(ratio_within(49.0, 100.0, 0.5, 2.0));
  EXPECT_FALSE(ratio_within(1.0, 0.0, 0.5, 2.0));  // no expectation -> fail
}

TEST(Report, CountsFailedChecks) {
  Report r("Test exhibit", "items/s");
  r.add_check("always passes", true);
  r.add_check("always fails", false, "because");
  r.add_check("passes too", true);
  EXPECT_EQ(r.failed_checks(), 1);
}

TEST(Report, PrintReturnsFailureCount) {
  Report r("Exhibit", "u/s");
  r.add_row({"variant A", 1e6, 2e6, 4e6, 1.5e6, 3e6});
  r.add_row({"variant B", 2e6, 0.0, 0.0, std::nullopt, std::nullopt});
  r.add_note("a note");
  r.add_check("fails", false);
  EXPECT_EQ(r.print(), 1);
}

TEST(Report, CsvAppendsRows) {
  const std::string path = "/tmp/finbench_test_report.csv";
  std::remove(path.c_str());
  Report r("CSV exhibit", "u/s");
  r.add_row({"v1", 1.0, 2.0, 3.0, 4.0, 5.0});
  r.add_row({"v2", 10.0, 20.0, 30.0, std::nullopt, std::nullopt});
  EXPECT_TRUE(r.write_csv(path));
  std::ifstream f(path);
  std::string line;
  int lines = 0;
  while (std::getline(f, line)) {
    ++lines;
    EXPECT_NE(line.find("CSV exhibit"), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(Projector, IdentityTargetReturnsMeasurement) {
  const auto m = finbench::arch::snb_ep();
  const Projector p(m, m);
  EXPECT_NEAR(p.project(123.0e6, 100.0, 8.0, 4), 123.0e6, 1e-3);
}

TEST(Projector, ScalesWithComputeRoofRatio) {
  // Compute-bound kernel at full width: projection scales with peak flops.
  const auto snb = finbench::arch::snb_ep();
  const auto knc = finbench::arch::knc();
  const Projector p(snb, knc);
  const double measured = 1.0e6;  // items/s on "host" = SNB model
  const double flops = 1.0e5;     // strongly compute bound
  // SNB 4-wide vs KNC measured-at... width 4 on both: KNC's 4-lane roof is
  // half its 8-lane peak.
  const double projected = p.project(measured, flops, 0.0, 4);
  EXPECT_NEAR(projected / measured, (knc.dp_gflops / 2) / snb.dp_gflops, 1e-9);
}

TEST(Projector, BandwidthBoundIgnoresWidth) {
  const auto snb = finbench::arch::snb_ep();
  const auto knc = finbench::arch::knc();
  const Projector p(snb, knc);
  // 1 flop over 1 KB: pure bandwidth. Projection = BW ratio, any width.
  const double r1 = p.project(1e6, 1.0, 1024.0, 1);
  const double r8 = p.project(1e6, 1.0, 1024.0, 8);
  EXPECT_NEAR(r1 / 1e6, knc.bw_gbs / snb.bw_gbs, 1e-9);
  EXPECT_NEAR(r1, r8, 1e-3);
}

TEST(Projector, WidthClampedToMachineLanes) {
  const auto snb = finbench::arch::snb_ep();  // 4 DP lanes
  // Asking for width 8 on a 4-lane machine uses the full roof, not 2x it.
  const double w8 = Projector::width_adjusted_roofline(snb, 100.0, 0.0, 8);
  const double w4 = Projector::width_adjusted_roofline(snb, 100.0, 0.0, 4);
  EXPECT_EQ(w8, w4);
}

TEST(Projector, EfficiencyIsFractionOfRoof) {
  const auto snb = finbench::arch::snb_ep();
  const Projector p(snb, snb);
  const double roof = Projector::width_adjusted_roofline(snb, 200.0, 40.0, 4);
  EXPECT_NEAR(p.efficiency(roof / 2, 200.0, 40.0, 4), 0.5, 1e-12);
}

TEST(RunReport, SchemaRoundTrips) {
  namespace obs = finbench::obs;
  Report r("Round-trip exhibit", "options/s");
  r.add_note("a context note");
  Row row;
  row.label = "advanced 4w";
  row.host_items_per_sec = 1.5e6;
  row.snb_projected = 2.5e6;
  row.knc_projected = 5.0e6;
  row.paper_snb = 2.0e6;
  row.width = 4;
  row.flops_per_item = 200.0;
  row.bytes_per_item = 40.0;
  row.host_efficiency = 0.75;
  r.add_row(row);
  r.add_check("a passing check", true);
  r.add_check("a failing check", false, "why it failed");

  obs::RunContext ctx;
  ctx.binary = "test_harness";
  ctx.full = true;
  ctx.reps = 7;
  ctx.threads = 3;
  ctx.denormal_mode = "ftz+daz";

  const std::string path = "/tmp/finbench_test_run_report.json";
  ASSERT_TRUE(obs::write_run_report(path, r, ctx));
  const auto doc = obs::json::parse_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(doc.at("schema").string, "finbench.run_report/v2");
  EXPECT_EQ(doc.at("exhibit").string, "Round-trip exhibit");
  EXPECT_EQ(doc.at("units").string, "options/s");
  EXPECT_EQ(doc.at("binary").string, "test_harness");
  EXPECT_TRUE(doc.at("full").boolean);
  EXPECT_EQ(doc.at("reps").number, 7.0);
  EXPECT_EQ(doc.at("threads").number, 3.0);

  const auto& host = doc.at("host");
  EXPECT_TRUE(host.at("logical_cpus").is_number());
  EXPECT_TRUE(host.at("dp_gflops_peak").is_number());

  ASSERT_EQ(doc.at("rows").array.size(), 1u);
  const auto& jrow = doc.at("rows").array[0];
  EXPECT_EQ(jrow.at("label").string, "advanced 4w");
  EXPECT_EQ(jrow.at("host_items_per_sec").number, 1.5e6);
  EXPECT_EQ(jrow.at("paper_snb").number, 2.0e6);
  EXPECT_TRUE(jrow.at("paper_knc").is_null());
  EXPECT_EQ(jrow.at("width").number, 4.0);
  EXPECT_EQ(jrow.at("roofline_efficiency").number, 0.75);

  ASSERT_EQ(doc.at("checks").array.size(), 2u);
  EXPECT_TRUE(doc.at("checks").array[0].at("passed").boolean);
  EXPECT_FALSE(doc.at("checks").array[1].at("passed").boolean);

  ASSERT_EQ(doc.at("notes").array.size(), 1u);
  EXPECT_EQ(doc.at("notes").array[0].string, "a context note");

  EXPECT_TRUE(doc.at("perf").at("available").is_bool());
  EXPECT_TRUE(doc.at("metrics").at("counters").is_object());
  EXPECT_TRUE(doc.at("measurements").is_array());

  // The robust object rides on every report with a fixed counter schema:
  // the denormal policy threaded through the context, and every robust.*
  // counter present with an explicit (possibly zero) value.
  const auto& robust = doc.at("robust");
  EXPECT_EQ(robust.at("denormal_mode").string, "ftz+daz");
  const auto& counters = robust.at("counters");
  ASSERT_TRUE(counters.is_object());
  for (const char* key :
       {"robust.sanitize.scanned", "robust.sanitize.faulty", "robust.sanitize.clamped",
        "robust.sanitize.skipped", "robust.guard.violations", "robust.guard.repaired",
        "robust.inject.poisoned", "robust.inject.corrupted", "robust.inject.thrown",
        "robust.inject.slow", "robust.fallback.chunks", "robust.fallback.exhausted",
        "robust.deadline.expired", "robust.deadline.chunks_skipped",
        "pool.exceptions.suppressed"}) {
    EXPECT_TRUE(counters.at(key).is_number()) << key;
    EXPECT_GE(counters.at(key).number, 0.0) << key;
  }
}

}  // namespace
