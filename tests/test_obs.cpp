// Tests for the observability layer (finbench/obs): the JSON writer and
// validation parser, scoped-span tracing with Chrome trace_event export,
// the metrics registry under parallel load, repetition statistics, and the
// perf-counter sampler's graceful degradation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "finbench/arch/timing.hpp"
#include "finbench/engine/thread_pool.hpp"
#include "finbench/obs/obs.hpp"

namespace {

using namespace finbench;

// Serialize the obs tests that mutate the global tracer/metrics state.
class ObsGlobals : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace::enable(false);
    obs::trace::clear();
    obs::reset_metrics();
    obs::reset_measurements();
  }
  void TearDown() override {
    obs::trace::enable(false);
    obs::trace::clear();
  }
};

// --- JSON writer ----------------------------------------------------------

TEST(JsonWriter, EmitsValidNestedDocument) {
  std::ostringstream out;
  obs::json::Writer w(out);
  w.begin_object();
  w.kv("name", "finbench");
  w.kv("count", std::uint64_t{42});
  w.kv("pi", 3.25);
  w.kv("flag", true);
  w.kv_null("missing");
  w.key("rows");
  w.begin_array();
  w.value(1);
  w.value("two");
  w.begin_object();
  w.kv("nested", -7);
  w.end_object();
  w.end_array();
  w.end_object();

  const auto doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("name").string, "finbench");
  EXPECT_EQ(doc.at("count").number, 42.0);
  EXPECT_EQ(doc.at("pi").number, 3.25);
  EXPECT_TRUE(doc.at("flag").boolean);
  EXPECT_TRUE(doc.at("missing").is_null());
  ASSERT_EQ(doc.at("rows").array.size(), 3u);
  EXPECT_EQ(doc.at("rows").array[1].string, "two");
  EXPECT_EQ(doc.at("rows").array[2].at("nested").number, -7.0);
}

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
  std::ostringstream out;
  obs::json::Writer w(out);
  w.begin_object();
  w.kv("s", "a\"b\\c\nd\te\x01f");
  w.end_object();
  const std::string text = out.str();
  // No raw control characters may survive in the document.
  for (unsigned char c : text) EXPECT_GE(c, 0x20u) << "raw control char in: " << text;
  const auto doc = obs::json::parse(text);
  EXPECT_EQ(doc.at("s").string, "a\"b\\c\nd\te\x01f");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  obs::json::Writer w(out);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  const auto doc = obs::json::parse(out.str());
  ASSERT_EQ(doc.array.size(), 3u);
  EXPECT_TRUE(doc.array[0].is_null());
  EXPECT_TRUE(doc.array[1].is_null());
  EXPECT_EQ(doc.array[2].number, 1.5);
}

TEST(JsonParser, RejectsMalformedDocuments) {
  EXPECT_THROW(obs::json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(obs::json::parse(""), std::runtime_error);
  // Raw non-finite tokens are not JSON — the writer emits null for them,
  // and the parser must refuse a document that snuck them in some other
  // way rather than quietly producing garbage numbers.
  EXPECT_THROW(obs::json::parse("{\"x\": nan}"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{\"x\": Infinity}"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("[tru]"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{\"a\": 1,}"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{1: 2}"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("[1, 2}"), std::runtime_error);
}

TEST(JsonParser, ErrorsCarryTheByteOffset) {
  // The diagnostic must localize the fault so a multi-megabyte run report
  // is debuggable: "at byte N" with N pointing into the bad token.
  try {
    obs::json::parse("{\"ok\": 1, \"bad\": @}");
    FAIL() << "parse accepted garbage";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("json parse error at byte 17"), std::string::npos) << what;
  }
  try {
    obs::json::parse("[1, 2, 3]   x");
    FAIL() << "parse accepted trailing garbage";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 12"), std::string::npos) << e.what();
  }
}

TEST(JsonParser, WriterNonFiniteNullsSurviveNestedRoundTrip) {
  // The shape the run report actually produces: non-finite measurements
  // nested inside objects inside arrays. The document must stay loadable
  // and the poisoned slots must read back as null, not as numbers.
  std::ostringstream out;
  obs::json::Writer w(out);
  w.begin_object();
  w.key("rows");
  w.begin_array();
  w.begin_object();
  w.kv("value", std::numeric_limits<double>::quiet_NaN());
  w.kv("label", std::string("nan row"));
  w.end_object();
  w.begin_object();
  w.kv("value", -std::numeric_limits<double>::infinity());
  w.kv("label", std::string("inf row"));
  w.end_object();
  w.end_array();
  w.end_object();

  const auto doc = obs::json::parse(out.str());
  const auto& rows = doc.at("rows").array;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].at("value").is_null());
  EXPECT_TRUE(rows[1].at("value").is_null());
  EXPECT_EQ(rows[1].at("label").string, "inf row");
}

// --- Tracing --------------------------------------------------------------

TEST_F(ObsGlobals, DisabledSpansRecordNothing) {
  {
    FINBENCH_SPAN("should.not.appear");
  }
  EXPECT_EQ(obs::trace::recorded_spans(), 0u);
}

TEST_F(ObsGlobals, NestedSpansAreContainedInChromeTrace) {
  obs::trace::enable();
  {
    FINBENCH_SPAN("outer");
    {
      FINBENCH_SPAN("inner");
    }
  }
  obs::trace::enable(false);
  ASSERT_EQ(obs::trace::recorded_spans(), 2u);

  const std::string path = "/tmp/finbench_test_trace.json";
  ASSERT_TRUE(obs::trace::write_chrome_trace(path, "test"));
  const auto doc = obs::json::parse_file(path);
  std::remove(path.c_str());

  const auto& events = doc.at("traceEvents").array;
  const obs::json::Value* outer = nullptr;
  const obs::json::Value* inner = nullptr;
  for (const auto& e : events) {
    if (!e.find("ph") || e.at("ph").string != "X") continue;
    if (e.at("name").string == "outer") outer = &e;
    if (e.at("name").string == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The inner span lies inside the outer span's [ts, ts+dur] window, on the
  // same thread.
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  EXPECT_GE(inner->at("ts").number, outer->at("ts").number);
  EXPECT_LE(inner->at("ts").number + inner->at("dur").number,
            outer->at("ts").number + outer->at("dur").number + 1e-6);
}

TEST_F(ObsGlobals, LongNamesAreTruncatedNotCorrupted) {
  obs::trace::enable();
  const std::string longname(200, 'x');
  {
    obs::trace::ScopedSpan s(longname.c_str());
  }
  obs::trace::enable(false);
  const std::string path = "/tmp/finbench_test_trace_long.json";
  ASSERT_TRUE(obs::trace::write_chrome_trace(path));
  const auto doc = obs::json::parse_file(path);
  std::remove(path.c_str());
  bool found = false;
  for (const auto& e : doc.at("traceEvents").array) {
    if (e.find("ph") && e.at("ph").string == "X") {
      EXPECT_LT(e.at("name").string.size(), obs::trace::kMaxNameLen);
      EXPECT_EQ(e.at("name").string.find_first_not_of('x'), std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsGlobals, RingOverflowDropsOldestButStaysWellFormed) {
  obs::trace::set_ring_capacity(16);  // 16 is the enforced minimum
  obs::trace::enable();
  // Fresh thread: ring capacity applies to buffers created after the call.
  std::thread t([] {
    for (int i = 0; i < 100; ++i) {
      FINBENCH_SPAN("overflow");
    }
  });
  t.join();
  obs::trace::enable(false);
  EXPECT_GE(obs::trace::dropped_spans(), 84u);

  const std::string path = "/tmp/finbench_test_trace_ring.json";
  ASSERT_TRUE(obs::trace::write_chrome_trace(path));
  const auto doc = obs::json::parse_file(path);
  std::remove(path.c_str());
  std::size_t complete = 0;
  for (const auto& e : doc.at("traceEvents").array) {
    if (e.find("ph") && e.at("ph").string == "X") ++complete;
  }
  EXPECT_EQ(complete, 16u);
  obs::trace::set_ring_capacity(1 << 14);
}

TEST_F(ObsGlobals, SpansFromWorkerThreadsGetDistinctTids) {
  obs::trace::enable();
  std::vector<std::thread> pool;
  for (int i = 0; i < 3; ++i) {
    pool.emplace_back([] { FINBENCH_SPAN("worker"); });
  }
  for (auto& t : pool) t.join();
  obs::trace::enable(false);

  const std::string path = "/tmp/finbench_test_trace_tids.json";
  ASSERT_TRUE(obs::trace::write_chrome_trace(path));
  const auto doc = obs::json::parse_file(path);
  std::remove(path.c_str());
  std::vector<double> tids;
  for (const auto& e : doc.at("traceEvents").array) {
    if (e.find("ph") && e.at("ph").string == "X" && e.at("name").string == "worker") {
      tids.push_back(e.at("tid").number);
    }
  }
  ASSERT_EQ(tids.size(), 3u);
  std::sort(tids.begin(), tids.end());
  EXPECT_NE(tids[0], tids[1]);
  EXPECT_NE(tids[1], tids[2]);
}

// --- Metrics --------------------------------------------------------------

TEST_F(ObsGlobals, CounterIsExactUnderParallelFor) {
  obs::Counter& c = obs::counter("test.parallel_adds");
  constexpr std::ptrdiff_t kN = 100000;
  engine::ThreadPool pool(4);
  pool.run(kN, [&](std::ptrdiff_t) { c.add(3); });
  EXPECT_EQ(c.value(), 3u * static_cast<std::uint64_t>(kN));
}

TEST_F(ObsGlobals, HandleLookupIsStable) {
  obs::Counter& a = obs::counter("test.same_name");
  obs::Counter& b = obs::counter("test.same_name");
  EXPECT_EQ(&a, &b);
}

TEST_F(ObsGlobals, StatSummarizes) {
  obs::Stat& s = obs::stat("test.stat");
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.record(x);
  const auto sum = s.summary();
  EXPECT_EQ(sum.count, 8u);
  EXPECT_EQ(sum.min, 2.0);
  EXPECT_EQ(sum.max, 9.0);
  EXPECT_NEAR(sum.mean, 5.0, 1e-12);
  // Population stddev of this classic set is exactly 2.
  EXPECT_NEAR(sum.stddev, 2.0, 0.15);
}

TEST_F(ObsGlobals, SnapshotSeesRegisteredMetrics) {
  obs::counter("test.snap_counter").add(5);
  obs::gauge("test.snap_gauge").set(1.25);
  const auto snap = obs::snapshot_metrics();
  bool saw_counter = false, saw_gauge = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "test.snap_counter") {
      saw_counter = true;
      EXPECT_EQ(v, 5u);
    }
  }
  for (const auto& [name, v] : snap.gauges) {
    if (name == "test.snap_gauge") {
      saw_gauge = true;
      EXPECT_EQ(v, 1.25);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST_F(ObsGlobals, ParallelTimingRecordsImbalance) {
  obs::enable_parallel_timing();
  std::atomic<int> sink{0};
  engine::ThreadPool pool(4);
  pool.run(
      1000,
      [&](std::ptrdiff_t i) { sink.fetch_add(static_cast<int>(i), std::memory_order_relaxed); },
      arch::Schedule::kDynamic, "for");
  obs::enable_parallel_timing(false);
  const auto snap = obs::snapshot_metrics();
  bool saw = false;
  for (const auto& [name, sum] : snap.stats) {
    if (name == "parallel.for.imbalance") {
      saw = true;
      EXPECT_GE(sum.count, 1u);
      EXPECT_GE(sum.min, 1.0);  // max/mean thread time is >= 1 by construction
    }
  }
  EXPECT_TRUE(saw);
}

// --- Repetition statistics ------------------------------------------------

TEST(Timing, MeasureReportsConsistentStats) {
  const arch::RepStats st = arch::measure(5, [] {
    volatile double x = 1.0;
    for (int i = 0; i < 1000; ++i) x = x * 1.0000001;
  });
  EXPECT_EQ(st.reps, 5);
  EXPECT_GT(st.best, 0.0);
  EXPECT_GE(st.mean, st.best);
  EXPECT_GE(st.stddev, 0.0);
}

TEST(Timing, SingleRepHasZeroStddev) {
  const arch::RepStats st = arch::measure(1, [] {});
  EXPECT_EQ(st.reps, 1);
  EXPECT_EQ(st.stddev, 0.0);
}

TEST_F(ObsGlobals, MeasurementNoisyFlag) {
  obs::MeasurementRecord quiet{"quiet", 1, 3, 1.0, 1.0, 0.01};
  obs::MeasurementRecord noisy{"noisy", 1, 3, 1.0, 1.0, 0.5};
  EXPECT_FALSE(quiet.noisy());
  EXPECT_TRUE(noisy.noisy());
  obs::record_measurement(quiet);
  obs::record_measurement(noisy);
  const auto snap = obs::measurement_snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].label, "quiet");
  EXPECT_EQ(snap[1].label, "noisy");
}

// --- Perf counters --------------------------------------------------------

TEST(PerfCounters, DegradesGracefully) {
  // In containers the syscall is usually refused; either outcome is fine,
  // but the API must stay coherent.
  const bool ok = obs::perf_init();
  EXPECT_EQ(ok, obs::perf_available());
  if (obs::perf_available()) {
    obs::reset_perf_regions();
    {
      obs::PerfRegion r("test.region");
      volatile double x = 1.0;
      for (int i = 0; i < 100000; ++i) x = x * 1.0000001;
    }
    const auto regions = obs::perf_region_snapshot();
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_EQ(regions[0].label, "test.region");
    EXPECT_TRUE(regions[0].sample.valid);
    EXPECT_GT(regions[0].sample.instructions, 0.0);
  } else {
    EXPECT_FALSE(obs::perf_unavailable_reason().empty());
    EXPECT_FALSE(obs::perf_read().valid);
    {
      obs::PerfRegion r("test.noop");  // must not crash or register
    }
  }
}

// --- Run-report plumbing --------------------------------------------------

TEST(RunReport, GitShaIsHexOrEmpty) {
  const std::string sha = obs::git_sha();
  if (!sha.empty()) {
    EXPECT_EQ(sha.size(), 40u);
    for (char c : sha) EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << sha;
  }
}

}  // namespace
