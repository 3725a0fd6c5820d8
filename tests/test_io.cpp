// Tests for the CSV option-workload I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "finbench/core/io.hpp"
#include "finbench/core/workload.hpp"

namespace {

using namespace finbench::core;

TEST(OptionsCsv, ParsesBasicFile) {
  std::istringstream in(
      "spot,strike,years,rate,vol,type,style\n"
      "100,105,1.0,0.05,0.2,call,european\n"
      "# a comment\n"
      "90, 100, 2.5, 0.03, 0.35, put, american\n");
  const auto opts = read_options_csv(in);
  ASSERT_EQ(opts.size(), 2u);
  EXPECT_DOUBLE_EQ(opts[0].spot, 100);
  EXPECT_EQ(opts[0].type, OptionType::kCall);
  EXPECT_EQ(opts[0].style, ExerciseStyle::kEuropean);
  EXPECT_DOUBLE_EQ(opts[0].dividend, 0.0);
  EXPECT_DOUBLE_EQ(opts[1].vol, 0.35);
  EXPECT_EQ(opts[1].style, ExerciseStyle::kAmerican);
}

TEST(OptionsCsv, ColumnsInAnyOrderWithDividend) {
  std::istringstream in(
      "vol,style,type,dividend,rate,years,strike,spot\n"
      "0.4,American,PUT,0.02,0.01,0.5,120,95\n");
  const auto opts = read_options_csv(in);
  ASSERT_EQ(opts.size(), 1u);
  EXPECT_DOUBLE_EQ(opts[0].spot, 95);
  EXPECT_DOUBLE_EQ(opts[0].strike, 120);
  EXPECT_DOUBLE_EQ(opts[0].dividend, 0.02);
  EXPECT_EQ(opts[0].type, OptionType::kPut);
}

TEST(OptionsCsv, RejectsMalformedInput) {
  {
    std::istringstream in("spot,strike\n1,2\n");
    EXPECT_THROW(read_options_csv(in), std::runtime_error);  // missing columns
  }
  {
    std::istringstream in("spot,strike,years,rate,vol,type,style\n100,105,1,x,0.2,call,european\n");
    EXPECT_THROW(read_options_csv(in), std::runtime_error);  // bad number
  }
  {
    std::istringstream in("spot,strike,years,rate,vol,type,style\n100,105,1,0.05,0.2,swap,european\n");
    EXPECT_THROW(read_options_csv(in), std::runtime_error);  // bad type
  }
  {
    std::istringstream in("spot,strike,years,rate,vol,type,style\n-5,105,1,0.05,0.2,call,european\n");
    EXPECT_THROW(read_options_csv(in), std::runtime_error);  // domain
  }
  {
    std::istringstream in("");
    EXPECT_THROW(read_options_csv(in), std::runtime_error);  // empty
  }
  // Non-finite numbers and trailing garbage: each field must parse in full
  // and be finite, rate and dividend included.
  for (const char* row : {"nan,100,1,0.05,0.2,call,european,0",
                          "inf,100,1,0.05,0.2,call,european,0",
                          "100abc,100,1,0.05,0.2,call,european,0",
                          "100,100,1,nan,0.2,call,european,0",
                          "100,100,inf,0.05,0.2,call,european,0",
                          "100,100,1,0.05,0.2,call,european,nan"}) {
    std::istringstream in(std::string("spot,strike,years,rate,vol,type,style,dividend\n") + row +
                          "\n");
    EXPECT_THROW(read_options_csv(in), std::runtime_error) << row;
  }
}

TEST(OptionsCsv, ErrorCarriesLineNumber) {
  std::istringstream in(
      "spot,strike,years,rate,vol,type,style\n"
      "100,105,1,0.05,0.2,call,european\n"
      "100,105,1,0.05,0.2,call,martian\n");
  try {
    read_options_csv(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(OptionsCsv, RoundtripsThroughFile) {
  const auto original = make_option_workload(57, 61);
  const std::string path = "/tmp/finbench_io_test.csv";
  std::vector<double> prices(original.size());
  for (std::size_t i = 0; i < prices.size(); ++i) prices[i] = static_cast<double>(i) * 1.5;
  write_options_csv_file(path, original, prices);
  const auto loaded = read_options_csv_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].spot, original[i].spot) << i;
    EXPECT_EQ(loaded[i].strike, original[i].strike) << i;
    EXPECT_EQ(loaded[i].years, original[i].years) << i;
    EXPECT_EQ(loaded[i].rate, original[i].rate) << i;
    EXPECT_EQ(loaded[i].vol, original[i].vol) << i;
    EXPECT_EQ(loaded[i].type, original[i].type) << i;
    EXPECT_EQ(loaded[i].style, original[i].style) << i;
  }
}

TEST(OptionsCsv, PriceColumnIgnoredOnRead) {
  // Files written with prices load fine (price column is advisory output
  // — the reader only consumes known spec columns... it must reject the
  // unknown 'price' header, so strip it first).
  std::ostringstream out;
  OptionSpec o;
  write_options_csv(out, std::span(&o, 1));
  std::istringstream in(out.str());
  const auto loaded = read_options_csv(in);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].spot, o.spot);
}

TEST(OptionsCsv, MissingFileThrows) {
  EXPECT_THROW(read_options_csv_file("/nonexistent/nope.csv"), std::runtime_error);
}

}  // namespace
