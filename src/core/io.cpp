#include "finbench/core/io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace finbench::core {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) out.push_back(trim(field));
  return out;
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw std::runtime_error("options csv, line " + std::to_string(line_no) + ": " + what);
}

// A numeric field must parse in full and be finite: std::stod alone accepts
// "nan" and "inf" and stops at the first bad character ("100abc" -> 100).
double parse_number(int line_no, const std::string& field) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(field, &used);
  } catch (const std::exception&) {
    fail(line_no, "malformed number '" + field + "'");
  }
  if (used != field.size()) fail(line_no, "malformed number '" + field + "'");
  if (!std::isfinite(v)) fail(line_no, "non-finite number '" + field + "'");
  return v;
}

}  // namespace

std::vector<OptionSpec> read_options_csv(std::istream& in) {
  std::vector<OptionSpec> out;
  std::string line;
  int line_no = 0;
  // Column indices, resolved from the header.
  int c_spot = -1, c_strike = -1, c_years = -1, c_rate = -1, c_vol = -1, c_type = -1,
      c_style = -1, c_div = -1;
  bool have_header = false;

  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const auto fields = split_csv(t);
    if (!have_header) {
      for (int i = 0; i < static_cast<int>(fields.size()); ++i) {
        const std::string name = lower(fields[i]);
        if (name == "spot") c_spot = i;
        else if (name == "strike") c_strike = i;
        else if (name == "years") c_years = i;
        else if (name == "rate") c_rate = i;
        else if (name == "vol") c_vol = i;
        else if (name == "type") c_type = i;
        else if (name == "style") c_style = i;
        else if (name == "dividend") c_div = i;
        else if (name == "price") continue;  // advisory output column
        else fail(line_no, "unknown column '" + fields[i] + "'");
      }
      if (c_spot < 0 || c_strike < 0 || c_years < 0 || c_rate < 0 || c_vol < 0 ||
          c_type < 0 || c_style < 0) {
        fail(line_no, "header must name spot,strike,years,rate,vol,type,style");
      }
      have_header = true;
      continue;
    }

    const int needed = std::max({c_spot, c_strike, c_years, c_rate, c_vol, c_type, c_style,
                                 c_div});
    if (static_cast<int>(fields.size()) <= needed) fail(line_no, "too few fields");
    OptionSpec o;
    o.spot = parse_number(line_no, fields[c_spot]);
    o.strike = parse_number(line_no, fields[c_strike]);
    o.years = parse_number(line_no, fields[c_years]);
    o.rate = parse_number(line_no, fields[c_rate]);
    o.vol = parse_number(line_no, fields[c_vol]);
    if (c_div >= 0 && !fields[c_div].empty()) o.dividend = parse_number(line_no, fields[c_div]);
    const std::string type = lower(fields[c_type]);
    if (type == "call") o.type = OptionType::kCall;
    else if (type == "put") o.type = OptionType::kPut;
    else fail(line_no, "type must be call|put, got '" + fields[c_type] + "'");
    const std::string style = lower(fields[c_style]);
    if (style == "european") o.style = ExerciseStyle::kEuropean;
    else if (style == "american") o.style = ExerciseStyle::kAmerican;
    else fail(line_no, "style must be european|american, got '" + fields[c_style] + "'");
    if (o.spot <= 0 || o.strike <= 0 || o.years < 0 || o.vol < 0) {
      fail(line_no, "out-of-domain value");
    }
    out.push_back(o);
  }
  if (!have_header) throw std::runtime_error("options csv: empty input (no header)");
  return out;
}

std::vector<OptionSpec> read_options_csv_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("options csv: cannot open '" + path + "'");
  return read_options_csv(f);
}

void write_options_csv(std::ostream& out, std::span<const OptionSpec> opts,
                       std::span<const double> prices) {
  const bool with_price = !prices.empty();
  out << "spot,strike,years,rate,vol,type,style,dividend";
  if (with_price) out << ",price";
  out << '\n';
  out.precision(17);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    const OptionSpec& o = opts[i];
    out << o.spot << ',' << o.strike << ',' << o.years << ',' << o.rate << ',' << o.vol << ','
        << (o.type == OptionType::kCall ? "call" : "put") << ','
        << (o.style == ExerciseStyle::kEuropean ? "european" : "american") << ','
        << o.dividend;
    if (with_price) out << ',' << (i < prices.size() ? prices[i] : 0.0);
    out << '\n';
  }
}

void write_options_csv_file(const std::string& path, std::span<const OptionSpec> opts,
                            std::span<const double> prices) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("options csv: cannot open '" + path + "' for writing");
  write_options_csv(f, opts, prices);
}

}  // namespace finbench::core
