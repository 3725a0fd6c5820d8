// perfbench/src/trace.hpp
//
// In-memory spans recorded by the benchmark around its calls into each
// layer of finbench. A span has a layer-qualified name ("engine.price",
// "serve.queue"), a start and end on the steady clock, the index of the
// span that caused it (-1 for a root) and the PricingResult::request_id
// it belongs to (0 when none), which joins spans of one request. Spans
// stay in memory during the run and are written once at exit.
//
// A layer's self time is the duration of its spans minus the part of
// each span's interval that its child spans cover.

#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static string: "<layer>.<what>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request_id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on = false) : on_(on) {}

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  // Record a finished span; returns its index (-1 when tracing is off).
  std::int32_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                   std::int32_t parent = -1, std::uint64_t request_id = 0) {
    if (!on_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, request_id});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  // Late fill-in of a span's end (a root span opened before its
  // children's times are known).
  void close(std::int32_t idx, std::uint64_t end_ns) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self nanoseconds per span name.
  std::map<std::string, double> self_ns_by_name() const { return self_ns(spans_); }

  static std::map<std::string, double> self_ns(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
      out[s.name] += static_cast<double>(dur - covered(kids[i], s.start_ns, s.end_ns));
    }
    return out;
  }

  // Length of the union of `iv`, clipped to [lo, hi].
  static std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                               std::uint64_t lo, std::uint64_t hi) {
    std::sort(iv.begin(), iv.end());
    std::uint64_t total = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) total += cur_hi - cur_lo;
    return total;
  }

  // One JSON document: a name table and one [name, start_us, dur_us,
  // parent, request_id] row per span, times relative to the first span.
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    std::map<std::string, int> names;
    for (const Span& s : spans_) names.emplace(s.name, 0);
    int k = 0;
    f << "{\"schema\":\"perfbench.spans/v1\",\"names\":[";
    for (auto& [n, id] : names) {
      f << (k ? "," : "") << '"' << n << '"';
      id = k++;
    }
    std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    f << "],\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? ",[" : "[") << names[s.name] << ',' << (s.start_ns - t0) / 1000 << ','
        << (s.end_ns > s.start_ns ? (s.end_ns - s.start_ns) / 1000 : 0) << ',' << s.parent << ','
        << s.request_id << ']';
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

}  // namespace perfbench
