// finbench/obs/openmetrics.hpp
//
// OpenMetrics text exporter over the obs registries: counters (-> counter
// families with the required `_total` sample suffix), gauges (-> gauge),
// stats (-> summary: `_count` + `_sum`), and histograms (-> histogram:
// cumulative `_bucket{le="..."}` samples on a fixed seconds ladder, plus
// `_sum`/`_count`), ending with the mandatory `# EOF` terminator. Metric
// names are transliterated to the OpenMetrics charset (dots become
// underscores) under a `finbench_` prefix; registered histogram labels
// pass through verbatim with `le` appended.
//
// One function, no server: callers scrape on their own schedule —
// `pricectl --metrics PATH` for a one-shot scrape, `pricectl --watch MS`
// for a periodic live view, or any embedding that wants to serve the text
// over HTTP. Validated by tools/validate.py openmetrics in CI.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace finbench::obs {

// Render the current metrics + histogram registries as OpenMetrics text.
void write_openmetrics(std::ostream& out);

// Convenience: write_openmetrics to a file. False when it cannot be written.
bool write_openmetrics_file(const std::string& path);

// Transliterate a registry metric name to an OpenMetrics name:
// `finbench_` prefix, [a-zA-Z0-9_] charset, dots to underscores.
std::string openmetrics_name(std::string_view name);

}  // namespace finbench::obs
