// perfbench/src/fingerprint.cpp — host context for the run fingerprint,
// and the tune resolutions whose winners the fingerprint records.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "finbench/arch/machine_model.hpp"
#include "finbench/arch/topology.hpp"
#include "finbench/tune/tuner.hpp"

namespace perfbench {

namespace {

// Stolen jiffies summed over the per-CPU lines of /proc/stat (the eighth
// value of each "cpuN" line); `ncpu` receives the number of such lines.
bool read_steal(std::uint64_t& stolen, int& ncpu) {
  std::ifstream f("/proc/stat");
  if (!f) return false;
  std::string line;
  stolen = 0;
  ncpu = 0;
  while (std::getline(f, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') continue;
    std::istringstream in(line);
    std::string name;
    std::uint64_t v[8] = {};
    in >> name;
    for (std::uint64_t& x : v) in >> x;
    stolen += v[7];
    ++ncpu;
  }
  return ncpu > 0;
}

}  // namespace

StealMonitor::StealMonitor() {
  std::uint64_t s = 0;
  if (!read_steal(s, ncpu_)) return;
  jiffy_s_ = 1.0 / static_cast<double>(std::max(1L, sysconf(_SC_CLK_TCK)));
  samples_.emplace_back(now_ns(), s);
  thread_ = std::thread([this] { run(); });
}

StealMonitor::~StealMonitor() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StealMonitor::run() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::uint64_t s = 0;
    int n = 0;
    if (!read_steal(s, n)) continue;
    const std::lock_guard<std::mutex> lock(mu_);
    samples_.emplace_back(now_ns(), s);
  }
}

double StealMonitor::frac(std::uint64_t a_ns, std::uint64_t b_ns) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2 || b_ns <= a_ns || ncpu_ == 0) return 0.0;
  // The samples bracketing [a, b]: the last at or before a, the first at
  // or after b (or the newest).
  auto hi = std::lower_bound(samples_.begin(), samples_.end(), std::make_pair(b_ns, std::uint64_t{0}));
  if (hi == samples_.end()) --hi;
  auto lo = std::upper_bound(samples_.begin(), samples_.end(), std::make_pair(a_ns, ~std::uint64_t{0}));
  if (lo != samples_.begin()) --lo;
  if (hi->first <= lo->first) return 0.0;
  const double span = 1e-9 * static_cast<double>(hi->first - lo->first);
  const double stolen = jiffy_s_ * static_cast<double>(hi->second - lo->second);
  return stolen / (span * ncpu_);
}

StealMonitor& steal_monitor() {
  static StealMonitor m;
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

HostInfo host_info() {
  namespace arch = finbench::arch;
  HostInfo h;
  h.cpu = arch::detect_cpu_features().brand;
  const arch::CacheInfo c = arch::detect_caches();
  h.l2_bytes = c.l2;
  h.l3_bytes = c.l3;
  h.nproc = arch::logical_cpus();
  h.stream_gbps = arch::stream_bandwidth_gbs();
  return h;
}

double resolve_cold(const finbench::engine::Engine& eng,
                    const finbench::engine::PricingRequest& req, const char* family,
                    const std::string& label, RunResult& r) {
  namespace tune = finbench::tune;
  const tune::TuneKey key = tune::key_for(req, family, eng.pool_size());
  const double t0 = now_s();
  const tune::Resolution res = tune::resolve(eng, req, key);
  const double dt = now_s() - t0;
  r.info["tune." + label] = (res.plan.valid() ? res.plan.variant_id : std::string("none")) +
                            (res.raced ? "" : " (cache hit)") + " @ " + key.to_string();
  return dt;
}

double resolve_hit_seconds(const finbench::engine::Engine& eng,
                           const finbench::engine::PricingRequest& req, const char* family,
                           int reps) {
  namespace tune = finbench::tune;
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    const tune::TuneKey key = tune::key_for(req, family, eng.pool_size());
    const tune::Resolution res = tune::resolve(eng, req, key);
    t.push_back(now_s() - t0);
    if (!res.hit) break;
  }
  return median(std::move(t));
}

}  // namespace perfbench
