#include "finbench/obs/perf_counters.hpp"

#include <cerrno>
#include <cstring>
#include <mutex>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace finbench::obs {

PerfSample PerfSample::operator-(const PerfSample& rhs) const {
  PerfSample d = *this;
  d.cycles -= rhs.cycles;
  d.instructions -= rhs.instructions;
  d.l1d_loads -= rhs.l1d_loads;
  d.l1d_misses -= rhs.l1d_misses;
  d.llc_refs -= rhs.llc_refs;
  d.llc_misses -= rhs.llc_misses;
  d.valid = valid && rhs.valid;
  return d;
}

PerfSample& PerfSample::operator+=(const PerfSample& rhs) {
  cycles += rhs.cycles;
  instructions += rhs.instructions;
  l1d_loads += rhs.l1d_loads;
  l1d_misses += rhs.l1d_misses;
  llc_refs += rhs.llc_refs;
  llc_misses += rhs.llc_misses;
  valid = valid || rhs.valid;
  return *this;
}

namespace {

struct Suite {
  bool initialized = false;
  bool available = false;
  std::string reason = "perf_init() not called";

#if defined(__linux__)
  // fd < 0 when the individual event failed to open; cycles/instructions
  // are mandatory, the cache events are best-effort.
  int fd_cycles = -1;
  int fd_instructions = -1;
  int fd_l1d_loads = -1;
  int fd_l1d_misses = -1;
  int fd_llc_refs = -1;
  int fd_llc_misses = -1;
#endif
};

Suite& suite() {
  static Suite s;
  return s;
}

std::mutex& suite_mu() {
  static std::mutex mu;
  return mu;
}

#if defined(__linux__)

int open_event(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;  // free-running; regions read deltas
  attr.inherit = 1;   // aggregate pool workers spawned after init
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1, /*group_fd=*/-1, /*flags=*/0));
}

constexpr std::uint64_t hw_cache_config(std::uint64_t id, std::uint64_t op, std::uint64_t result) {
  return id | (op << 8) | (result << 16);
}

// Multiplex-scaled cumulative count; 0.0 when fd invalid or read fails.
double read_scaled(int fd) {
  if (fd < 0) return 0.0;
  std::uint64_t buf[3] = {0, 0, 0};  // value, time_enabled, time_running
  if (read(fd, buf, sizeof buf) != static_cast<ssize_t>(sizeof buf)) return 0.0;
  if (buf[2] == 0) return 0.0;  // never scheduled
  const double scale = buf[1] > 0 ? static_cast<double>(buf[1]) / static_cast<double>(buf[2]) : 1.0;
  return static_cast<double>(buf[0]) * scale;
}

#endif  // __linux__

struct RegionTable {
  std::mutex mu;
  std::vector<PerfRegionRecord> records;
};

RegionTable& regions() {
  static RegionTable* t = new RegionTable;
  return *t;
}

}  // namespace

bool perf_init() {
  std::lock_guard<std::mutex> lock(suite_mu());
  Suite& s = suite();
  if (s.initialized) return s.available;
  s.initialized = true;
#if defined(__linux__)
  s.fd_cycles = open_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  if (s.fd_cycles < 0) {
    s.reason = std::string("perf_event_open: ") + std::strerror(errno) +
               (errno == EACCES || errno == EPERM ? " (kernel.perf_event_paranoid?)" : "");
    s.available = false;
    return false;
  }
  s.fd_instructions = open_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
  if (s.fd_instructions < 0) {
    close(s.fd_cycles);
    s.fd_cycles = -1;
    s.reason = std::string("perf_event_open(instructions): ") + std::strerror(errno);
    s.available = false;
    return false;
  }
  // Best-effort cache events; absent ones read as 0 and the derived rates
  // report 0.
  s.fd_l1d_loads = open_event(
      PERF_TYPE_HW_CACHE, hw_cache_config(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                                          PERF_COUNT_HW_CACHE_RESULT_ACCESS));
  s.fd_l1d_misses = open_event(
      PERF_TYPE_HW_CACHE, hw_cache_config(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                                          PERF_COUNT_HW_CACHE_RESULT_MISS));
  s.fd_llc_refs = open_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES);
  s.fd_llc_misses = open_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES);
  s.available = true;
  s.reason.clear();
  return true;
#else
  s.reason = "perf_event_open is Linux-only";
  s.available = false;
  return false;
#endif
}

bool perf_available() {
  std::lock_guard<std::mutex> lock(suite_mu());
  return suite().available;
}

std::string perf_unavailable_reason() {
  std::lock_guard<std::mutex> lock(suite_mu());
  return suite().reason;
}

PerfSample perf_read() {
  PerfSample out;
#if defined(__linux__)
  std::lock_guard<std::mutex> lock(suite_mu());
  const Suite& s = suite();
  if (!s.available) return out;
  out.valid = true;
  out.cycles = read_scaled(s.fd_cycles);
  out.instructions = read_scaled(s.fd_instructions);
  out.l1d_loads = read_scaled(s.fd_l1d_loads);
  out.l1d_misses = read_scaled(s.fd_l1d_misses);
  out.llc_refs = read_scaled(s.fd_llc_refs);
  out.llc_misses = read_scaled(s.fd_llc_misses);
#endif
  return out;
}

PerfRegion::PerfRegion(std::string label) : label_(std::move(label)) { begin_ = perf_read(); }

PerfRegion::~PerfRegion() {
  if (!begin_.valid) return;
  const PerfSample delta = perf_read() - begin_;
  if (!delta.valid) return;
  RegionTable& t = regions();
  std::lock_guard<std::mutex> lock(t.mu);
  for (auto& rec : t.records) {
    if (rec.label == label_) {
      rec.sample += delta;
      return;
    }
  }
  t.records.push_back({label_, delta});
}

std::vector<PerfRegionRecord> perf_region_snapshot() {
  RegionTable& t = regions();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.records;
}

void reset_perf_regions() {
  RegionTable& t = regions();
  std::lock_guard<std::mutex> lock(t.mu);
  t.records.clear();
}

}  // namespace finbench::obs
