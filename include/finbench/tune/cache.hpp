// finbench/tune/cache.hpp
//
// PlanCache — the persistent variant-selection cache behind the engine's
// `auto` dispatch mode (docs/autotuning.md). In memory it is a strict-
// ordered map TuneKey -> RaceReport behind a mutex; on disk it is a JSON
// document (`finbench.tune_cache/v2`) fingerprinted by the host CPU
// (brand string, ISA flags, logical CPU count, hostname) so a cache raced
// on one machine never mis-dispatches another.
//
// File contract (the corrupt-cache satellite of docs/autotuning.md):
//
//   absent file            kOk, empty cache — first run races and persists
//   unparseable/truncated  kDegraded, empty cache — every key re-races
//   wrong schema           kDegraded, empty cache
//   foreign fingerprint    kDegraded, empty cache
//   malformed entries      kDegraded, good entries kept, bad ones skipped
//
// A rejected file bumps engine.tune.cache_rejected and never throws out of
// load(): a broken cache degrades to a re-race, it cannot crash dispatch.
// Writes are atomic: a temp file next to the target is renamed over it, so
// a reader never observes a half-written cache.
//
// The process-wide instance() consults the FINBENCH_TUNE_CACHE environment
// variable once; without it (and without set_path) the cache is memory-only
// — tests and libraries do not write surprise files.

#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "finbench/robust/status.hpp"
#include "finbench/tune/key.hpp"
#include "finbench/tune/plan.hpp"

namespace finbench::tune {

inline constexpr std::string_view kTuneCacheSchema = "finbench.tune_cache/v2";

// Environment identity a cache file is only valid for. Equality is exact:
// a different flag set, core count, or host re-races from scratch rather
// than trusting stale winners.
struct Fingerprint {
  std::string brand;  // cpuid brand string
  std::string host;   // gethostname()
  int logical_cpus = 0;
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512dq = false;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) = default;
  std::string to_string() const;
};

Fingerprint host_fingerprint();

class PlanCache {
 public:
  PlanCache() = default;  // empty, memory-only

  // Process-wide cache. First access wires FINBENCH_TUNE_CACHE (if set)
  // through set_path().
  static PlanCache& instance();

  // Bind a cache file: loads it now (returning the load status — see the
  // file contract above) and persists every future put() to it. An empty
  // path unbinds the file without touching in-memory entries.
  robust::Status set_path(std::string path);
  std::string path() const;

  // Replace the in-memory entries with the file's contents. Degraded loads
  // leave whatever individual entries survived (none for a file-level
  // reject). Never throws.
  robust::Status load(const std::string& path);
  robust::Status last_load_status() const;

  // Write the current entries to `path` (atomically). The no-argument form
  // writes to the bound path; a cache without one succeeds as a no-op.
  bool save() const;
  bool save_as(const std::string& path) const;

  // Winner plan for a key; nullopt on a miss.
  std::optional<DispatchPlan> find(const TuneKey& key) const;

  // Full race evidence for a key (pricectl --explain).
  std::optional<RaceReport> explain(const TuneKey& key) const;

  // Install (or overwrite) a key's race outcome and persist if a path is
  // bound.
  void put(const TuneKey& key, const RaceReport& report);

  // Drop one key (pricectl --tune forces a re-race this way). Persists the
  // removal. Returns whether the key existed.
  bool erase(const TuneKey& key);

  // Drop every entry (keeps the bound path; does not rewrite the file).
  void clear();

  std::size_t size() const;

 private:
  robust::Status load_locked(const std::string& path);
  bool save_locked(const std::string& path) const;

  mutable std::mutex mu_;
  std::map<TuneKey, RaceReport> entries_;
  std::string path_;
  robust::Status load_status_;
};

}  // namespace finbench::tune
