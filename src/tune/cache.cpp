#include "finbench/tune/cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "finbench/arch/topology.hpp"
#include "finbench/obs/json.hpp"
#include "finbench/obs/metrics.hpp"

namespace finbench::tune {

namespace {

using obs::json::Value;

// Strict field accessors for cache-file parsing: a missing or mistyped
// field throws (std::runtime_error via Value::at), which rejects the file
// (document level) or skips the entry (entry level) — never mis-parses.
const Value& member(const Value& v, const char* key) { return v.at(key); }

std::string get_string(const Value& v, const char* key) {
  const Value& m = member(v, key);
  if (!m.is_string()) throw std::runtime_error(std::string(key) + ": not a string");
  return m.string;
}

double get_number(const Value& v, const char* key) {
  const Value& m = member(v, key);
  if (!m.is_number()) throw std::runtime_error(std::string(key) + ": not a number");
  return m.number;
}

int get_int(const Value& v, const char* key) { return static_cast<int>(get_number(v, key)); }

bool get_bool(const Value& v, const char* key) {
  const Value& m = member(v, key);
  if (!m.is_bool()) throw std::runtime_error(std::string(key) + ": not a bool");
  return m.boolean;
}

TuneKey parse_key(const Value& v) {
  TuneKey k;
  k.family = get_string(v, "family");
  const std::string layout = get_string(v, "layout");
  if (!layout_from_string(layout, k.layout)) {
    throw std::runtime_error("key.layout: unknown layout '" + layout + "'");
  }
  k.size_bucket = get_int(v, "size_bucket");
  k.threads = get_int(v, "threads");
  k.steps = get_int(v, "steps");
  k.steps_per_year = get_int(v, "steps_per_year");
  k.npath = static_cast<std::uint64_t>(get_number(v, "npath"));
  k.bridge_depth = get_int(v, "bridge_depth");
  k.cn_num_prices = get_int(v, "cn_num_prices");
  k.american = get_bool(v, "american");
  return k;
}

DispatchPlan parse_plan(const Value& v) {
  DispatchPlan p;
  p.variant_id = get_string(v, "variant");
  if (p.variant_id.empty()) throw std::runtime_error("plan.variant: empty");
  p.chunks_per_thread = get_int(v, "chunks_per_thread");
  if (p.chunks_per_thread < 1) throw std::runtime_error("plan.chunks_per_thread: < 1");
  p.tasks = get_bool(v, "tasks");
  p.items_per_sec = get_number(v, "items_per_sec");
  p.imbalance = get_number(v, "imbalance");
  return p;
}

CandidateResult parse_candidate(const Value& v) {
  CandidateResult c;
  c.id = get_string(v, "id");
  c.chunks_per_thread = get_int(v, "chunks_per_thread");
  c.tasks = get_bool(v, "tasks");
  c.items_per_sec = get_number(v, "items_per_sec");
  c.imbalance = get_number(v, "imbalance");
  c.ok = get_bool(v, "ok");
  c.note = get_string(v, "note");
  return c;
}

void write_key(obs::json::Writer& w, const TuneKey& k) {
  w.begin_object();
  w.kv("family", k.family);
  w.kv("layout", core::to_string(k.layout));
  w.kv("size_bucket", k.size_bucket);
  w.kv("threads", k.threads);
  w.kv("steps", k.steps);
  w.kv("steps_per_year", k.steps_per_year);
  w.kv("npath", static_cast<std::uint64_t>(k.npath));
  w.kv("bridge_depth", k.bridge_depth);
  w.kv("cn_num_prices", k.cn_num_prices);
  w.kv("american", k.american);
  w.end_object();
}

void write_plan(obs::json::Writer& w, const DispatchPlan& p) {
  w.begin_object();
  w.kv("variant", p.variant_id);
  w.kv("chunks_per_thread", p.chunks_per_thread);
  w.kv("tasks", p.tasks);
  w.kv("items_per_sec", p.items_per_sec);
  w.kv("imbalance", p.imbalance);
  w.end_object();
}

}  // namespace

std::string Fingerprint::to_string() const {
  std::string s = brand;
  s += " @ ";
  s += host;
  s += ", ";
  s += std::to_string(logical_cpus);
  s += " cpus";
  if (avx2) s += " avx2";
  if (fma) s += " fma";
  if (avx512f) s += " avx512f";
  if (avx512dq) s += " avx512dq";
  return s;
}

Fingerprint host_fingerprint() {
  Fingerprint fp;
  const arch::CpuFeatures f = arch::detect_cpu_features();
  fp.brand = f.brand;
  fp.avx2 = f.avx2;
  fp.fma = f.fma;
  fp.avx512f = f.avx512f;
  fp.avx512dq = f.avx512dq;
  fp.logical_cpus = arch::logical_cpus();
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    fp.host = host;
  } else if (const char* env = std::getenv("HOSTNAME")) {
    fp.host = env;
  } else {
    fp.host = "unknown";
  }
  return fp;
}

PlanCache& PlanCache::instance() {
  static PlanCache* cache = [] {
    auto* c = new PlanCache;
    if (const char* env = std::getenv("FINBENCH_TUNE_CACHE"); env != nullptr && env[0] != '\0') {
      c->set_path(env);
    }
    return c;
  }();
  return *cache;
}

robust::Status PlanCache::set_path(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
  if (path_.empty()) return robust::Status{};
  load_status_ = load_locked(path_);
  return load_status_;
}

std::string PlanCache::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

robust::Status PlanCache::load(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  load_status_ = load_locked(path);
  return load_status_;
}

robust::Status PlanCache::last_load_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return load_status_;
}

robust::Status PlanCache::load_locked(const std::string& path) {
  entries_.clear();
  // Absent file: the normal first run — nothing to load, nothing wrong.
  {
    std::ifstream probe(path);
    if (!probe.good()) return robust::Status{};
  }
  auto reject = [&](std::string why) {
    entries_.clear();
    obs::counter("engine.tune.cache_rejected").add(1);
    return robust::Status::degraded("tune cache '" + path + "' rejected (" + std::move(why) +
                                    "); every key re-races");
  };
  Value doc;
  try {
    doc = obs::json::parse_file(path);
  } catch (const std::exception& e) {
    return reject(std::string("unparseable: ") + e.what());
  }
  if (!doc.is_object()) return reject("top level is not an object");
  const Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string != kTuneCacheSchema) {
    return reject("schema is not '" + std::string(kTuneCacheSchema) + "'");
  }
  const Value* fpv = doc.find("fingerprint");
  if (fpv == nullptr || !fpv->is_object()) return reject("missing fingerprint");
  Fingerprint fp;
  try {
    fp.brand = get_string(*fpv, "brand");
    fp.host = get_string(*fpv, "host");
    fp.logical_cpus = get_int(*fpv, "logical_cpus");
    fp.avx2 = get_bool(*fpv, "avx2");
    fp.fma = get_bool(*fpv, "fma");
    fp.avx512f = get_bool(*fpv, "avx512f");
    fp.avx512dq = get_bool(*fpv, "avx512dq");
  } catch (const std::exception& e) {
    return reject(std::string("malformed fingerprint: ") + e.what());
  }
  const Fingerprint here = host_fingerprint();
  if (!(fp == here)) {
    return reject("fingerprint mismatch: file is for [" + fp.to_string() + "], this host is [" +
                  here.to_string() + "]");
  }
  const Value* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array()) return reject("missing entries array");
  std::size_t skipped = 0;
  for (const Value& e : entries->array) {
    try {
      RaceReport rep;
      rep.key = parse_key(member(e, "key"));
      rep.winner = parse_plan(member(e, "plan"));
      const Value& race = member(e, "race");
      rep.race_seconds = get_number(race, "seconds");
      const Value& cands = member(race, "candidates");
      if (!cands.is_array()) throw std::runtime_error("race.candidates: not an array");
      for (const Value& c : cands.array) rep.candidates.push_back(parse_candidate(c));
      entries_[rep.key] = std::move(rep);
    } catch (const std::exception&) {
      ++skipped;
    }
  }
  if (skipped > 0) {
    obs::counter("engine.tune.cache_rejected").add(1);
    return robust::Status::degraded("tune cache '" + path + "': " + std::to_string(skipped) +
                                    " malformed entr" + (skipped == 1 ? "y" : "ies") +
                                    " skipped (" + std::to_string(entries_.size()) + " kept)");
  }
  return robust::Status{};
}

bool PlanCache::save() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (path_.empty()) return true;
  return save_locked(path_);
}

bool PlanCache::save_as(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return save_locked(path);
}

bool PlanCache::save_locked(const std::string& path) const {
  // Unique tmp name per writer: pid distinguishes processes sharing one
  // --tune-cache path, the process-wide sequence distinguishes this
  // process's own PlanCache objects (two instances saving concurrently
  // hold different mu_). Without both, two writers could open the same
  // tmp file and interleave halves of two caches before the rename — the
  // torn-read race the two-writer stress test pins down.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp);
    if (!out) return false;
    obs::json::Writer w(out);
    w.begin_object();
    w.kv("schema", kTuneCacheSchema);
    const Fingerprint fp = host_fingerprint();
    w.key("fingerprint");
    w.begin_object();
    w.kv("brand", fp.brand);
    w.kv("host", fp.host);
    w.kv("logical_cpus", fp.logical_cpus);
    w.kv("avx2", fp.avx2);
    w.kv("fma", fp.fma);
    w.kv("avx512f", fp.avx512f);
    w.kv("avx512dq", fp.avx512dq);
    w.end_object();
    w.key("entries");
    w.begin_array();
    for (const auto& [key, rep] : entries_) {
      w.begin_object();
      w.key("key");
      write_key(w, key);
      w.key("plan");
      write_plan(w, rep.winner);
      w.key("race");
      w.begin_object();
      w.kv("seconds", rep.race_seconds);
      w.key("candidates");
      w.begin_array();
      for (const CandidateResult& c : rep.candidates) {
        w.begin_object();
        w.kv("id", c.id);
        w.kv("chunks_per_thread", c.chunks_per_thread);
        w.kv("tasks", c.tasks);
        w.kv("items_per_sec", c.items_per_sec);
        w.kv("imbalance", c.imbalance);
        w.kv("ok", c.ok);
        w.kv("note", c.note);
        w.end_object();
      }
      w.end_array();
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<DispatchPlan> PlanCache::find(const TuneKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.winner;
}

std::optional<RaceReport> PlanCache::explain(const TuneKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void PlanCache::put(const TuneKey& key, const RaceReport& report) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key] = report;
  if (!path_.empty() && !save_locked(path_)) {
    obs::counter("engine.tune.cache_write_failed").add(1);
  }
}

bool PlanCache::erase(const TuneKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool existed = entries_.erase(key) != 0;
  if (existed && !path_.empty()) save_locked(path_);
  return existed;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace finbench::tune
