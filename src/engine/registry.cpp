#include "finbench/engine/registry.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include "finbench/engine/engine.hpp"
#include "finbench/rng/normal.hpp"
#include "variants.hpp"

namespace finbench::engine {

Scratch& scratch_of(const PricingRequest& req) {
  if (!req.scratch) req.scratch = std::make_shared<Scratch>();
  return *req.scratch;
}

std::span<const double> stream_normals(const PricingRequest& req, std::size_t n) {
  Scratch& s = scratch_of(req);
  if (s.normals_seed != req.seed || s.normals.size() < n) {
    s.normals.resize(n);
    rng::NormalStream(req.seed).fill({s.normals.data(), n});
    s.normals_seed = req.seed;
  }
  return {s.normals.data(), n};
}

int scratch_slots(const Scratch& s) {
  return s.pool != nullptr ? std::min(core::ScratchPool::kMaxSlots, 2 * s.pool->size()) : 1;
}

struct Registry::Impl {
  mutable std::mutex mu;
  // map keeps ids() sorted and the VariantInfo addresses stable.
  std::map<std::string, VariantInfo, std::less<>> variants;
};

void VariantInfo::run_batch(const PricingRequest& req, const core::PortfolioView& view,
                            PricingResult& res) const {
  Engine::shared().run_batch(*this, req, view, res);
}

Registry::Registry() : impl_(new Impl) {
  register_blackscholes(*this);
  register_binomial(*this);
  register_montecarlo(*this);
  register_brownian(*this);
  register_cranknicolson(*this);
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::add(VariantInfo v) {
  if (v.id.empty()) throw std::invalid_argument("registry: empty variant id");
  if (!v.run_range) {
    throw std::invalid_argument("registry: variant '" + v.id + "' has no run_range");
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto [it, inserted] = impl_->variants.emplace(v.id, std::move(v));
  if (!inserted) throw std::invalid_argument("registry: duplicate variant id '" + it->first + "'");
}

const VariantInfo* Registry::find(std::string_view id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->variants.find(id);
  return it == impl_->variants.end() ? nullptr : &it->second;
}

const VariantInfo* fallback_of(const VariantInfo& v, int& hops) {
  constexpr int kMaxHops = 8;
  const std::string& id = !v.fallback_id.empty() ? v.fallback_id : v.reference_id;
  if (hops >= kMaxHops || id.empty() || id == v.id) return nullptr;
  const VariantInfo* next = Registry::instance().find(id);
  if (next != nullptr) ++hops;
  return next;
}

std::vector<const VariantInfo*> Registry::all() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<const VariantInfo*> out;
  out.reserve(impl_->variants.size());
  for (const auto& [id, v] : impl_->variants) out.push_back(&v);
  return out;
}

std::vector<std::string> Registry::ids() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> out;
  out.reserve(impl_->variants.size());
  for (const auto& [id, v] : impl_->variants) out.push_back(id);
  return out;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->variants.size();
}

}  // namespace finbench::engine
