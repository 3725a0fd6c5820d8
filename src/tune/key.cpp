#include "finbench/tune/key.hpp"

#include <array>

namespace finbench::tune {

namespace {

// Alias -> canonical registry family. The registry's VariantInfo::kernel
// strings are the short forms; the spelled-out names exist so a caller can
// write the intent the way the paper does ("blackscholes.auto").
struct FamilyAlias {
  std::string_view alias;
  std::string_view family;
};

constexpr std::array<FamilyAlias, 8> kFamilies{{
    {"bs", "bs"},
    {"blackscholes", "bs"},
    {"binomial", "binomial"},
    {"mc", "mc"},
    {"montecarlo", "mc"},
    {"brownian", "brownian"},
    {"cn", "cn"},
    {"cranknicolson", "cn"},
}};

}  // namespace

int size_bucket_of(std::size_t n) {
  if (n == 0) return -1;
  int b = 0;
  while (n >>= 1) ++b;
  return b;
}

bool is_auto_id(std::string_view id) {
  constexpr std::string_view kSuffix = ".auto";
  if (id.size() <= kSuffix.size()) return false;
  if (id.substr(id.size() - kSuffix.size()) != kSuffix) return false;
  // Exactly one dot: "<family>.auto". Three-part ids ("bs.intermediate.auto")
  // are concrete variants whose *width* is auto.
  const std::string_view family = id.substr(0, id.size() - kSuffix.size());
  return !family.empty() && family.find('.') == std::string_view::npos;
}

std::string_view auto_family(std::string_view id) {
  if (!is_auto_id(id)) return {};
  const std::string_view prefix = id.substr(0, id.size() - 5);  // strip ".auto"
  for (const FamilyAlias& f : kFamilies) {
    if (prefix == f.alias) return f.family;
  }
  return {};
}

bool layout_from_string(std::string_view s, core::Layout& out) {
  using core::Layout;
  for (const Layout l : {Layout::kSpecs, Layout::kBsAos, Layout::kBsSoa, Layout::kBsSoaF,
                         Layout::kBsBlocked, Layout::kPaths}) {
    if (s == core::to_string(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

std::string TuneKey::to_string() const {
  std::string s = "{family=";
  s += family;
  s += " layout=";
  s += core::to_string(layout);
  s += " bucket=";
  s += std::to_string(size_bucket);
  s += " threads=";
  s += std::to_string(threads);
  s += " steps=";
  s += std::to_string(steps);
  if (steps_per_year != 0) {
    s += " steps_per_year=";
    s += std::to_string(steps_per_year);
  }
  s += " npath=";
  s += std::to_string(npath);
  s += " bridge_depth=";
  s += std::to_string(bridge_depth);
  s += " cn_num_prices=";
  s += std::to_string(cn_num_prices);
  if (american) s += " american";
  s += "}";
  return s;
}

}  // namespace finbench::tune
