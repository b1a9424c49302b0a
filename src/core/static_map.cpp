#include "core/static_map.hpp"

namespace flecc::core {

const char* to_string(Relation r) noexcept {
  switch (r) {
    case Relation::kNoConflict: return "no-conflict";
    case Relation::kConflict: return "conflict";
    case Relation::kDynamic: return "dynamic";
  }
  return "?";
}

std::pair<std::string, std::string> StaticMap::ordered(const std::string& a,
                                                       const std::string& b) {
  return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
}

void StaticMap::set(const std::string& a, const std::string& b, Relation r) {
  entries_[ordered(a, b)] = r;
}

Relation StaticMap::query(const std::string& a, const std::string& b) const {
  if (entries_.empty()) return Relation::kDynamic;  // skip the key copies
  auto it = entries_.find(ordered(a, b));
  return it == entries_.end() ? Relation::kDynamic : it->second;
}

}  // namespace flecc::core
