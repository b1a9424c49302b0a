#include "trigger/env.hpp"

#include <algorithm>
#include <stdexcept>

namespace flecc::trigger {

std::optional<double> VariableStore::lookup(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end()) return std::nullopt;
  return it->second;
}

OverlayEnv::OverlayEnv(std::initializer_list<Var> vars, const Env* base)
    : size_(vars.size()), base_(base) {
  if (size_ > kMaxVars) throw std::length_error("OverlayEnv: too many vars");
  std::copy(vars.begin(), vars.end(), vars_.begin());
}

std::optional<double> OverlayEnv::lookup(const std::string& name) const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (vars_[i].name == name) return vars_[i].value;
  }
  if (base_ == nullptr) return std::nullopt;
  return base_->lookup(name);
}

}  // namespace flecc::trigger
