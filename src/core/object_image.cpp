#include "core/object_image.hpp"

#include <algorithm>
#include <sstream>

namespace flecc::core {

namespace {

/// First field whose key is >= `key` (the vector is key-sorted).
template <typename Fields>
auto field_lower_bound(Fields& fields, const std::string& key) {
  return std::lower_bound(
      fields.begin(), fields.end(), key,
      [](const ObjectImage::Field& f, const std::string& k) {
        return f.first < k;
      });
}

}  // namespace

void ObjectImage::set_int(const std::string& key, std::int64_t v) {
  auto it = field_lower_bound(fields_, key);
  if (it != fields_.end() && it->first == key) {
    it->second = v;
  } else {
    fields_.emplace(it, key, v);
  }
}

std::optional<std::int64_t> ObjectImage::get_int(
    const std::string& key) const {
  auto it = field_lower_bound(fields_, key);
  if (it == fields_.end() || it->first != key) return std::nullopt;
  return it->second;
}

bool ObjectImage::erase(const std::string& key) {
  auto it = field_lower_bound(fields_, key);
  if (it == fields_.end() || it->first != key) return false;
  fields_.erase(it);
  return true;
}

std::size_t ObjectImage::overlay(const ObjectImage& delta) {
  for (const auto& [k, v] : delta.fields_) set_int(k, v);
  return delta.fields_.size();
}

std::size_t ObjectImage::wire_size() const {
  std::size_t bytes = 16;  // header: version + count
  for (const auto& [k, v] : fields_) bytes += k.size() + 2 + 8;
  return bytes;
}

std::string ObjectImage::to_string() const {
  std::ostringstream os;
  os << "Image(v" << version_ << "){";
  bool first = true;
  for (const auto& [k, v] : fields_) {
    if (!first) os << ", ";
    first = false;
    os << k << "=" << v;
  }
  os << "}";
  return os.str();
}

}  // namespace flecc::core
