#include "airline/flight_database.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <utility>

namespace flecc::airline {

std::string key_capacity(FlightNumber n) {
  return "f." + std::to_string(n) + ".cap";
}
std::string key_reserved(FlightNumber n) {
  return "f." + std::to_string(n) + ".res";
}
std::string key_delta(FlightNumber n) { return "d." + std::to_string(n); }

namespace {

/// Parse the flight number out of "f.<n>.res" / "f.<n>.cap" / "d.<n>".
/// Returns false for unrelated keys.
bool parse_key(const std::string& key, FlightNumber& n, char& kind) {
  if (key.size() < 3) return false;
  if (key[0] == 'd' && key[1] == '.') {
    kind = 'd';
    auto [ptr, ec] =
        std::from_chars(key.data() + 2, key.data() + key.size(), n);
    return ec == std::errc() && ptr == key.data() + key.size();
  }
  if (key[0] == 'f' && key[1] == '.') {
    const auto dot = key.rfind('.');
    if (dot == 1 || dot == std::string::npos) return false;
    const std::string tail = key.substr(dot + 1);
    if (tail == "res") {
      kind = 'r';
    } else if (tail == "cap") {
      kind = 'c';
    } else {
      return false;
    }
    auto [ptr, ec] = std::from_chars(key.data() + 2, key.data() + dot, n);
    return ec == std::errc() && ptr == key.data() + dot;
  }
  return false;
}

}  // namespace

// ---- FlightDatabase --------------------------------------------------------

void FlightDatabase::add_flight(Flight f) {
  if (f.capacity < 0 || f.reserved < 0 || f.reserved > f.capacity) {
    throw std::invalid_argument("FlightDatabase::add_flight: bad seat state");
  }
  flights_[f.number] = std::move(f);
}

FlightDatabase FlightDatabase::uniform(FlightNumber first, std::size_t count,
                                       std::int64_t capacity, double price) {
  FlightDatabase db;
  for (std::size_t i = 0; i < count; ++i) {
    Flight f;
    f.number = first + static_cast<FlightNumber>(i);
    f.origin = "ORG";
    f.destination = "DST";
    f.capacity = capacity;
    f.price = price;
    db.add_flight(std::move(f));
  }
  return db;
}

const Flight* FlightDatabase::find(FlightNumber n) const {
  auto it = flights_.find(n);
  return it == flights_.end() ? nullptr : &it->second;
}

std::vector<FlightNumber> FlightDatabase::flight_numbers() const {
  std::vector<FlightNumber> out;
  out.reserve(flights_.size());
  for (const auto& [n, f] : flights_) {
    (void)f;
    out.push_back(n);
  }
  return out;
}

std::int64_t FlightDatabase::reserve(FlightNumber n, std::int64_t count) {
  if (count <= 0) return 0;
  auto it = flights_.find(n);
  if (it == flights_.end()) return 0;
  Flight& f = it->second;
  const std::int64_t accepted = std::min(count, f.available());
  f.reserved += accepted;
  rejected_seats_ += static_cast<std::uint64_t>(count - accepted);
  return accepted;
}

bool FlightDatabase::raise_reserved(FlightNumber n, std::int64_t reserved) {
  auto it = flights_.find(n);
  if (it == flights_.end()) return false;
  Flight& f = it->second;
  f.reserved = std::clamp(std::max(f.reserved, reserved),
                          std::int64_t{0}, f.capacity);
  return true;
}

std::int64_t FlightDatabase::available(FlightNumber n) const {
  const Flight* f = find(n);
  return f == nullptr ? 0 : f->available();
}

std::int64_t FlightDatabase::total_reserved() const {
  std::int64_t total = 0;
  for (const auto& [n, f] : flights_) {
    (void)n;
    total += f.reserved;
  }
  return total;
}

// ---- FlightDatabaseAdapter ---------------------------------------------------

FlightDatabaseAdapter::FlightDatabaseAdapter(FlightDatabase& db)
    : db_(db), env_(db) {}

props::PropertySet FlightDatabaseAdapter::data_properties() const {
  std::set<props::Value> numbers;
  for (const auto& [n, f] : db_) {
    (void)f;
    numbers.insert(props::Value{n});
  }
  props::PropertySet ps;
  ps.set(kFlightsProperty, props::Domain::discrete(std::move(numbers)));
  return ps;
}

core::ObjectImage FlightDatabaseAdapter::extract_from_object(
    const props::PropertySet& vpl) const {
  core::ObjectImage image;
  const props::Domain* scope = vpl.find(kFlightsProperty);
  for (const auto& [n, f] : db_) {
    if (scope != nullptr && !scope->contains(props::Value{n})) continue;
    image.set_int(key_capacity(n), f.capacity);
    image.set_int(key_reserved(n), f.reserved);
  }
  return image;
}

void FlightDatabaseAdapter::merge_into_object(const core::ObjectImage& image,
                                              const props::PropertySet& vpl) {
  const props::Domain* scope = vpl.find(kFlightsProperty);
  for (const auto& [key, value] : image) {
    FlightNumber n = 0;
    char kind = 0;
    if (!parse_key(key, n, kind)) continue;
    if (scope != nullptr && !scope->contains(props::Value{n})) continue;
    if (kind == 'd') {
      db_.reserve(n, value);  // clamped: the conflict-resolution policy
    } else if (kind == 'r') {
      db_.raise_reserved(n, value);  // monotone state merge (gossip)
    }
    // 'c' (capacity) is immutable primary state; ignore inbound writes.
  }
}

std::optional<double> FlightDatabaseAdapter::DbEnv::lookup(
    const std::string& name) const {
  if (name == "_total_reserved") {
    return static_cast<double>(db_.total_reserved());
  }
  constexpr const char* kAvailPrefix = "avail.";
  if (name.rfind(kAvailPrefix, 0) == 0) {
    FlightNumber n = 0;
    const char* first = name.data() + 6;
    const char* last = name.data() + name.size();
    auto [ptr, ec] = std::from_chars(first, last, n);
    if (ec == std::errc() && ptr == last) {
      return static_cast<double>(db_.available(n));
    }
  }
  return std::nullopt;
}

}  // namespace flecc::airline
