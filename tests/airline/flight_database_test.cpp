#include "airline/flight_database.hpp"

#include <gtest/gtest.h>

namespace flecc::airline {
namespace {

TEST(FlightDatabaseTest, UniformBuilder) {
  const auto db = FlightDatabase::uniform(100, 5, 50, 99.0);
  EXPECT_EQ(db.size(), 5u);
  const Flight* f = db.find(102);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->capacity, 50);
  EXPECT_EQ(f->reserved, 0);
  EXPECT_DOUBLE_EQ(f->price, 99.0);
  EXPECT_EQ(db.find(105), nullptr);
  EXPECT_EQ(db.flight_numbers(),
            (std::vector<FlightNumber>{100, 101, 102, 103, 104}));
}

TEST(FlightDatabaseTest, AddFlightValidates) {
  FlightDatabase db;
  Flight bad;
  bad.number = 1;
  bad.capacity = 10;
  bad.reserved = 11;
  EXPECT_THROW(db.add_flight(bad), std::invalid_argument);
  bad.reserved = -1;
  EXPECT_THROW(db.add_flight(bad), std::invalid_argument);
}

TEST(FlightDatabaseTest, ReserveClampsAtCapacity) {
  auto db = FlightDatabase::uniform(1, 1, 10);
  EXPECT_EQ(db.reserve(1, 6), 6);
  EXPECT_EQ(db.reserve(1, 6), 4);  // only 4 left
  EXPECT_EQ(db.reserve(1, 1), 0);
  EXPECT_EQ(db.available(1), 0);
  EXPECT_EQ(db.rejected_seats(), 3u);  // 2 + 1 spilled
  EXPECT_EQ(db.total_reserved(), 10);
}

TEST(FlightDatabaseTest, ReserveUnknownFlightOrNonPositive) {
  auto db = FlightDatabase::uniform(1, 1, 10);
  EXPECT_EQ(db.reserve(99, 5), 0);
  EXPECT_EQ(db.reserve(1, 0), 0);
  EXPECT_EQ(db.reserve(1, -3), 0);
  EXPECT_EQ(db.total_reserved(), 0);
}

TEST(FlightDatabaseTest, RaiseReservedIsMonotoneAndClamped) {
  auto db = FlightDatabase::uniform(1, 1, 10);
  db.reserve(1, 4);
  EXPECT_TRUE(db.raise_reserved(1, 2));  // lower: no effect
  EXPECT_EQ(db.find(1)->reserved, 4);
  EXPECT_TRUE(db.raise_reserved(1, 7));
  EXPECT_EQ(db.find(1)->reserved, 7);
  EXPECT_TRUE(db.raise_reserved(1, 99));  // clamped at capacity
  EXPECT_EQ(db.find(1)->reserved, 10);
  EXPECT_FALSE(db.raise_reserved(42, 1));
}

TEST(FlightDatabaseAdapterTest, DataPropertiesListAllFlights) {
  auto db = FlightDatabase::uniform(10, 3, 5);
  FlightDatabaseAdapter adapter(db);
  const auto props = adapter.data_properties();
  const props::Domain* d = props.find(kFlightsProperty);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->size(), 3u);
  EXPECT_TRUE(d->contains(props::Value{std::int64_t{11}}));
  EXPECT_FALSE(d->contains(props::Value{std::int64_t{13}}));
}

TEST(FlightDatabaseAdapterTest, ExtractHonorsScope) {
  auto db = FlightDatabase::uniform(10, 4, 5);
  db.reserve(11, 2);
  FlightDatabaseAdapter adapter(db);
  props::PropertySet scope;
  scope.set(kFlightsProperty, props::Domain::discrete(
                                  {props::Value{std::int64_t{11}}}));
  const auto img = adapter.extract_from_object(scope);
  EXPECT_EQ(img.get_int(key_reserved(11)), 2);
  EXPECT_EQ(img.get_int(key_capacity(11)), 5);
  EXPECT_FALSE(img.has(key_reserved(10)));
  EXPECT_EQ(img.size(), 2u);
}

TEST(FlightDatabaseAdapterTest, ExtractWithEmptyScopeShipsEverything) {
  auto db = FlightDatabase::uniform(10, 2, 5);
  FlightDatabaseAdapter adapter(db);
  const auto img = adapter.extract_from_object(props::PropertySet{});
  EXPECT_EQ(img.size(), 4u);  // cap+res for 2 flights
}

TEST(FlightDatabaseAdapterTest, MergeAppliesDeltasWithinScope) {
  auto db = FlightDatabase::uniform(10, 2, 5);
  FlightDatabaseAdapter adapter(db);
  props::PropertySet scope;
  scope.set(kFlightsProperty, props::Domain::discrete(
                                  {props::Value{std::int64_t{10}}}));
  core::ObjectImage img;
  img.set_int(key_delta(10), 3);
  img.set_int(key_delta(11), 3);  // out of scope: must be ignored
  adapter.merge_into_object(img, scope);
  EXPECT_EQ(db.find(10)->reserved, 3);
  EXPECT_EQ(db.find(11)->reserved, 0);
}

TEST(FlightDatabaseAdapterTest, MergeAppliesMonotoneAbsoluteState) {
  auto db = FlightDatabase::uniform(10, 1, 5);
  FlightDatabaseAdapter adapter(db);
  core::ObjectImage img;
  img.set_int(key_reserved(10), 4);
  adapter.merge_into_object(img, props::PropertySet{});
  EXPECT_EQ(db.find(10)->reserved, 4);
  img.set_int(key_reserved(10), 2);  // lower: ignored (monotone)
  adapter.merge_into_object(img, props::PropertySet{});
  EXPECT_EQ(db.find(10)->reserved, 4);
}

TEST(FlightDatabaseAdapterTest, MergeIgnoresCapacityWritesAndJunk) {
  auto db = FlightDatabase::uniform(10, 1, 5);
  FlightDatabaseAdapter adapter(db);
  core::ObjectImage img;
  img.set_int(key_capacity(10), 999);
  img.set_int("unrelated.key", 7);
  img.set_int("f.10.bogus", 7);
  img.set_int("d.", 7);
  adapter.merge_into_object(img, props::PropertySet{});
  EXPECT_EQ(db.find(10)->capacity, 5);
  EXPECT_EQ(db.find(10)->reserved, 0);
}

TEST(FlightDatabaseAdapterTest, ValidityEnvExposesMetadata) {
  auto db = FlightDatabase::uniform(10, 2, 5);
  db.reserve(10, 3);
  FlightDatabaseAdapter adapter(db);
  const trigger::Env* env = adapter.variables();
  ASSERT_NE(env, nullptr);
  EXPECT_DOUBLE_EQ(*env->lookup("_total_reserved"), 3.0);
  EXPECT_DOUBLE_EQ(*env->lookup("avail.10"), 2.0);
  EXPECT_DOUBLE_EQ(*env->lookup("avail.11"), 5.0);
  EXPECT_FALSE(env->lookup("avail.xyz").has_value());
  EXPECT_FALSE(env->lookup("unknown").has_value());
}

}  // namespace
}  // namespace flecc::airline
