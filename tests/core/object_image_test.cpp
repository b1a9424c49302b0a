#include "core/object_image.hpp"

#include <gtest/gtest.h>

namespace flecc::core {
namespace {

TEST(ObjectImageTest, StartsEmpty) {
  ObjectImage img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.size(), 0u);
  EXPECT_EQ(img.version(), 0u);
}

TEST(ObjectImageTest, TypedSetAndGet) {
  ObjectImage img;
  img.set_int("count", 42);
  img.set_int("debt", -7);
  img.set_int("count", 43);  // overwrite keeps one field
  EXPECT_TRUE(img.has("count"));
  EXPECT_EQ(img.get_int("count"), 43);
  EXPECT_EQ(img.get_int("debt"), -7);
  EXPECT_EQ(img.size(), 2u);
}

TEST(ObjectImageTest, MissingKeyReturnsNullopt) {
  ObjectImage img;
  EXPECT_FALSE(img.has("nope"));
  EXPECT_FALSE(img.get_int("nope").has_value());
}

TEST(ObjectImageTest, EraseRemoves) {
  ObjectImage img;
  img.set_int("a", 1);
  EXPECT_TRUE(img.erase("a"));
  EXPECT_FALSE(img.erase("a"));
  EXPECT_TRUE(img.empty());
}

TEST(ObjectImageTest, OverlayOverwritesAndCreates) {
  ObjectImage base;
  base.set_int("a", 1);
  base.set_int("b", 2);
  ObjectImage delta;
  delta.set_int("b", 20);
  delta.set_int("c", 30);
  EXPECT_EQ(base.overlay(delta), 2u);
  EXPECT_EQ(base.get_int("a"), 1);
  EXPECT_EQ(base.get_int("b"), 20);
  EXPECT_EQ(base.get_int("c"), 30);
}

TEST(ObjectImageTest, VersionRoundTrips) {
  ObjectImage img;
  img.set_version(17);
  EXPECT_EQ(img.version(), 17u);
}

TEST(ObjectImageTest, WireSizeGrowsWithContent) {
  // A 16-byte header, then per field the key, two length bytes and the
  // 8-byte value.
  ObjectImage img;
  EXPECT_EQ(img.wire_size(), 16u);
  img.set_int("k", 1);
  EXPECT_EQ(img.wire_size(), 16u + 1 + 2 + 8);
  img.set_int(std::string(100, 'x'), 2);
  EXPECT_EQ(img.wire_size(), 16u + (1 + 2 + 8) + (100 + 2 + 8));
}

TEST(ObjectImageTest, EqualityAndToString) {
  ObjectImage a;
  a.set_int("x", 1);
  ObjectImage b;
  b.set_int("x", 1);
  EXPECT_EQ(a, b);
  b.set_int("x", 2);
  EXPECT_NE(a, b);
  EXPECT_NE(a.to_string().find("x=1"), std::string::npos);
}

TEST(ObjectImageTest, IterationIsKeyOrdered) {
  ObjectImage img;
  img.set_int("b", 2);
  img.set_int("a", 1);
  std::vector<std::string> keys;
  for (const auto& [k, v] : img) {
    (void)v;
    keys.push_back(k);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace flecc::core
