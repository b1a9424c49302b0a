// Wire-size accounting of the protocol message layer.
#include "core/messages.hpp"

#include <gtest/gtest.h>

namespace flecc::core::msg {
namespace {

TEST(WireSizeTest, HeaderOnlyMessages) {
  EXPECT_EQ(wire_size(InitReq{}), kHeaderBytes);
  EXPECT_EQ(wire_size(PullReq{}), kHeaderBytes);
  EXPECT_EQ(wire_size(PushAck{}), kHeaderBytes);
  EXPECT_EQ(wire_size(AcquireReq{}), kHeaderBytes);
  EXPECT_EQ(wire_size(InvalidateReq{}), kHeaderBytes);
  EXPECT_EQ(wire_size(FetchReq{}), kHeaderBytes);
  EXPECT_EQ(wire_size(ModeChangeReq{}), kHeaderBytes);
  EXPECT_EQ(wire_size(ModeChangeAck{}), kHeaderBytes);
  EXPECT_EQ(wire_size(KillAck{}), kHeaderBytes);
  EXPECT_EQ(wire_size(UpdateNotify{}), kHeaderBytes);
}

TEST(WireSizeTest, ImagesAddTheirSize) {
  InitReply reply;
  EXPECT_EQ(wire_size(reply), kHeaderBytes + reply.image.wire_size());
  reply.image.set_int("f.100.res", 7);
  reply.image.set_int("f.100.cap", 9);
  EXPECT_EQ(wire_size(reply), kHeaderBytes + reply.image.wire_size());
  EXPECT_GT(wire_size(reply), kHeaderBytes + 16);
}

TEST(WireSizeTest, RegisterCarriesEverything) {
  RegisterReq req;
  const auto empty = wire_size(req);
  req.view_name = "air.TravelAgent";
  req.push_trigger = "(t > 1500)";
  req.pull_trigger = "(t > 1500)";
  req.validity_trigger = "(t > 1500)";
  req.properties.set("Flights", props::Domain::interval(100, 199));
  const auto full = wire_size(req);
  EXPECT_GT(full, empty);
  EXPECT_GE(full - empty, req.view_name.size() + 3 * 10);
}

TEST(WireSizeTest, PropertySetSizes) {
  props::PropertySet empty;
  EXPECT_EQ(wire_size(empty), 4u);

  props::PropertySet interval;
  interval.set("p", props::Domain::interval(0, 1000000));
  EXPECT_EQ(wire_size(interval), 4u + 1 + 2 + 16);

  props::PropertySet discrete;
  discrete.set("p", props::Domain::discrete(
                        {props::Value{std::int64_t{1}},
                         props::Value{std::string{"west"}}}));
  // 4 + name(1+2) + 2 + int(8) + string(4+2)
  EXPECT_EQ(wire_size(discrete), 4u + 3 + 2 + 8 + 6);
}

TEST(WireSizeTest, DiscreteDomainsScaleWithValues) {
  props::PropertySet small, large;
  small.set("Flights", props::Domain::discrete_range(0, 9));
  large.set("Flights", props::Domain::discrete_range(0, 99));
  EXPECT_LT(wire_size(small), wire_size(large));
  EXPECT_EQ(wire_size(large) - wire_size(small), 90u * 8u);
}

TEST(WireSizeTest, DirtyKillBiggerThanCleanKill) {
  KillReq clean;
  KillReq dirty;
  dirty.dirty = true;
  dirty.final_image.set_int("d.100", 5);
  EXPECT_GT(wire_size(dirty), wire_size(clean));
}

}  // namespace
}  // namespace flecc::core::msg
