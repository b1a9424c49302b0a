#include "net/pool.hpp"

#include <gtest/gtest.h>

#include <any>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/object_image.hpp"
#include "net/message.hpp"

namespace flecc::net {
namespace {

struct Payload {
  std::int64_t a = 0;
  std::string s;
  std::vector<int> v;
};

/// Counts destructions: a slot the freelist does not keep is deleted.
struct Counted {
  static inline int destroyed = 0;
  ~Counted() { ++destroyed; }
};

TEST(PoolPtr, AnyStoresHandleInline) {
  // The whole point of the handle: libstdc++'s std::any small-object
  // criteria (pointer-sized, nothrow-movable) must hold, or every send
  // would still box-allocate.
  static_assert(sizeof(PoolPtr<Payload>) == sizeof(void*));
  static_assert(std::is_nothrow_move_constructible_v<PoolPtr<Payload>>);
  static_assert(std::is_nothrow_copy_constructible_v<PoolPtr<Payload>>);
}

TEST(ObjectPool, ReusesSlotAfterRelease) {
  ObjectPool<Payload> pool;
  Payload* first = nullptr;
  {
    PoolPtr<Payload> p = pool.acquire();
    p->a = 7;
    first = p.get();
  }  // released -> freelist
  PoolPtr<Payload> q = pool.acquire();
  EXPECT_EQ(q.get(), first);  // same slot came back
  PoolPtr<Payload> r = pool.acquire();
  EXPECT_NE(r.get(), first);  // the freelist held only that one
}

TEST(ObjectPool, ReuseKeepsContainerCapacity) {
  ObjectPool<Payload> pool;
  std::size_t cap = 0;
  {
    PoolPtr<Payload> p = pool.acquire();
    p->v.assign(100, 1);
    cap = p->v.capacity();
  }
  PoolPtr<Payload> q = pool.acquire();
  // Reuse contract: content unspecified (here: stale), capacity kept.
  EXPECT_GE(q->v.capacity(), cap);
  q->v.assign(50, 2);  // fits in the recycled buffer, no allocation
  EXPECT_GE(q->v.capacity(), cap);
}

TEST(ObjectPool, GrowsGracefullyWhenExhausted) {
  Counted::destroyed = 0;
  {
    ObjectPool<Counted> pool(/*max_free=*/2);
    std::vector<PoolPtr<Counted>> live;
    for (int i = 0; i < 10; ++i) live.push_back(pool.acquire());
    std::set<Counted*> slots;
    for (const auto& p : live) slots.insert(p.get());
    EXPECT_EQ(slots.size(), 10u);  // all fresh slots, none failed
    live.clear();
    // Freelist is bounded: 2 recycled, the rest deleted.
    EXPECT_EQ(Counted::destroyed, 8);
  }
  EXPECT_EQ(Counted::destroyed, 10);  // the pool frees its freelist
}

TEST(ObjectPool, RefcountSharedAcrossAnyCopies) {
  ObjectPool<Payload> pool;
  PoolPtr<Payload> p = pool.acquire();
  p->a = 42;
  Payload* slot = p.get();
  std::any boxed(p);           // refs: 2 (dedup-window style copy)
  std::any boxed2 = boxed;     // refs: 3 (replay copy)
  p.reset();                   // refs: 2 -> slot NOT recycled
  EXPECT_NE(pool.acquire().get(), slot);
  EXPECT_EQ(std::any_cast<PoolPtr<Payload>&>(boxed2)->a, 42);
  boxed.reset();
  boxed2.reset();              // last reference -> recycled
  EXPECT_EQ(pool.acquire().get(), slot);
}

TEST(ObjectPool, OutstandingPtrSurvivesPoolDeath) {
  PoolPtr<Payload> survivor;
  {
    ObjectPool<Payload> pool;
    survivor = pool.acquire();
    survivor->s = "still here";
  }  // pool destroyed with the slot outstanding
  EXPECT_EQ(survivor->s, "still here");
  survivor.reset();  // slot (and the detached core) self-delete
}

TEST(PoolSet, PerTypePools) {
  PoolSet set;
  Payload* first = nullptr;
  { auto p = set.acquire<Payload>(); first = p.get(); }
  // Another type has its own pool: it does not take the free Payload slot.
  auto s = set.acquire<std::string>();
  EXPECT_NE(static_cast<void*>(s.get()), static_cast<void*>(first));
  EXPECT_EQ(set.acquire<Payload>().get(), first);
}

TEST(PayloadAs, ReadsPooledAndBoxedUniformly) {
  PoolSet set;
  auto slot = set.acquire<core::ObjectImage>();
  slot->clear();
  slot->set_int("f.100.free", 5);

  Message pooled;
  pooled.type = "test.image";
  pooled.payload = slot;
  Message boxed;
  boxed.type = "test.image";
  boxed.payload = *slot;  // plain by-value boxing, the legacy path

  EXPECT_EQ(payload_as<core::ObjectImage>(pooled).get_int("f.100.free"), 5);
  EXPECT_EQ(payload_as<core::ObjectImage>(boxed).get_int("f.100.free"), 5);
  EXPECT_THROW(payload_as<std::string>(pooled), std::bad_any_cast);
}

}  // namespace
}  // namespace flecc::net
