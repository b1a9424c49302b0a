// Slab pool for protocol payloads — the raw-speed layer's allocator.
//
// Every protocol message used to travel as a value struct boxed into
// `std::any`, costing one heap allocation per send (plus the container
// allocations inside image-carrying payloads). PoolPtr<T> replaces the
// box with an 8-byte refcounted handle: it satisfies libstdc++'s
// small-object criteria (pointer-sized, nothrow-move), so constructing
// a `std::any` from it never allocates, and copying the any (dedup
// windows, retransmission caches) only bumps a refcount — zero-copy
// replay. Slots recycle through a bounded freelist, so in steady state
// acquiring a payload reuses a previous slot *including the capacity of
// its containers* (ObjectImage buffers, echo vectors): the hot
// push/ack path allocates nothing.
//
// Reuse contract: acquire() returns a slot with UNSPECIFIED previous
// content — the sender must assign every field before handing the
// pointer to the fabric (copy-assignment into the stale containers is
// what reuses their capacity). After sending, the slot must be treated
// as immutable: the fabric, dedup windows, and replay caches may all
// hold references to it.
//
// Lifetime: slots carry a pointer to a shared core (the same detached-
// control-block idiom as the obs layer's ring buffers use for sink
// teardown). Destroying the pool frees the freelist immediately;
// payloads still referenced by in-flight messages or dedup windows keep
// their slots alive and self-delete when the last reference drops.
//
// Thread-safety: refcounts are atomic and the freelist is mutex-guarded
// so PoolPtr copies may cross threads (rt::ThreadFabric). Under the
// single-threaded simulator the mutex is uncontended.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace flecc::net {

template <typename T>
class ObjectPool;

namespace detail {

template <typename T>
struct PoolCore {
  struct Slot {
    std::atomic<std::uint32_t> refs{1};
    PoolCore* core = nullptr;
    T value{};
  };

  std::mutex mu;
  std::vector<Slot*> free;
  std::size_t max_free;
  bool attached = true;     // false once the owning ObjectPool died
  std::size_t outstanding = 0;  // live slots not on the freelist

  /// Called at refcount zero. Deletes `this` when the pool is gone and
  /// no slot references remain.
  void recycle(Slot* s) {
    bool delete_core = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      --outstanding;
      if (attached && free.size() < max_free) {
        s->refs.store(1, std::memory_order_relaxed);
        free.push_back(s);
        s = nullptr;
      }
      delete_core = !attached && outstanding == 0;
    }
    delete s;
    if (delete_core) delete this;
  }
};

}  // namespace detail

/// Refcounted handle to a pooled payload. Pointer-sized and
/// nothrow-movable on purpose: `std::any` stores it inline.
template <typename T>
class PoolPtr {
  using Slot = typename detail::PoolCore<T>::Slot;

 public:
  PoolPtr() noexcept = default;
  PoolPtr(const PoolPtr& o) noexcept : slot_(o.slot_) {
    if (slot_ != nullptr) {
      slot_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  PoolPtr(PoolPtr&& o) noexcept : slot_(std::exchange(o.slot_, nullptr)) {}
  PoolPtr& operator=(const PoolPtr& o) noexcept {
    PoolPtr tmp(o);
    std::swap(slot_, tmp.slot_);
    return *this;
  }
  PoolPtr& operator=(PoolPtr&& o) noexcept {
    std::swap(slot_, o.slot_);
    return *this;
  }
  ~PoolPtr() { reset(); }

  void reset() noexcept {
    Slot* s = std::exchange(slot_, nullptr);
    if (s != nullptr &&
        s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      s->core->recycle(s);
    }
  }

  [[nodiscard]] T* operator->() const noexcept { return &slot_->value; }
  [[nodiscard]] T& operator*() const noexcept { return slot_->value; }
  [[nodiscard]] T* get() const noexcept {
    return slot_ != nullptr ? &slot_->value : nullptr;
  }
  explicit operator bool() const noexcept { return slot_ != nullptr; }

 private:
  friend class ObjectPool<T>;
  explicit PoolPtr(Slot* s) noexcept : slot_(s) {}
  Slot* slot_ = nullptr;
};

/// A pool of T slots with a bounded freelist. Growth on exhaustion is
/// graceful: an empty freelist falls back to operator new rather than
/// failing.
template <typename T>
class ObjectPool {
  using Core = detail::PoolCore<T>;

 public:
  explicit ObjectPool(std::size_t max_free = 64) : core_(new Core) {
    core_->max_free = max_free;
  }
  ~ObjectPool() {
    std::vector<typename Core::Slot*> drop;
    bool delete_core = false;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      core_->attached = false;
      drop.swap(core_->free);
      delete_core = core_->outstanding == 0;
    }
    for (auto* s : drop) delete s;
    if (delete_core) delete core_;
  }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Get a slot (refcount 1). Previous content is unspecified — assign
  /// every field before use; stale container capacity is the point.
  [[nodiscard]] PoolPtr<T> acquire() {
    typename Core::Slot* s = nullptr;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      ++core_->outstanding;
      if (!core_->free.empty()) {
        s = core_->free.back();
        core_->free.pop_back();
      }
    }
    if (s == nullptr) {
      s = new typename Core::Slot;
      s->core = core_;
    }
    return PoolPtr<T>(s);
  }

 private:
  Core* core_;  // self-deletes once detached and unreferenced
};

/// One lazily-created ObjectPool per payload type — the allocator a
/// CacheManager/DirectoryManager owns when message pooling is enabled.
class PoolSet {
 public:
  explicit PoolSet(std::size_t max_free_per_type = 64)
      : max_free_(max_free_per_type) {}

  template <typename T>
  [[nodiscard]] PoolPtr<T> acquire() {
    auto& holder = pools_[std::type_index(typeid(T))];
    if (holder == nullptr) {
      holder = std::make_unique<Holder<T>>(max_free_);
    }
    return static_cast<Holder<T>*>(holder.get())->pool.acquire();
  }

 private:
  struct HolderBase {
    virtual ~HolderBase() = default;
  };
  template <typename T>
  struct Holder : HolderBase {
    explicit Holder(std::size_t max_free) : pool(max_free) {}
    ObjectPool<T> pool;
  };

  std::size_t max_free_;
  std::unordered_map<std::type_index, std::unique_ptr<HolderBase>> pools_;
};

}  // namespace flecc::net
