// Microbenchmarks of Flecc's hot primitives (google-benchmark):
// property-set intersection, trigger parse/eval, the event queue,
// ObjectImage extract/merge round trips, and the end-to-end protocol
// train that PERFORMANCE.md's raw-speed numbers come from.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"
#include "core/object_image.hpp"
#include "net/batch_fabric.hpp"
#include "net/sim_fabric.hpp"
#include "props/property.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trigger/parser.hpp"
#include "trigger/trigger.hpp"

// ---- allocation accounting --------------------------------------------------
//
// Global operator new override so BM_ProtocolTrain can report
// allocations-per-op as a deterministic counter (same sim seed + same
// workload => same count). Everything in the process ticks the counter,
// which is exactly the point: pooling wins must show up end to end.
static std::atomic<std::uint64_t> g_alloc_count{0};

// This TU's replaced operators intentionally pair malloc/posix_memalign
// with free; GCC inlines them into callers and flags the new/free mix
// as a mismatch it is not.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace flecc;

namespace {

props::PropertySet make_set(std::size_t n_props, std::int64_t offset) {
  props::PropertySet ps;
  for (std::size_t p = 0; p < n_props; ++p) {
    ps.set("prop" + std::to_string(p),
           props::Domain::interval(offset, offset + 100));
  }
  return ps;
}

void BM_PropertySetConflict(benchmark::State& state) {
  const auto a = make_set(static_cast<std::size_t>(state.range(0)), 0);
  const auto b = make_set(static_cast<std::size_t>(state.range(0)), 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.conflicts_with(b));
  }
}
BENCHMARK(BM_PropertySetConflict)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_PropertySetIntersect(benchmark::State& state) {
  const auto a = make_set(static_cast<std::size_t>(state.range(0)), 0);
  const auto b = make_set(static_cast<std::size_t>(state.range(0)), 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect(b));
  }
}
BENCHMARK(BM_PropertySetIntersect)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_DiscreteDomainIntersect(benchmark::State& state) {
  const auto n = state.range(0);
  std::set<props::Value> va, vb;
  for (std::int64_t i = 0; i < n; ++i) {
    va.insert(props::Value{i});
    vb.insert(props::Value{i + n / 2});
  }
  const auto a = props::Domain::discrete(std::move(va));
  const auto b = props::Domain::discrete(std::move(vb));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect(b));
  }
}
BENCHMARK(BM_DiscreteDomainIntersect)->Arg(8)->Arg(64)->Arg(512);

void BM_TriggerParse(benchmark::State& state) {
  const std::string src =
      "(t > 1500) && (pendingSales >= 3 || !urgent) && x * 2 < y + 7";
  for (auto _ : state) {
    benchmark::DoNotOptimize(trigger::parse(src));
  }
}
BENCHMARK(BM_TriggerParse);

void BM_TriggerEval(benchmark::State& state) {
  const trigger::Trigger trig(
      "(t > 1500) && (pendingSales >= 3 || !urgent) && x * 2 < y + 7");
  trigger::VariableStore env{
      {"pendingSales", 5.0}, {"urgent", 0.0}, {"x", 3.0}, {"y", 10.0}};
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    benchmark::DoNotOptimize(trig.evaluate(t, env));
  }
}
BENCHMARK(BM_TriggerEval);

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(rng.uniform_int(0, 1 << 20), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().when);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ObjectImageOverlay(benchmark::State& state) {
  const auto n = state.range(0);
  core::ObjectImage base, delta;
  for (std::int64_t i = 0; i < n; ++i) {
    base.set_int("key" + std::to_string(i), i);
    if (i % 4 == 0) delta.set_int("key" + std::to_string(i), i * 2);
  }
  for (auto _ : state) {
    core::ObjectImage copy = base;
    benchmark::DoNotOptimize(copy.overlay(delta));
  }
}
BENCHMARK(BM_ObjectImageOverlay)->Arg(16)->Arg(128)->Arg(1024);

// ---- end-to-end protocol train ---------------------------------------------
//
// The workload behind PERFORMANCE.md: M weak-mode cache managers
// colocated on ONE node (so their directory trains share node pairs and
// can coalesce) driving push/pull traffic at a directory on another
// node, then a kill wave. Args: (batch_fabric, write_buffer_ops).
// Counters allocs_per_op / hops_per_op are exact event counts from a
// deterministic simulation — bench_gate.py gates on them, while wall
// time is reported for trend-watching only.

constexpr std::int64_t kTrainCells = 32;

class TrainPrimary : public core::PrimaryAdapter {
 public:
  [[nodiscard]] core::ObjectImage extract_from_object(
      const props::PropertySet&) const override {
    core::ObjectImage img;
    for (const auto& [i, v] : cells_) {
      img.set_int("cell." + std::to_string(i), v);
    }
    return img;
  }

  void merge_into_object(const core::ObjectImage& image,
                         const props::PropertySet&) override {
    for (const auto& [key, value] : image) {
      if (key.rfind("inc.", 0) == 0) cells_[std::stoll(key.substr(4))] += value;
    }
  }

  [[nodiscard]] props::PropertySet data_properties() const override {
    props::PropertySet ps;
    ps.set("Cells", props::Domain::interval(0, kTrainCells - 1));
    return ps;
  }

 private:
  std::map<std::int64_t, std::int64_t> cells_;
};

class TrainView : public core::ViewAdapter {
 public:
  void increment(std::int64_t i, std::int64_t by) { pending_[i] += by; }

  [[nodiscard]] props::PropertySet properties() const {
    props::PropertySet ps;
    ps.set("Cells", props::Domain::interval(0, kTrainCells - 1));
    return ps;
  }

  [[nodiscard]] core::ObjectImage extract_from_view(
      const props::PropertySet&) override {
    core::ObjectImage img;
    for (const auto& [i, d] : pending_) {
      if (d != 0) img.set_int("inc." + std::to_string(i), d);
    }
    pending_.clear();
    return img;
  }

  void merge_into_view(const core::ObjectImage&,
                       const props::PropertySet&) override {}

  [[nodiscard]] const trigger::Env& variables() const override {
    return vars_;
  }

 private:
  std::map<std::int64_t, std::int64_t> pending_;
  trigger::VariableStore vars_;
};

void BM_ProtocolTrain(benchmark::State& state) {
  const bool batch = state.range(0) != 0;
  const auto wbuf = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kAgents = 8;
  constexpr int kRounds = 16;

  std::uint64_t allocs = 0;
  std::uint64_t hops = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<net::NodeId> hosts;
    net::LinkSpec link;
    link.latency = sim::usec(100);
    auto topo = net::Topology::lan(2, link, &hosts);
    net::SimFabric fabric(sim, std::move(topo), net::SimFabric::Config{});
    std::unique_ptr<net::BatchFabric> batcher;
    if (batch) {
      batcher = std::make_unique<net::BatchFabric>(fabric,
                                                   net::BatchFabric::Config{});
    }
    net::Fabric& proto =
        batcher ? static_cast<net::Fabric&>(*batcher) : fabric;

    TrainPrimary primary;
    const net::Address dir_addr{hosts[1], 1};
    core::DirectoryManager dm(proto, dir_addr, primary);

    std::vector<std::unique_ptr<TrainView>> views;
    std::vector<std::unique_ptr<core::CacheManager>> cms;
    for (std::size_t i = 0; i < kAgents; ++i) {
      auto view = std::make_unique<TrainView>();
      core::CacheManager::Config cfg;
      cfg.view_name = "bench.Train";
      cfg.properties = view->properties();
      cfg.mode = core::Mode::kWeak;
      cfg.write_buffer_ops = wbuf;
      // All agents on hosts[0]: same node pair toward the directory,
      // the layout where send batching can actually coalesce.
      const net::Address addr{hosts[0],
                              static_cast<net::PortId>(i + 1)};
      cms.push_back(std::make_unique<core::CacheManager>(
          proto, addr, dir_addr, *view, std::move(cfg)));
      views.push_back(std::move(view));
    }
    for (auto& cm : cms) cm->init_image();
    sim.run();

    // Measure the steady-state train, not topology/agent setup.
    const std::uint64_t a0 =
        g_alloc_count.load(std::memory_order_relaxed);
    const std::uint64_t h0 = fabric.sent_count();
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < kAgents; ++i) {
        views[i]->increment(static_cast<std::int64_t>(
                                (round + static_cast<int>(i)) % kTrainCells),
                            1);
        cms[i]->start_use_image();
        cms[i]->end_use_image(/*modified=*/true);
        cms[i]->push_image();
      }
      if (round % 4 == 3) {
        for (auto& cm : cms) cm->pull_image();
      }
      sim.run();
    }
    for (auto& cm : cms) cm->kill_image();
    sim.run();
    allocs += g_alloc_count.load(std::memory_order_relaxed) - a0;
    hops += fabric.sent_count() - h0;
    ops += kAgents * (kRounds + kRounds / 4 + 1);  // pushes + pulls + kills
  }
  const auto per_op = static_cast<double>(ops);
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / per_op);
  state.counters["hops_per_op"] =
      benchmark::Counter(static_cast<double>(hops) / per_op);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
// Args: batch, write_buffer_ops. The first row is the unbatched,
// unbuffered baseline that bench_gate.py's improvement floors are
// measured against.
BENCHMARK(BM_ProtocolTrain)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({1, 4})
    ->ArgNames({"batch", "wbuf"})
    ->Unit(benchmark::kMillisecond);

void BM_ObjectImageWireSize(benchmark::State& state) {
  core::ObjectImage img;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    img.set_int("f." + std::to_string(i) + ".res", i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(img.wire_size());
  }
}
BENCHMARK(BM_ObjectImageWireSize)->Arg(16)->Arg(256);

}  // namespace
