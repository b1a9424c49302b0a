#include "span.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>

// ---- allocation accounting --------------------------------------------------
//
// Replaced global operator new: every allocation outside a Quiet section
// ticks the process-wide counter (allocs_per_op) and the calling
// thread's counter (per-span self allocations).

namespace {
std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;
thread_local int t_quiet = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (t_quiet == 0) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    ++t_allocs;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n ? n : 1);
  } else if (posix_memalign(&p, align, n ? n : 1) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

// The replaced operators pair malloc/posix_memalign with free; GCC
// inlines them into callers and flags the new/free mix as a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
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

namespace flecc::e2e {

const std::array<KindInfo, kKinds> kKindInfo = {{
    {"sim.run", "sim"},
    {"net.send", "net"},
    {"net.wire", "net"},
    {"net.sched", "net"},
    {"net.flush", "net"},
    {"net.deliver", "net"},
    {"dm.handle", "core.dm"},
    {"dm.timer", "core.dm"},
    {"cm.handle", "core.cm"},
    {"cm.timer", "core.cm"},
    {"cm.api", "core.cm"},
    {"wal.dm.append", "core.wal"},
    {"wal.cm.append", "core.wal"},
    {"wal.flush", "core.wal"},
    {"wal.compact", "core.wal"},
    {"wal.other", "core.wal"},
    {"primary.extract", "airline"},
    {"primary.merge", "airline"},
    {"primary.other", "airline"},
    {"view.extract", "airline"},
    {"view.merge", "airline"},
    {"view.peek", "airline"},
    {"view.other", "airline"},
    {"bench.step", "bench"},
}};

Totals& Totals::operator+=(const Totals& o) {
  for (std::size_t i = 0; i < kKinds; ++i) {
    calls[i] += o.calls[i];
    total_ns[i] += o.total_ns[i];
    self_ns[i] += o.self_ns[i];
    self_allocs[i] += o.self_allocs[i];
  }
  return *this;
}

namespace {

using Clock = std::chrono::steady_clock;

struct Frame {
  Kind kind;
  std::uint32_t id;
  std::uint32_t parent;
  std::int64_t start_ns;
  std::int64_t child_ns;
  std::uint64_t start_allocs;
  std::uint64_t child_allocs;
};

struct SpanRecord {
  std::uint32_t id;
  std::uint32_t parent;
  Kind kind;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::int64_t self_ns;
  std::uint64_t self_allocs;
};

/// One traced thread's state. Owned by the registry (not thread_local
/// storage) so mailbox threads that exit leave their totals behind.
struct ThreadState {
  std::uint32_t tid = 0;
  std::uint32_t next_id = 1;
  Totals totals;
  std::vector<Frame> stack;
  std::vector<SpanRecord> log;
};

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_logging{false};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadState>> g_registry;
std::vector<OpRecord> g_ops;  // guarded by g_registry_mu

thread_local ThreadState* t_state = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

ThreadState& state() {
  if (t_state == nullptr) {
    Quiet quiet;
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadState>());
    t_state = g_registry.back().get();
    t_state->tid = static_cast<std::uint32_t>(g_registry.size());
    t_state->stack.reserve(64);
  }
  return *t_state;
}

}  // namespace

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

void set_logging(bool on) { g_logging.store(on, std::memory_order_relaxed); }

Totals collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  Totals sum;
  for (auto& ts : g_registry) {
    sum += ts->totals;
    ts->totals = Totals{};
  }
  return sum;
}

void log_op(const OpRecord& op) {
  if (!g_logging.load(std::memory_order_relaxed)) return;
  Quiet quiet;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  g_ops.push_back(op);
}

bool write_spans(const std::string& path) {
  Quiet quiet;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"span_fields\": [\"tid\", \"id\", \"parent\", \"kind\", "
               "\"start_ns\", \"dur_ns\", \"self_ns\", \"self_allocs\"], "
               "\"kinds\": [");
  for (std::size_t i = 0; i < kKinds; ++i) {
    std::fprintf(f, "%s[\"%s\", \"%s\"]", i == 0 ? "" : ", ",
                 kKindInfo[i].name, kKindInfo[i].layer);
  }
  std::fprintf(f, "]}\n");
  for (auto& ts : g_registry) {
    for (const SpanRecord& r : ts->log) {
      std::fprintf(f, "[%u, %u, %u, %u, %lld, %lld, %lld, %llu]\n", ts->tid,
                   r.id, r.parent, static_cast<unsigned>(r.kind),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.dur_ns),
                   static_cast<long long>(r.self_ns),
                   static_cast<unsigned long long>(r.self_allocs));
    }
    ts->log.clear();
    ts->log.shrink_to_fit();
  }
  for (const OpRecord& op : g_ops) {
    std::fprintf(f,
                 "{\"op\": %llu, \"view\": %zu, \"kind\": \"%s\", "
                 "\"start_us\": %lld, \"end_us\": %lld}\n",
                 static_cast<unsigned long long>(op.index), op.view, op.kind,
                 static_cast<long long>(op.start_us),
                 static_cast<long long>(op.end_us));
  }
  g_ops.clear();
  g_ops.shrink_to_fit();
  return std::fclose(f) == 0;
}

Scope::Scope(Kind k) : on_(g_tracing.load(std::memory_order_relaxed)) {
  if (!on_) return;
  ThreadState& s = state();
  const std::uint32_t parent = s.stack.empty() ? 0 : s.stack.back().id;
  {
    Quiet quiet;  // growth past the reserved depth is bookkeeping
    s.stack.push_back(Frame{k, s.next_id++, parent, 0, 0, 0, 0});
  }
  Frame& f = s.stack.back();
  f.start_allocs = t_allocs;
  f.start_ns = now_ns();
}

Scope::~Scope() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  const std::uint64_t end_allocs = t_allocs;
  ThreadState& s = *t_state;
  const Frame f = s.stack.back();
  s.stack.pop_back();
  const std::int64_t dur = end - f.start_ns;
  const std::int64_t self = dur - f.child_ns;
  const std::uint64_t all = end_allocs - f.start_allocs;
  const std::uint64_t self_allocs = all - f.child_allocs;
  const auto i = static_cast<std::size_t>(f.kind);
  ++s.totals.calls[i];
  s.totals.total_ns[i] += static_cast<std::uint64_t>(dur);
  s.totals.self_ns[i] += static_cast<std::uint64_t>(self);
  s.totals.self_allocs[i] += self_allocs;
  if (!s.stack.empty()) {
    s.stack.back().child_ns += dur;
    s.stack.back().child_allocs += all;
  }
  if (g_logging.load(std::memory_order_relaxed)) {
    Quiet quiet;
    s.log.push_back(
        SpanRecord{f.id, f.parent, f.kind, f.start_ns, dur, self, self_allocs});
  }
}

Quiet::Quiet() { ++t_quiet; }
Quiet::~Quiet() { --t_quiet; }

}  // namespace flecc::e2e
