// ThreadFabric — the Fabric contract over real threads.
//
// Every bound endpoint gets a mailbox drained by its own worker thread,
// so an endpoint's handlers are serialized (the Fabric contract) while
// different endpoints run genuinely concurrently. A send posts straight
// to the receiver's mailbox; a dedicated scheduler thread fires timers
// at their deadlines.
//
// The protocol classes (DirectoryManager, CacheManager, baselines) are
// written against net::Fabric only, so the exact same code that runs
// deterministically under SimFabric runs multi-threaded here.
// ThreadFabric exists to exercise true concurrency, not to model
// networks: latency, topology and flow control live in SimFabric, which
// is also the fabric for figure reproduction.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/fabric.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace flecc::rt {

class ThreadFabric : public net::Fabric {
 public:
  struct Config {
    /// Probability that any message is silently dropped (fault
    /// injection; exercises the reliability layer under real threads).
    double loss_probability = 0.0;
    /// Seed for the loss process. Note drop *decisions* are
    /// deterministic per draw, but thread interleaving makes the draw
    /// order — hence the run — nondeterministic; use SimFabric for
    /// bit-reproducible loss experiments.
    std::uint64_t loss_seed = 1;
  };

  explicit ThreadFabric(Config cfg);
  ThreadFabric() : ThreadFabric(Config{}) {}
  ~ThreadFabric() override;

  ThreadFabric(const ThreadFabric&) = delete;
  ThreadFabric& operator=(const ThreadFabric&) = delete;

  [[nodiscard]] sim::Time now() const override;
  void bind(const net::Address& addr, net::Endpoint& ep) override;
  void unbind(const net::Address& addr) override;
  void send(net::Address from, net::Address to, std::string type,
            std::any payload, std::size_t bytes) override;
  net::TimerId schedule(const net::Address& owner, sim::Duration delay,
                        std::function<void()> fn) override;
  bool cancel_timer(net::TimerId id) override;
  void set_clock(const net::Address& addr, obs::CausalClock* clock) override;

  /// Thread-safe internally; read totals only after quiescing (e.g.
  /// after drain()).
  [[nodiscard]] sim::CounterSet& counters() override { return counters_; }
  [[nodiscard]] const sim::CounterSet& counters() const override {
    return counters_;
  }

  /// Locked copy of the counters, safe to take mid-run from any thread
  /// (live telemetry samples through this; the references above are
  /// only stable after drain()).
  [[nodiscard]] sim::CounterSet counters_snapshot() const {
    std::lock_guard<std::mutex> lock(counters_mu_);
    return counters_;
  }

  /// Block until no messages or due timers are in flight and every
  /// mailbox is empty. Pending *future* timers do not count.
  void drain();

  /// Deepest any mailbox has ever been, counting queued messages. Also
  /// published as the flow.queue.peak counter; read after drain() for a
  /// stable value.
  [[nodiscard]] std::size_t peak_mailbox_depth() const noexcept {
    return peak_depth_.load(std::memory_order_relaxed);
  }

  /// Run `task` on the mailbox thread of the endpoint bound at `addr`,
  /// serialized with its handlers. This is how application threads must
  /// invoke endpoint APIs (e.g. CacheManager::start_use_image): protocol
  /// objects are not internally locked — their thread-safety comes from
  /// the per-endpoint mailbox. Dropped (with a counter) if unbound.
  void post(const net::Address& addr, std::function<void()> task) {
    inflight_.fetch_add(1);
    post_to(addr, std::move(task));
  }

 private:
  class Mailbox {
   public:
    /// `peak` is the fabric-wide high-water gauge this mailbox raises.
    Mailbox(net::Endpoint& ep, std::atomic<std::int64_t>& inflight,
            std::condition_variable& idle_cv, std::mutex& idle_mu,
            std::atomic<std::size_t>& peak);
    ~Mailbox();
    void post(std::function<void()> task);
    /// Enqueue a delivery and raise the peak. `clock` (nullable) is the
    /// receiver's causal clock, observed on the mailbox thread just
    /// before the handler.
    void post_message(std::shared_ptr<const net::Message> msg,
                      obs::CausalClock* clock);
    void stop();

   private:
    void loop();

    net::Endpoint& ep_;
    std::atomic<std::int64_t>& inflight_;
    std::condition_variable& idle_cv_;
    std::mutex& idle_mu_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::atomic<std::size_t>& peak_;
    std::thread thread_;
  };

  struct TimedTask {
    net::TimerId id;
    std::function<void()> fn;
  };

  void scheduler_loop();
  void post_to(const net::Address& addr, std::function<void()> task);
  /// Registered Lamport clock of `addr`, or nullptr. The registry is
  /// mutex-guarded (sends run on many threads); the clock itself is
  /// atomic, so tick/observe need no further locking.
  obs::CausalClock* clock_of(const net::Address& addr);
  std::shared_ptr<Mailbox> lookup(const net::Address& addr);
  void count(std::string_view name, std::uint64_t by = 1);
  void count_cat(std::string_view prefix, std::string_view suffix);
  void note_idle_if_done();

  Config cfg_;
  std::mutex loss_mu_;  // guards loss_rng_
  std::mutex clocks_mu_;  // guards clocks_ (not the clocks themselves)
  std::unordered_map<net::Address, obs::CausalClock*, net::AddressHash>
      clocks_;
  sim::Rng loss_rng_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex endpoints_mu_;
  std::unordered_map<net::Address, std::shared_ptr<Mailbox>,
                     net::AddressHash>
      endpoints_;

  std::mutex sched_mu_;
  std::condition_variable sched_cv_;
  std::multimap<std::chrono::steady_clock::time_point, TimedTask> timed_;
  net::TimerId next_timer_id_ = 1;
  bool stopping_ = false;
  std::thread scheduler_;

  // quiescence accounting: messages + due timer callbacks not yet run
  std::atomic<std::int64_t> inflight_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  mutable std::mutex counters_mu_;
  sim::CounterSet counters_;
  std::atomic<std::uint64_t> next_msg_id_{1};
  std::atomic<std::size_t> peak_depth_{0};
};

/// Run an async operation and block the calling thread until its
/// completion callback fires. For Figure-3-style linear application
/// code over ThreadFabric (never call from a mailbox thread).
template <typename Start>
void wait_for(Start&& start) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  start([&] {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

}  // namespace flecc::rt
