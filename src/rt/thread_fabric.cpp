#include "rt/thread_fabric.hpp"

#include <utility>

namespace flecc::rt {

using Clock = std::chrono::steady_clock;

// ---- Mailbox ---------------------------------------------------------------

ThreadFabric::Mailbox::Mailbox(net::Endpoint& ep,
                               std::atomic<std::int64_t>& inflight,
                               std::condition_variable& idle_cv,
                               std::mutex& idle_mu,
                               std::atomic<std::size_t>& peak)
    : ep_(ep),
      inflight_(inflight),
      idle_cv_(idle_cv),
      idle_mu_(idle_mu),
      peak_(peak) {
  thread_ = std::thread([this] { loop(); });
}

ThreadFabric::Mailbox::~Mailbox() { stop(); }

void ThreadFabric::Mailbox::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadFabric::Mailbox::post_message(
    std::shared_ptr<const net::Message> msg, obs::CausalClock* clock) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;  // swallowed, like post() on teardown
    const std::size_t depth = queue_.size() + 1;
    std::size_t cur = peak_.load(std::memory_order_relaxed);
    while (depth > cur && !peak_.compare_exchange_weak(
                              cur, depth, std::memory_order_relaxed)) {
    }
    // The receiver clock is observed on the mailbox thread right before
    // the handler runs, so handler trace emissions always see a clock
    // past the sender's stamp.
    queue_.push_back([this, msg = std::move(msg), clock] {
      if (clock != nullptr) clock->observe(msg->clock);
      ep_.on_message(*msg);
    });
  }
  cv_.notify_one();
}

void ThreadFabric::Mailbox::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) {
    if (thread_.get_id() == std::this_thread::get_id()) {
      thread_.detach();  // endpoint tore itself down from a handler
    } else {
      thread_.join();
    }
  }
}

void ThreadFabric::Mailbox::loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // drop queued tasks on teardown
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    if (inflight_.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(idle_mu_);
      idle_cv_.notify_all();
    }
  }
}

// ---- ThreadFabric ------------------------------------------------------------

ThreadFabric::ThreadFabric(Config cfg)
    : cfg_(cfg), loss_rng_(cfg.loss_seed), epoch_(Clock::now()) {
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

ThreadFabric::~ThreadFabric() {
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    stopping_ = true;
  }
  sched_cv_.notify_one();
  if (scheduler_.joinable()) scheduler_.join();
  std::lock_guard<std::mutex> lock(endpoints_mu_);
  for (auto& [addr, mb] : endpoints_) {
    (void)addr;
    mb->stop();
  }
  endpoints_.clear();
}

sim::Time ThreadFabric::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

void ThreadFabric::bind(const net::Address& addr, net::Endpoint& ep) {
  std::lock_guard<std::mutex> lock(endpoints_mu_);
  auto [it, inserted] = endpoints_.emplace(
      addr, std::make_shared<Mailbox>(ep, inflight_, idle_cv_, idle_mu_,
                                      peak_depth_));
  (void)it;
  if (!inserted) {
    throw std::logic_error("ThreadFabric::bind: address already bound: " +
                           addr.to_string());
  }
}

void ThreadFabric::unbind(const net::Address& addr) {
  std::shared_ptr<Mailbox> mb;
  {
    std::lock_guard<std::mutex> lock(endpoints_mu_);
    auto it = endpoints_.find(addr);
    if (it == endpoints_.end()) return;
    mb = std::move(it->second);
    endpoints_.erase(it);
  }
  mb->stop();
}

std::shared_ptr<ThreadFabric::Mailbox> ThreadFabric::lookup(
    const net::Address& addr) {
  std::lock_guard<std::mutex> lock(endpoints_mu_);
  auto it = endpoints_.find(addr);
  return it == endpoints_.end() ? nullptr : it->second;
}

void ThreadFabric::count(std::string_view name, std::uint64_t by) {
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.inc(name, by);
}

void ThreadFabric::count_cat(std::string_view prefix,
                             std::string_view suffix) {
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.inc_cat(prefix, suffix);
}

void ThreadFabric::set_clock(const net::Address& addr,
                             obs::CausalClock* clock) {
  std::lock_guard<std::mutex> lock(clocks_mu_);
  if (clock == nullptr) {
    clocks_.erase(addr);
  } else {
    clocks_[addr] = clock;
  }
}

obs::CausalClock* ThreadFabric::clock_of(const net::Address& addr) {
  std::lock_guard<std::mutex> lock(clocks_mu_);
  auto it = clocks_.find(addr);
  return it == clocks_.end() ? nullptr : it->second;
}

void ThreadFabric::note_idle_if_done() {
  if (inflight_.fetch_sub(1) == 1) {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_cv_.notify_all();
  }
}

void ThreadFabric::post_to(const net::Address& addr,
                           std::function<void()> task) {
  auto mb = lookup(addr);
  if (!mb) {
    count("task.dropped.unbound");
    note_idle_if_done();
    return;
  }
  mb->post(std::move(task));
}

void ThreadFabric::send(net::Address from, net::Address to, std::string type,
                        std::any payload, std::size_t bytes) {
  count_cat("msg.sent.", type);
  count("msg.sent");
  count("bytes.sent", bytes);

  if (cfg_.loss_probability > 0.0) {
    bool drop;
    {
      std::lock_guard<std::mutex> lock(loss_mu_);
      drop = loss_rng_.chance(cfg_.loss_probability);
    }
    if (drop) {
      count("msg.dropped.loss");
      return;
    }
  }

  auto message = std::make_shared<net::Message>();
  message->id = next_msg_id_.fetch_add(1);
  message->from = from;
  message->to = to;
  message->type = std::move(type);
  message->payload = std::move(payload);
  message->bytes = bytes;
  if (obs::CausalClock* c = clock_of(from)) message->clock = c->tick();

  auto mb = lookup(to);
  if (!mb) {
    count("msg.dropped.unbound");
    return;
  }
  count_cat("msg.delivered.", message->type);
  count("msg.delivered");
  inflight_.fetch_add(1);
  mb->post_message(std::move(message), clock_of(to));
}

net::TimerId ThreadFabric::schedule(const net::Address& owner,
                                    sim::Duration delay,
                                    std::function<void()> fn) {
  const auto due = Clock::now() + std::chrono::microseconds(delay);
  net::TimerId id;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    id = next_timer_id_++;
    timed_.emplace(due, TimedTask{id, [this, owner, fn = std::move(fn)] {
                                    inflight_.fetch_add(1);
                                    post_to(owner, fn);
                                  }});
  }
  sched_cv_.notify_one();
  return id;
}

bool ThreadFabric::cancel_timer(net::TimerId id) {
  if (id == net::kInvalidTimerId) return false;
  std::lock_guard<std::mutex> lock(sched_mu_);
  for (auto it = timed_.begin(); it != timed_.end(); ++it) {
    if (it->second.id == id) {
      timed_.erase(it);
      return true;
    }
  }
  return false;
}

void ThreadFabric::scheduler_loop() {
  std::unique_lock<std::mutex> lock(sched_mu_);
  for (;;) {
    if (stopping_) return;
    if (timed_.empty()) {
      sched_cv_.wait(lock, [this] { return stopping_ || !timed_.empty(); });
      continue;
    }
    const auto due = timed_.begin()->first;
    if (Clock::now() < due) {
      sched_cv_.wait_until(lock, due);
      continue;
    }
    TimedTask task = std::move(timed_.begin()->second);
    timed_.erase(timed_.begin());
    lock.unlock();
    task.fn();
    lock.lock();
  }
}

void ThreadFabric::drain() {
  {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] { return inflight_.load() == 0; });
  }
  // Publish the mailbox high-water mark now that the fabric is quiet.
  const std::size_t peak = peak_depth_.load(std::memory_order_relaxed);
  if (peak > 0) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.set_max("flow.queue.peak", peak);
  }
}

}  // namespace flecc::rt
