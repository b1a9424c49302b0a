// Decorators the traced run stacks over the library's public interfaces.
//
// Each forwards every virtual method of the interface it wraps and opens
// a Scope (span.hpp) around the calls that do work, so the per-layer
// split is measured from outside src/. run.py's selftest checks that
// every virtual of net::Fabric, PrimaryAdapter, ViewAdapter and
// DurabilityStore is overridden here, and that a traced run's exact
// counters equal the untraced run's.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/adapters.hpp"
#include "core/durability.hpp"
#include "net/batch_fabric.hpp"
#include "net/fabric.hpp"
#include "span.hpp"

namespace flecc::e2e {

/// Times an endpoint's handler under `kind`.
class TimedEndpoint final : public net::Endpoint {
 public:
  TimedEndpoint(net::Endpoint& inner, Kind kind) : inner_(inner), kind_(kind) {}
  void on_message(const net::Message& m) override {
    Scope span(kind_);
    inner_.on_message(m);
  }

 private:
  net::Endpoint& inner_;
  Kind kind_;
};

/// A Fabric decorator in one of two positions:
///   * protocol (`dm` set): directly under the DirectoryManager and the
///     CacheManagers. Sends are net.send; endpoints and timers are
///     charged to core.dm when owned by `dm`, else to core.cm.
///   * wire (`dm` empty): between a BatchFabric and its SimFabric. Sends
///     are net.wire hops, timers are BatchFabric flushes, and only the
///     batch terminals (net::kBatchPort) get a net.deliver proxy; the
///     pass-through endpoints are already proxied above.
class TimedFabric final : public net::Fabric {
 public:
  TimedFabric(net::Fabric& inner, std::optional<net::Address> dm)
      : inner_(inner), dm_(dm) {}

  [[nodiscard]] sim::Time now() const override { return inner_.now(); }

  void bind(const net::Address& addr, net::Endpoint& ep) override {
    std::optional<Kind> kind;
    if (dm_.has_value()) {
      kind = addr == *dm_ ? Kind::kDmHandle : Kind::kCmHandle;
    } else if (addr.port == net::kBatchPort) {
      kind = Kind::kNetDeliver;
    }
    if (!kind.has_value()) {
      inner_.bind(addr, ep);
      return;
    }
    TimedEndpoint* proxy = nullptr;
    {
      Quiet quiet;
      std::lock_guard<std::mutex> lock(mu_);
      // Proxies live as long as the fabric: an endpoint may unbind
      // itself from inside its own handler.
      proxies_.push_back(std::make_unique<TimedEndpoint>(ep, *kind));
      proxy = proxies_.back().get();
    }
    inner_.bind(addr, *proxy);
  }

  void unbind(const net::Address& addr) override { inner_.unbind(addr); }

  void send(net::Address from, net::Address to, std::string type,
            std::any payload, std::size_t bytes) override {
    Scope span(dm_.has_value() ? Kind::kNetSend : Kind::kNetWire);
    inner_.send(from, to, std::move(type), std::move(payload), bytes);
  }

  net::TimerId schedule(const net::Address& owner, sim::Duration delay,
                        std::function<void()> fn) override {
    auto timed = wrap(owner, std::move(fn));
    Scope span(Kind::kNetSched);
    return inner_.schedule(owner, delay, std::move(timed));
  }

  net::TimerId schedule_daemon(const net::Address& owner, sim::Duration delay,
                               std::function<void()> fn) override {
    auto timed = wrap(owner, std::move(fn));
    Scope span(Kind::kNetSched);
    return inner_.schedule_daemon(owner, delay, std::move(timed));
  }

  bool cancel_timer(net::TimerId id) override {
    Scope span(Kind::kNetSched);
    return inner_.cancel_timer(id);
  }

  void set_clock(const net::Address& addr, obs::CausalClock* clock) override {
    inner_.set_clock(addr, clock);
  }

  [[nodiscard]] sim::CounterSet& counters() override {
    return inner_.counters();
  }
  [[nodiscard]] const sim::CounterSet& counters() const override {
    return inner_.counters();
  }

 private:
  std::function<void()> wrap(const net::Address& owner,
                             std::function<void()> fn) const {
    Kind kind = Kind::kNetFlush;
    if (dm_.has_value()) {
      kind = owner == *dm_ ? Kind::kDmTimer : Kind::kCmTimer;
    }
    Quiet quiet;
    return [fn = std::move(fn), kind] {
      Scope span(kind);
      fn();
    };
  }

  net::Fabric& inner_;
  std::optional<net::Address> dm_;
  std::mutex mu_;  // guards proxies_
  std::vector<std::unique_ptr<TimedEndpoint>> proxies_;
};

/// Times the primary copy's extract/merge hooks.
class TimedPrimary final : public core::PrimaryAdapter {
 public:
  explicit TimedPrimary(core::PrimaryAdapter& inner) : inner_(inner) {}

  [[nodiscard]] core::ObjectImage extract_from_object(
      const props::PropertySet& vpl) const override {
    Scope span(Kind::kPrimaryExtract);
    return inner_.extract_from_object(vpl);
  }
  void merge_into_object(const core::ObjectImage& image,
                         const props::PropertySet& vpl) override {
    Scope span(Kind::kPrimaryMerge);
    inner_.merge_into_object(image, vpl);
  }
  [[nodiscard]] const trigger::Env* variables() const override {
    Scope span(Kind::kPrimaryOther);
    return inner_.variables();
  }
  [[nodiscard]] props::PropertySet data_properties() const override {
    Scope span(Kind::kPrimaryOther);
    return inner_.data_properties();
  }

 private:
  core::PrimaryAdapter& inner_;
};

/// Times a view's extract/merge hooks.
class TimedView final : public core::ViewAdapter {
 public:
  explicit TimedView(core::ViewAdapter& inner) : inner_(inner) {}

  [[nodiscard]] core::ObjectImage extract_from_view(
      const props::PropertySet& vpl) override {
    Scope span(Kind::kViewExtract);
    return inner_.extract_from_view(vpl);
  }
  void merge_into_view(const core::ObjectImage& image,
                       const props::PropertySet& vpl) override {
    Scope span(Kind::kViewMerge);
    inner_.merge_into_view(image, vpl);
  }
  [[nodiscard]] core::ObjectImage peek_from_view(
      const props::PropertySet& vpl) const override {
    Scope span(Kind::kViewPeek);
    return inner_.peek_from_view(vpl);
  }
  [[nodiscard]] const trigger::Env& variables() const override {
    Scope span(Kind::kViewOther);
    return inner_.variables();
  }

 private:
  core::ViewAdapter& inner_;
};

/// Times a write-ahead log; `dm` tells the directory's WAL from a cache
/// manager's journal.
class TimedStore final : public core::DurabilityStore {
 public:
  TimedStore(core::DurabilityStore& inner, bool dm) : inner_(inner), dm_(dm) {}

  void append(const core::WalRecord& rec) override {
    Scope span(dm_ ? Kind::kWalDmAppend : Kind::kWalCmAppend);
    inner_.append(rec);
  }
  void flush() override {
    Scope span(Kind::kWalFlush);
    inner_.flush();
  }
  [[nodiscard]] std::vector<core::WalRecord> load() override {
    Scope span(Kind::kWalOther);
    return inner_.load();
  }
  void compact(const std::vector<core::WalRecord>& snapshot) override {
    Scope span(Kind::kWalCompact);
    inner_.compact(snapshot);
  }
  void set_generation(std::uint64_t gen) override {
    Scope span(Kind::kWalOther);
    inner_.set_generation(gen);
  }
  [[nodiscard]] std::uint64_t generation() const override {
    Scope span(Kind::kWalOther);
    return inner_.generation();
  }
  [[nodiscard]] std::size_t entry_count() const override {
    Scope span(Kind::kWalOther);
    return inner_.entry_count();
  }

 private:
  core::DurabilityStore& inner_;
  bool dm_;
};

}  // namespace flecc::e2e
