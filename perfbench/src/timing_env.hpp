// An env::Environment that forwards to another and times the TCP callbacks.
//
// Used by traced rounds only: a flow built on a TimingEnv has every packet
// delivery (the Agent it attaches is wrapped) and every timer expiry (the
// timer callback is wrapped) timed into a CallbackClock, so `tcp.callback_s`
// is the host time spent inside the TCP endpoints' own code — including
// whatever they call synchronously (link enqueue in the simulator,
// sendto(2) on a live socket). Nothing in src/ is instrumented.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "app/flow_factory.hpp"
#include "env/environment.hpp"
#include "harness/scenario.hpp"
#include "net/node.hpp"

namespace perfbench {

// Accumulates callback time. One clock per thread of work (a sweep job, a
// live endpoint); never shared between threads.
struct CallbackClock {
  double seconds = 0.0;
};

class TimingEnv final : public rrtcp::env::Environment {
 public:
  TimingEnv(std::unique_ptr<rrtcp::env::Environment> inner,
            CallbackClock& clock)
      : owned_{std::move(inner)}, inner_{*owned_}, clock_{clock} {}
  // Non-owning form, for an environment the caller keeps (live endpoints).
  TimingEnv(rrtcp::env::Environment& inner, CallbackClock& clock)
      : inner_{inner}, clock_{clock} {}

  rrtcp::sim::Time now() const override { return inner_.now(); }
  rrtcp::net::NodeId local_id() const override { return inner_.local_id(); }
  rrtcp::net::NodeId peer_id() const override { return inner_.peer_id(); }
  void attach(rrtcp::net::FlowId flow, rrtcp::net::Agent* agent) override;
  void detach(rrtcp::net::FlowId flow) override;
  void send(rrtcp::net::Packet p) override { inner_.send(std::move(p)); }
  TimerId timer_create(std::function<void()> on_fire) override;
  void timer_destroy(TimerId id) override { inner_.timer_destroy(id); }
  void timer_arm(TimerId id, rrtcp::sim::Time delay) override {
    inner_.timer_arm(id, delay);
  }
  void timer_cancel(TimerId id) override { inner_.timer_cancel(id); }
  bool timer_pending(TimerId id) const override {
    return inner_.timer_pending(id);
  }
  void vtrace(rrtcp::sim::LogLevel level, const char* component,
              const char* fmt, std::va_list args) override {
    inner_.vtrace(level, component, fmt, args);
  }

 private:
  // The agent attached in place of the endpoint's own: times receive().
  class TimedAgent final : public rrtcp::net::Agent {
   public:
    TimedAgent(rrtcp::net::Agent& inner, CallbackClock& clock)
        : inner_{inner}, clock_{clock} {}
    void receive(rrtcp::net::Packet p) override;

   private:
    rrtcp::net::Agent& inner_;
    CallbackClock& clock_;
  };

  std::unique_ptr<rrtcp::env::Environment> owned_;
  rrtcp::env::Environment& inner_;
  CallbackClock& clock_;
  std::unordered_map<rrtcp::net::FlowId, std::unique_ptr<TimedAgent>> agents_;
};

// A ScenarioSpec::flow_maker that builds the standard endpoints on
// TimingEnvs over the simulator, timing every TCP callback into `clock`.
decltype(rrtcp::harness::ScenarioSpec::flow_maker) timed_flow_maker(
    CallbackClock& clock);

}  // namespace perfbench
