#include "timing_env.hpp"

#include <chrono>

#include "env/sim_env.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

void add_since(CallbackClock& c, Clock::time_point t0) {
  c.seconds += std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void TimingEnv::TimedAgent::receive(rrtcp::net::Packet p) {
  const auto t0 = Clock::now();
  inner_.receive(std::move(p));
  add_since(clock_, t0);
}

void TimingEnv::attach(rrtcp::net::FlowId flow, rrtcp::net::Agent* agent) {
  auto wrapped = std::make_unique<TimedAgent>(*agent, clock_);
  inner_.attach(flow, wrapped.get());
  agents_[flow] = std::move(wrapped);
}

void TimingEnv::detach(rrtcp::net::FlowId flow) {
  inner_.detach(flow);
  agents_.erase(flow);
}

rrtcp::env::Environment::TimerId TimingEnv::timer_create(
    std::function<void()> on_fire) {
  return inner_.timer_create(
      [fire = std::move(on_fire), &clock = clock_] {
        const auto t0 = Clock::now();
        fire();
        add_since(clock, t0);
      });
}

decltype(rrtcp::harness::ScenarioSpec::flow_maker) timed_flow_maker(
    CallbackClock& clock) {
  using namespace rrtcp;
  return [&clock](sim::Simulator& sim, net::Node& snd, net::Node& rcv,
                  net::FlowId id, const harness::FlowSpec& fs) {
    app::Flow f;
    f.snd_env = std::make_unique<TimingEnv>(
        std::make_unique<env::SimEnvironment>(sim, snd, rcv.id()), clock);
    f.rcv_env = std::make_unique<TimingEnv>(
        std::make_unique<env::SimEnvironment>(sim, rcv, snd.id()), clock);
    app::Flow ends =
        app::make_flow(fs.variant, *f.snd_env, *f.rcv_env, id, fs.tcp);
    f.sender = std::move(ends.sender);
    f.receiver = std::move(ends.receiver);
    return f;
  };
}

}  // namespace perfbench
