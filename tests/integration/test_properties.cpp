// Property-style parameterized sweeps: for every (variant, loss-rate, seed)
// combination, run a full transfer through the simulated network and check
// the invariants that must hold regardless of congestion-control details.
#include <gtest/gtest.h>

#include <tuple>

#include "scenario.hpp"

namespace rrtcp::test {
namespace {

using app::Variant;

using SweepParam = std::tuple<Variant, double /*loss*/, std::uint64_t /*seed*/>;

class LossSweep : public ::testing::TestWithParam<SweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, LossSweep,
    ::testing::Combine(::testing::ValuesIn(app::kExtendedVariants),
                       ::testing::Values(0.005, 0.02, 0.08),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      char buf[64];
      std::snprintf(
          buf, sizeof buf, "%s_p%d_s%llu",
          app::to_string(std::get<0>(info.param)),
          static_cast<int>(std::get<1>(info.param) * 1000),
          static_cast<unsigned long long>(std::get<2>(info.param)));
      return std::string(buf);
    });

TEST_P(LossSweep, ReliableInOrderDeliveryUnderRandomLoss) {
  const auto& [variant, rate, seed] = GetParam();
  ScenarioConfig cfg;
  cfg.variant = variant;
  cfg.bytes = 100'000;
  cfg.buffer_packets = 50;
  cfg.horizon = sim::Time::seconds(1200);  // generous: high loss is slow
  cfg.make_loss = [rate_ = rate, seed_ = seed] {
    return std::make_unique<net::UniformLossModel>(rate_, seed_);
  };
  auto r = run_scenario(cfg);
  ASSERT_TRUE(r.flows[0].complete)
      << "transfer did not finish within the horizon";
  // Exactness: every byte delivered in order, none invented.
  EXPECT_EQ(r.flows[0].rcv_bytes, 100'000u);
  // Conservation: 100 first transmissions, and at least one retransmission
  // per loss-model drop of this flow's data.
  EXPECT_EQ(r.flows[0].stats.data_packets_sent, 100u);
  EXPECT_GE(r.flows[0].stats.retransmissions + r.flows[0].stats.timeouts,
            r.loss_model_drops > 0 ? 1u : 0u);
}

// Network-level invariants sampled while a transfer runs.
class QueueInvariants : public ::testing::TestWithParam<Variant> {};

INSTANTIATE_TEST_SUITE_P(Variants, QueueInvariants,
                         ::testing::ValuesIn(app::kExtendedVariants),
                         [](const auto& info) {
                           return app::to_string(info.param);
                         });

TEST_P(QueueInvariants, OccupancyBoundedAndFlightCapped) {
  sim::Simulator sim;
  net::DumbbellConfig netcfg;
  netcfg.n_flows = 2;
  netcfg.make_bottleneck_queue = [](sim::Simulator&) {
    return std::make_unique<net::DropTailQueue>(8);
  };
  net::DumbbellTopology topo{sim, netcfg};

  tcp::TcpConfig tcfg;
  std::vector<app::Flow> flows;
  std::vector<std::unique_ptr<app::FtpSource>> srcs;
  for (int i = 0; i < 2; ++i) {
    flows.push_back(app::make_flow(GetParam(), sim, topo.sender_node(i),
                                   topo.receiver_node(i), i + 1, tcfg));
    srcs.push_back(std::make_unique<app::FtpSource>(
        sim, *flows.back().sender, sim::Time::zero(), std::nullopt));
  }

  // Sample invariants every 10 ms of simulated time.
  bool violated = false;
  std::function<void()> probe = [&] {
    if (topo.bottleneck().queue().len_packets() > 8) violated = true;
    for (auto& f : flows) {
      if (f.sender->flight_bytes() >
          tcfg.max_window_pkts * static_cast<std::uint64_t>(tcfg.mss))
        violated = true;
      if (f.sender->snd_una() > f.sender->snd_nxt()) violated = true;
    }
    if (sim.now() < sim::Time::seconds(30))
      sim.schedule_in(sim::Time::milliseconds(10), probe);
  };
  sim.schedule_at(sim::Time::zero(), probe);
  sim.run_until(sim::Time::seconds(30));
  EXPECT_FALSE(violated);
  // Both flows made progress.
  for (auto& f : flows) EXPECT_GT(f.receiver->bytes_in_order(), 100'000u);
}

TEST_P(QueueInvariants, CumulativeAckMonotone) {
  sim::Simulator sim;
  net::DumbbellConfig netcfg;
  netcfg.n_flows = 1;
  net::DumbbellTopology topo{sim, netcfg};
  auto flow = app::make_flow(GetParam(), sim, topo.sender_node(0),
                             topo.receiver_node(0), 1);

  struct Monotone : tcp::SenderObserver {
    std::uint64_t last = 0;
    bool ok = true;
    void on_ack(sim::Time, std::uint64_t ack, bool dup) override {
      if (!dup) {
        if (ack < last) ok = false;
        last = ack;
      }
    }
  } mono;
  flow.sender->add_observer(&mono);
  app::FtpSource src{sim, *flow.sender, sim::Time::zero(), std::nullopt};
  sim.run_until(sim::Time::seconds(20));
  EXPECT_TRUE(mono.ok);
}

// Two same-variant flows with equal RTTs should converge to a reasonable
// bandwidth split (AIMD fairness); RR claims to preserve this.
class Fairness : public ::testing::TestWithParam<Variant> {};

INSTANTIATE_TEST_SUITE_P(Variants, Fairness,
                         ::testing::ValuesIn(app::kAllVariants),
                         [](const auto& info) {
                           return app::to_string(info.param);
                         });

TEST_P(Fairness, TwoFlowsShareWithinFactorOfThree) {
  sim::Simulator sim;
  net::DumbbellConfig netcfg;
  netcfg.n_flows = 2;
  netcfg.make_bottleneck_queue = [](sim::Simulator&) {
    return std::make_unique<net::DropTailQueue>(20);
  };
  net::DumbbellTopology topo{sim, netcfg};
  std::vector<app::Flow> flows;
  std::vector<std::unique_ptr<app::FtpSource>> srcs;
  for (int i = 0; i < 2; ++i) {
    flows.push_back(app::make_flow(GetParam(), sim, topo.sender_node(i),
                                   topo.receiver_node(i), i + 1));
    srcs.push_back(std::make_unique<app::FtpSource>(
        sim, *flows.back().sender, sim::Time::milliseconds(100) * i,
        std::nullopt));
  }
  sim.run_until(sim::Time::seconds(120));
  const double a = static_cast<double>(flows[0].receiver->bytes_in_order());
  const double b = static_cast<double>(flows[1].receiver->bytes_in_order());
  EXPECT_GT(a, 0);
  EXPECT_GT(b, 0);
  const double ratio = a > b ? a / b : b / a;
  EXPECT_LT(ratio, 3.0) << "a=" << a << " b=" << b;
  // And together they should use most of the 0.8 Mbps pipe over 120 s.
  EXPECT_GT(a + b, 0.7 * (800'000.0 / 8) * 120);
}

}  // namespace
}  // namespace rrtcp::test
