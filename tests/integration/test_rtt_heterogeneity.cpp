// Heterogeneous-RTT scenarios: AIMD's known bias toward short-RTT flows,
// and reordering robustness — exercising the per-flow access-delay and
// reorder-injection features of the substrate.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "scenario.hpp"

namespace rrtcp::test {
namespace {

using app::Variant;

class RttBias : public ::testing::TestWithParam<Variant> {};

INSTANTIATE_TEST_SUITE_P(Variants, RttBias,
                         ::testing::ValuesIn(app::kAllVariants),
                         [](const auto& info) {
                           return app::to_string(info.param);
                         });

TEST_P(RttBias, ShortRttFlowGetsAtLeastItsShare) {
  // Flow 0: base RTT ~200 ms. Flow 1: +200 ms access delay (~600 ms RTT).
  // AIMD grows per-RTT, so the short-RTT flow must end up with at least
  // half the bandwidth — typically much more. Both must still progress.
  sim::Simulator sim;
  net::DumbbellConfig netcfg;
  netcfg.n_flows = 2;
  netcfg.make_bottleneck_queue = [](sim::Simulator&) {
    return std::make_unique<net::DropTailQueue>(20);
  };
  netcfg.side_delay_for = [](int i) -> std::optional<sim::Time> {
    if (i == 1) return sim::Time::milliseconds(200);
    return std::nullopt;
  };
  net::DumbbellTopology topo{sim, netcfg};

  std::vector<app::Flow> flows;
  std::vector<std::unique_ptr<app::FtpSource>> srcs;
  for (int i = 0; i < 2; ++i) {
    flows.push_back(app::make_flow(GetParam(), sim, topo.sender_node(i),
                                   topo.receiver_node(i), i + 1));
    srcs.push_back(std::make_unique<app::FtpSource>(
        sim, *flows.back().sender, sim::Time::zero(), std::nullopt));
  }
  sim.run_until(sim::Time::seconds(120));

  const double fast = static_cast<double>(flows[0].receiver->bytes_in_order());
  const double slow = static_cast<double>(flows[1].receiver->bytes_in_order());
  EXPECT_GE(fast, slow) << "short-RTT flow must not lose to the long one";
  EXPECT_GT(slow, 0.05 * fast) << "long-RTT flow must not starve";
}

class ReorderRobust : public ::testing::TestWithParam<Variant> {};

INSTANTIATE_TEST_SUITE_P(Variants, ReorderRobust,
                         ::testing::ValuesIn(app::kExtendedVariants),
                         [](const auto& info) {
                           return app::to_string(info.param);
                         });

TEST_P(ReorderRobust, DeliversEverythingUnderReordering) {
  sim::Simulator sim;
  net::DumbbellConfig netcfg;
  netcfg.n_flows = 1;
  netcfg.make_bottleneck_queue = [](sim::Simulator&) {
    return std::make_unique<net::DropTailQueue>(100);
  };
  net::DumbbellTopology topo{sim, netcfg};
  topo.bottleneck().set_reorder_model(std::make_unique<net::ReorderModel>(
      0.1, sim::Time::milliseconds(150), 5));

  auto flow = app::make_flow(GetParam(), sim, topo.sender_node(0),
                             topo.receiver_node(0), 1);
  app::FtpSource src{sim, *flow.sender, sim::Time::zero(), 100'000};
  sim.run_until(sim::Time::seconds(120));

  ASSERT_TRUE(flow.sender->complete());
  EXPECT_EQ(flow.receiver->bytes_in_order(), 100'000u);
  // No data was lost, so any retransmissions were spurious (reordering
  // mistaken for loss) — tolerated, but bounded.
  EXPECT_LT(flow.sender->stats().retransmissions, 40u);
  EXPECT_EQ(flow.sender->stats().timeouts, 0u);
}

TEST(RttBias, PerFlowDelayChangesPacketTiming) {
  sim::Simulator sim;
  net::DumbbellConfig netcfg;
  netcfg.n_flows = 2;
  netcfg.side_delay_for = [](int i) -> std::optional<sim::Time> {
    if (i == 1) return sim::Time::milliseconds(50);
    return std::nullopt;
  };
  net::DumbbellTopology topo{sim, netcfg};

  struct StampAgent final : net::Agent {
    sim::Simulator& sim;
    sim::Time arrived = sim::Time::zero();
    explicit StampAgent(sim::Simulator& s) : sim{s} {}
    void receive(net::Packet) override { arrived = sim.now(); }
  } a0{sim}, a1{sim};
  topo.receiver_node(0).attach_agent(10, &a0);
  topo.receiver_node(1).attach_agent(11, &a1);

  topo.sender_node(0).inject(test::make_data(10, 0, 1000,
                                             topo.sender_node(0).id(),
                                             topo.receiver_node(0).id()));
  topo.sender_node(1).inject(test::make_data(11, 0, 1000,
                                             topo.sender_node(1).id(),
                                             topo.receiver_node(1).id()));
  sim.run();
  // Flow 1's access link adds exactly 50 ms of one-way propagation.
  EXPECT_EQ(a1.arrived - a0.arrived, sim::Time::milliseconds(50));
}

}  // namespace
}  // namespace rrtcp::test
