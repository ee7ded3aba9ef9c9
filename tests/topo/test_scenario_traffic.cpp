// Scenario-level cross-traffic behavior: CBR load costs goodput but never
// breaks protocol invariants, reverse bulk flows congest the ACK path for
// real, and graph-mode (parking lot) scenarios stay deterministic and
// audit-clean.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/digest.hpp"
#include "harness/scenario.hpp"
#include "net/drop_tail.hpp"
#include "topo/presets.hpp"

namespace rrtcp {
namespace {

tcp::TcpConfig tuned_tcp() {
  tcp::TcpConfig tcfg;
  tcfg.max_window_pkts = 20;
  tcfg.init_ssthresh_pkts = 20;
  return tcfg;
}

harness::ScenarioSpec cbr_spec(double load) {
  harness::ScenarioSpec spec;
  spec.name = "cbr-test";
  spec.seed = 5;
  spec.horizon = sim::Time::seconds(10);
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.add_flow({.variant = app::Variant::kNewReno, .tcp = tuned_tcp()});
  if (load > 0) spec.add_cbr({.load_fraction = load});
  return spec;
}

double goodput_kbps(harness::Scenario& sc) {
  return sc.instruments(0).meter->throughput_bps(sim::Time::zero(),
                                                 sc.spec().horizon) /
         1e3;
}

TEST(ScenarioCbr, UnresponsiveLoadCostsGoodput) {
  harness::Scenario clean{cbr_spec(0.0)};
  harness::Scenario loaded{cbr_spec(0.5)};
  clean.run();
  loaded.run();

  EXPECT_EQ(clean.n_cbr(), 0);
  ASSERT_EQ(loaded.n_cbr(), 1);
  // The CBR stream claims real bottleneck share: it delivers bytes, and
  // the TCP flow keeps clearly less than its clean-path goodput.
  EXPECT_GT(loaded.cbr_sink(0).bytes_received(), 0u);
  EXPECT_LT(goodput_kbps(loaded), 0.8 * goodput_kbps(clean));
  // CBR claims at most its configured fraction (400 kbit/s here).
  EXPECT_LE(loaded.cbr(0).bytes_sent() * 8.0 / 10.0, 400'000.0 * 1.01);
}

TEST(ScenarioCbr, AuditStaysCleanUnderCbrLoad) {
  // kCbr packets are not "data" to the audit layer: bottleneck CBR drops
  // must not show up as TCP pipe-conservation violations.
  harness::Scenario sc{cbr_spec(0.5)};
  sc.run();
  EXPECT_GT(sc.topology().bottleneck().queue().stats().dropped, 0u);
  EXPECT_EQ(sc.instrumentation().audit_violations(), 0u);
}

TEST(ScenarioReverse, BulkFlowCongestsTheAckPath) {
  harness::ScenarioSpec spec;
  spec.name = "ackpath-test";
  spec.seed = 5;
  spec.horizon = sim::Time::seconds(10);
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.reverse_bottleneck = harness::QueueSpec::drop_tail(8);
  spec.add_flow({.variant = app::Variant::kNewReno, .tcp = tuned_tcp()});
  spec.add_flow({.variant = app::Variant::kNewReno, .tcp = tuned_tcp(),
                 .reverse = true});
  harness::Scenario sc{spec};
  sc.run();

  // The reverse bulk flow's DATA shares the 8-packet reverse buffer with
  // flow 0's ACKs: the queue drops for real, yet both flows make progress
  // and no protocol invariant breaks.
  EXPECT_GT(sc.topology().reverse_bottleneck().queue().stats().dropped, 0u);
  EXPECT_GT(sc.sender(0).snd_una(), 0u);
  EXPECT_GT(sc.sender(1).snd_una(), 0u);
  EXPECT_EQ(sc.instrumentation().audit_violations(), 0u);
}

TEST(ScenarioReverse, ReverseQueueSpecReplacesTheDeepDefault) {
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(1);
  spec.reverse_bottleneck = harness::QueueSpec::drop_tail(8);
  spec.add_flow({.variant = app::Variant::kNewReno});
  harness::Scenario sc{spec};
  auto* dt = dynamic_cast<net::DropTailQueue*>(
      &sc.topology().reverse_bottleneck().queue());
  ASSERT_NE(dt, nullptr);
  EXPECT_EQ(dt->capacity(), 8u);
  EXPECT_EQ(sc.reverse_red(), nullptr);
}

TEST(ScenarioReverse, RedReverseBottleneckIsExposed) {
  net::RedConfig rc;
  rc.mean_pkt_tx = sim::Time::transmission(1000, 800'000);
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(1);
  spec.reverse_bottleneck = harness::QueueSpec::red_queue(rc);
  spec.add_flow({.variant = app::Variant::kNewReno});
  harness::Scenario sc{spec};
  EXPECT_NE(sc.reverse_red(), nullptr);
  EXPECT_EQ(sc.red(), nullptr);  // forward bottleneck stayed drop-tail
}

harness::ScenarioSpec parking_lot_spec(std::uint64_t seed, int hops) {
  topo::ParkingLotConfig plc;
  plc.n_bottlenecks = hops;
  const topo::ParkingLotLayout lay = topo::parking_lot(plc);

  harness::ScenarioSpec spec;
  spec.name = "parkinglot-test";
  spec.seed = seed;
  spec.horizon = sim::Time::seconds(10);
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.graph = lay.spec;
  spec.audited_links.assign(lay.bottleneck_links.begin(),
                            lay.bottleneck_links.end());
  spec.add_flow({.variant = app::Variant::kRr, .tcp = tuned_tcp(),
                 .src_node = lay.long_src, .dst_node = lay.long_dst});
  for (int i = 0; i < hops; ++i)
    spec.add_cbr({.rate_bps = 200'000,
                  .src_node = lay.cross_src[static_cast<std::size_t>(i)],
                  .dst_node = lay.cross_dst[static_cast<std::size_t>(i)]});
  return spec;
}

TEST(ScenarioGraph, ParkingLotRunsAndStaysAuditClean) {
  harness::Scenario sc{parking_lot_spec(5, 3)};
  sc.run();

  EXPECT_EQ(sc.n_cbr(), 3);
  EXPECT_GT(sc.sender(0).snd_una(), 0u);
  for (int i = 0; i < sc.n_cbr(); ++i)
    EXPECT_GT(sc.cbr_sink(i).bytes_received(), 0u);
  EXPECT_EQ(sc.instrumentation().audit_violations(), 0u);
}

TEST(ScenarioGraph, ParkingLotIsDeterministic) {
  harness::Scenario a{parking_lot_spec(11, 2)};
  harness::Scenario b{parking_lot_spec(11, 2)};
  a.run();
  b.run();
  EXPECT_EQ(a.sender(0).stats().data_packets_sent,
            b.sender(0).stats().data_packets_sent);
  EXPECT_EQ(a.sender(0).stats().retransmissions,
            b.sender(0).stats().retransmissions);
  EXPECT_EQ(a.sender(0).snd_una(), b.sender(0).snd_una());
  for (int i = 0; i < a.n_cbr(); ++i)
    EXPECT_EQ(a.cbr_sink(i).packets_received(),
              b.cbr_sink(i).packets_received());
}

TEST(ScenarioGraph, TopologyAccessorAssertsOnGraphSpec) {
  harness::Scenario sc{parking_lot_spec(5, 2)};
  EXPECT_DEATH(sc.topology(), "dumbbell-mode");
}

// The dumbbell lowering pinned against a hand-written graph spec: forward
// and reverse bulk flows, forward and reverse load_fraction CBR, a RED
// bottleneck and a shallow reverse buffer.
constexpr std::uint64_t kLoweringSeed = 9;

harness::ScenarioSpec lowering_dumbbell() {
  harness::ScenarioSpec spec;
  spec.seed = kLoweringSeed;
  spec.horizon = sim::Time::seconds(8);
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.topology.reverse_bps = 400'000;
  net::RedConfig rc;
  rc.mean_pkt_tx = sim::Time::transmission(1000, 800'000);
  spec.bottleneck = harness::QueueSpec::red_queue(rc);
  spec.reverse_bottleneck = harness::QueueSpec::drop_tail(30);
  spec.add_flow({.variant = app::Variant::kNewReno, .tcp = tuned_tcp()});
  spec.add_flow({.variant = app::Variant::kRr,
                 .start = sim::Time::milliseconds(200),
                 .tcp = tuned_tcp(),
                 .reverse = true});
  spec.add_cbr({.load_fraction = 0.5});
  spec.add_cbr({.load_fraction = 0.2,
                .start = sim::Time::milliseconds(500),
                .reverse = true});
  return spec;
}

// The graph the dumbbell above should lower to, written out by hand.
harness::ScenarioSpec lowering_graph() {
  harness::ScenarioSpec spec = lowering_dumbbell();
  net::DumbbellConfig dc = spec.topology;
  dc.n_flows = 4;  // two TCP host pairs, then two CBR pairs
  dc.make_bottleneck_queue = [rc = spec.bottleneck.red](
                                 sim::Simulator& s) mutable {
    rc.seed = kLoweringSeed;
    return std::make_unique<net::RedQueue>(s, rc);
  };
  dc.make_reverse_queue = [](sim::Simulator&) {
    return std::make_unique<net::DropTailQueue>(30);
  };
  spec.graph = net::dumbbell_spec(dc);
  spec.audited_links = {0, 1};
  // Nodes: R1 0, R2 1, S1..S4 2..5, K1..K4 6..9.
  spec.flows[0].src_node = 2;  // S1 -> K1
  spec.flows[0].dst_node = 6;
  spec.flows[1].reverse = false;
  spec.flows[1].src_node = 7;  // K2 -> S2
  spec.flows[1].dst_node = 3;
  spec.cross_traffic[0] = {.rate_bps = 400'000, .src_node = 4, .dst_node = 8};
  spec.cross_traffic[1] = {.rate_bps = 80'000,  // 0.2 x the 400k ACK path
                           .start = sim::Time::milliseconds(500),
                           .src_node = 9,
                           .dst_node = 5};
  return spec;
}

// Everything the two builds must agree on: per-flow trace digests, each
// link's queue accounting, and the CBR deliveries.
std::vector<std::uint64_t> lowering_outcome(harness::ScenarioSpec spec) {
  // Declared before the scenario so the observers outlive its senders.
  std::vector<fuzz::TraceDigest> digests(spec.flows.size());
  std::vector<std::unique_ptr<fuzz::DigestObserver>> observers;
  harness::Scenario sc{std::move(spec)};
  for (int i = 0; i < sc.n_flows(); ++i) {
    observers.push_back(std::make_unique<fuzz::DigestObserver>(
        digests[static_cast<std::size_t>(i)], i));
    sc.sender(i).add_observer(observers.back().get());
  }
  sc.run();
  EXPECT_EQ(sc.instrumentation().audit_violations(), 0u);
  // The scenario exercises what it claims: both bottlenecks drop (RED on
  // the forward one, the 30-packet buffer on the reverse one), and both
  // CBR streams deliver.
  EXPECT_GT(sc.graph().link(0).queue().stats().dropped, 0u);
  EXPECT_GT(sc.graph().link(1).queue().stats().dropped, 0u);

  std::vector<std::uint64_t> out;
  for (const fuzz::TraceDigest& d : digests) out.push_back(d.value());
  for (int l = 0; l < sc.graph().n_links(); ++l) {
    const net::QueueStats& q = sc.graph().link(l).queue().stats();
    out.insert(out.end(), {q.enqueued, q.dequeued, q.dropped, q.bytes_dropped});
  }
  for (int j = 0; j < sc.n_cbr(); ++j) {
    EXPECT_GT(sc.cbr_sink(j).bytes_received(), 0u);
    out.push_back(sc.cbr_sink(j).bytes_received());
  }
  return out;
}

TEST(ScenarioLowering, DumbbellSpecMatchesHandWrittenGraph) {
  EXPECT_EQ(harness::Scenario::validate(lowering_dumbbell()), std::nullopt);
  EXPECT_EQ(harness::Scenario::validate(lowering_graph()), std::nullopt);
  EXPECT_EQ(lowering_outcome(lowering_dumbbell()),
            lowering_outcome(lowering_graph()));
}

}  // namespace
}  // namespace rrtcp
