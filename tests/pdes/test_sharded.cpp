// The sharded conservative-PDES engine, end to end.
//
// The headline pin lives here: one ScenarioSpec run at shard counts
// {1, 2, 4, 8} must produce IDENTICAL per-flow trace digests, where the
// shard_count = 1 leg is harness::Scenario's plain single-threaded run —
// i.e. sharding is invisible in every flow's trace. (The tests keep the
// suite name ShardedScenario, the old name of the sharded runner.)
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fuzz/digest.hpp"
#include "harness/scenario.hpp"
#include "sim/simulator.hpp"
#include "topo/presets.hpp"

namespace rrtcp::pdes {
namespace {

using harness::Scenario;
using sim::Time;

TEST(RunBefore, FiresStrictlyBeforeDeadlineAndAdvancesClock) {
  sim::Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(Time::milliseconds(1), [&] { fired.push_back(1); });
  sim.schedule_at(Time::milliseconds(2), [&] { fired.push_back(2); });
  sim.schedule_at(Time::milliseconds(3), [&] { fired.push_back(3); });

  // Half-open window [0, 2ms): the event AT 2 ms must stay pending.
  EXPECT_EQ(sim.run_before(Time::milliseconds(2)), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), Time::milliseconds(2));

  // The boundary event fires in the next (inclusive) window.
  EXPECT_EQ(sim.run_until(Time::milliseconds(3)), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(RunBefore, EmptyWindowStillAdvancesClock) {
  sim::Simulator sim;
  EXPECT_EQ(sim.run_before(Time::milliseconds(5)), 0u);
  EXPECT_EQ(sim.now(), Time::milliseconds(5));
  // schedule_at at exactly now() is legal — merged cross-shard arrivals
  // can land on the boundary the clock just advanced to.
  bool ran = false;
  sim.schedule_at(Time::milliseconds(5), [&] { ran = true; });
  sim.run_until(Time::milliseconds(5));
  EXPECT_TRUE(ran);
}

TEST(FlowSet, ExpansionMaterializesStartsAndNodes) {
  harness::ScenarioSpec spec;
  harness::FlowSet set;
  set.count = 3;
  set.proto.start = Time::milliseconds(10);
  set.proto.src_node = 2;
  set.proto.dst_node = 7;
  set.stagger = Time::milliseconds(100);
  set.src_step = 1;
  set.dst_step = 2;
  spec.add_flow_set(set);
  spec.expand_flow_sets();
  ASSERT_EQ(spec.flows.size(), 3u);
  EXPECT_TRUE(spec.flow_sets.empty());
  for (int i = 0; i < 3; ++i) {
    const harness::FlowSpec& f = spec.flows[static_cast<std::size_t>(i)];
    EXPECT_EQ(f.start, Time::milliseconds(10) + Time::milliseconds(100) * i);
    EXPECT_EQ(f.src_node, 2 + i);
    EXPECT_EQ(f.dst_node, 7 + 2 * i);
  }
}

TEST(FlowSet, ValidateAndBuildSeeTheExpandedFlows) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = 3;
  mdc.m_receivers = 3;
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  harness::ScenarioSpec spec;
  spec.graph = md.spec;
  spec.horizon = Time::seconds(1);
  harness::FlowSet set;
  set.count = 3;
  set.proto.bytes = 1'000;
  set.proto.src_node = md.senders[0];
  set.proto.dst_node = md.receivers[0];
  set.src_step = 1;  // sender hosts are consecutive node indices
  set.dst_step = 1;
  spec.add_flow_set(set);

  EXPECT_FALSE(harness::Scenario::validate(spec).has_value());
  harness::Scenario sc{spec};
  EXPECT_EQ(sc.n_flows(), 3);
}

// ---------------------------------------------------------------------------
// Scenario at several shard counts
// ---------------------------------------------------------------------------

// An N x M dumbbell whose access links carry real propagation delay, so the
// partitioner can cut them (multi_dumbbell's default side_delay of zero
// would glue each side into one component).
harness::ScenarioSpec sharded_md_spec(int shards, int n_flows = 8) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = n_flows;
  mdc.m_receivers = 4;
  mdc.side_delay = Time::milliseconds(5);
  mdc.bottleneck_delay = Time::milliseconds(20);
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  harness::ScenarioSpec spec;
  spec.name = "pdes-pin";
  spec.graph = md.spec;
  spec.shard_count = shards;
  spec.horizon = Time::seconds(12);
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.instruments.watchdog = false;

  static constexpr app::Variant kMix[] = {
      app::Variant::kRr, app::Variant::kNewReno, app::Variant::kSack,
      app::Variant::kReno};
  for (int i = 0; i < n_flows; ++i) {
    harness::FlowSpec f;
    f.variant = kMix[i % 4];
    f.start = Time::milliseconds(150) * i;
    f.bytes = 30'000;
    f.src_node = md.senders[static_cast<std::size_t>(i)];
    f.dst_node = md.receivers[static_cast<std::size_t>(i) % 4];
    spec.add_flow(f);
  }
  return spec;
}

std::vector<std::uint64_t> per_flow_digests(Scenario& sc) {
  const int n = sc.n_flows();
  std::vector<fuzz::TraceDigest> digests(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<fuzz::DigestObserver>> observers;
  for (int i = 0; i < n; ++i) {
    observers.push_back(std::make_unique<fuzz::DigestObserver>(
        digests[static_cast<std::size_t>(i)], i));
    sc.sender(i).add_observer(observers.back().get());
  }
  sc.run();
  std::vector<std::uint64_t> out;
  for (int i = 0; i < n; ++i) {
    sc.sender(i).remove_observer(observers[static_cast<std::size_t>(i)].get());
    out.push_back(digests[static_cast<std::size_t>(i)].value());
  }
  return out;
}

// One shard is the plain engine: run() is run_until(horizon) on the
// calling thread, with no rounds and no cross-shard channel.
TEST(ShardedScenario, SingleShardRunsWithoutRounds) {
  Scenario sc{sharded_md_spec(/*shards=*/1)};
  EXPECT_FALSE(sc.sharded());
  EXPECT_EQ(sc.n_shards(), 1);
  const std::uint64_t events = sc.run();
  EXPECT_EQ(events, sc.sim().events_executed());
  EXPECT_EQ(sc.rounds(), 0u);
  EXPECT_EQ(sc.cross_shard_packets(), 0u);
  EXPECT_GT(sc.arena().objects(), 0u);
}

TEST(ShardedScenario, DumbbellSpecRunsOnOneShard) {
  auto dumbbell = [](int shards) {
    harness::ScenarioSpec spec;  // graph empty => dumbbell mode
    spec.shard_count = shards;
    spec.horizon = Time::seconds(4);
    spec.add_flow({.variant = app::Variant::kRr, .bytes = 10'000});
    spec.add_flow({.variant = app::Variant::kNewReno,
                   .start = Time::milliseconds(50),
                   .bytes = 10'000});
    return spec;
  };
  Scenario one{dumbbell(1)};
  Scenario four{dumbbell(4)};
  EXPECT_EQ(four.n_shards(), 1);
  EXPECT_EQ(four.spec().shard_count, 1);
  EXPECT_EQ(per_flow_digests(four), per_flow_digests(one));
  EXPECT_TRUE(four.sender(0).complete());
  EXPECT_TRUE(four.sender(1).complete());
}

TEST(ShardedScenario, UnpartitionableGraphRunsOnOneShard) {
  topo::GraphSpec g;
  g.add_node("A");
  g.add_node("B");
  g.add_duplex(0, 1, 10'000'000, Time::zero());  // zero delay: uncuttable
  harness::ScenarioSpec spec;
  spec.graph = std::move(g);
  spec.shard_count = 4;
  spec.horizon = Time::seconds(2);
  harness::FlowSpec f;
  f.bytes = 5'000;
  f.src_node = 0;
  f.dst_node = 1;
  spec.add_flow(f);
  Scenario sc{std::move(spec)};
  EXPECT_EQ(sc.n_shards(), 1);
  sc.run();
  EXPECT_TRUE(sc.sender(0).complete());
}

TEST(ShardedScenario, ShardedRunMakesProgressAcrossShards) {
  Scenario sc{sharded_md_spec(/*shards=*/4)};
  ASSERT_TRUE(sc.sharded());
  EXPECT_EQ(sc.n_shards(), 4);
  EXPECT_GT(sc.lookahead(), Time::zero());
  sc.run();
  EXPECT_GT(sc.rounds(), 0u);
  EXPECT_GT(sc.cross_shard_packets(), 0u);
  EXPECT_GT(sc.arena().objects(), 0u);
  for (int i = 0; i < sc.n_flows(); ++i) {
    EXPECT_TRUE(sc.sender(i).complete()) << "flow " << i;
  }
}

// The determinism contract (DESIGN.md §17): identical per-flow traces at
// every shard count, with the 1-shard leg being the plain single engine.
TEST(ShardedScenario, PerFlowTracesIdenticalAcrossShardCounts) {
  Scenario single{sharded_md_spec(/*shards=*/1)};
  ASSERT_FALSE(single.sharded());
  const std::vector<std::uint64_t> baseline = per_flow_digests(single);

  for (const int shards : {2, 4, 8}) {
    Scenario sc{sharded_md_spec(shards)};
    ASSERT_TRUE(sc.sharded()) << shards << " shards";
    EXPECT_EQ(sc.n_shards(), shards);
    EXPECT_EQ(per_flow_digests(sc), baseline) << shards << " shards";
  }
}

// Same engine, same shard count, two runs: thread scheduling must not be
// able to reorder anything observable.
TEST(ShardedScenario, RepeatedShardedRunsAreIdentical) {
  Scenario a{sharded_md_spec(/*shards=*/4)};
  Scenario b{sharded_md_spec(/*shards=*/4)};
  EXPECT_EQ(per_flow_digests(a), per_flow_digests(b));
}

// Final sender state must agree with the single engine too — digests pin
// the event stream, these pin the outcome a benchmark would report.
TEST(ShardedScenario, FinalSenderStateMatchesSingleEngine) {
  Scenario single{sharded_md_spec(/*shards=*/1)};
  single.run();
  Scenario sharded{sharded_md_spec(/*shards=*/4)};
  sharded.run();
  ASSERT_EQ(single.n_flows(), sharded.n_flows());
  for (int i = 0; i < single.n_flows(); ++i) {
    EXPECT_EQ(single.sender(i).complete(), sharded.sender(i).complete());
    EXPECT_EQ(single.sender(i).snd_una(), sharded.sender(i).snd_una());
    EXPECT_EQ(single.sender(i).max_sent(), sharded.sender(i).max_sent());
  }
}

TEST(ShardedScenario, TryBuildRejectsInvalidSpecs) {
  harness::ScenarioSpec spec = sharded_md_spec(4);
  spec.flows.clear();  // kNoFlows
  harness::SpecError err;
  EXPECT_EQ(Scenario::try_build(std::move(spec), &err), nullptr);
  EXPECT_EQ(err.code, harness::SpecError::Code::kNoFlows);
}

TEST(ShardedScenario, FlowSetsExpandInShardedMode) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = 4;
  mdc.m_receivers = 4;
  mdc.side_delay = Time::milliseconds(5);
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);
  harness::ScenarioSpec spec;
  spec.graph = md.spec;
  spec.shard_count = 2;
  spec.horizon = Time::seconds(10);
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.instruments.watchdog = false;
  harness::FlowSet set;
  set.count = 4;
  set.proto.bytes = 8'000;
  set.proto.src_node = md.senders[0];
  set.proto.dst_node = md.receivers[0];
  set.stagger = Time::milliseconds(200);
  set.src_step = 1;
  set.dst_step = 1;
  spec.add_flow_set(set);

  Scenario sc{std::move(spec)};
  ASSERT_TRUE(sc.sharded());
  EXPECT_EQ(sc.n_flows(), 4);
  sc.run();
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(sc.sender(i).complete()) << "flow " << i;
}

}  // namespace
}  // namespace rrtcp::pdes
