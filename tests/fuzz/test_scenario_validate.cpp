// Graceful spec rejection (satellite S1): structurally invalid
// ScenarioSpecs come back from Scenario::validate / Scenario::try_build as
// typed SpecErrors instead of tripping construction-time asserts — the
// contract the fuzz generator (discard-and-resample) and the replay loader
// (bucket a bad file as build-reject) both rest on.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"

namespace rrtcp::harness {
namespace {

using Code = SpecError::Code;

ScenarioSpec minimal_dumbbell() {
  ScenarioSpec spec;
  FlowSpec f;
  f.bytes = 20'000;
  spec.add_flow(f);
  spec.horizon = sim::Time::seconds(30);
  return spec;
}

// A two-node graph with one duplex link and a single flow across it.
ScenarioSpec minimal_graph() {
  ScenarioSpec spec;
  spec.graph.add_node("a");
  spec.graph.add_node("b");
  spec.graph.add_duplex(0, 1, 1'000'000, sim::Time::milliseconds(10), 16);
  FlowSpec f;
  f.bytes = 20'000;
  f.src_node = 0;
  f.dst_node = 1;
  spec.add_flow(f);
  spec.horizon = sim::Time::seconds(30);
  return spec;
}

std::optional<Code> code_of(const ScenarioSpec& spec) {
  const std::optional<SpecError> err = Scenario::validate(spec);
  if (!err) return std::nullopt;
  return err->code;
}

TEST(SpecValidate, MinimalSpecsAreValidAndBuild) {
  EXPECT_EQ(code_of(minimal_dumbbell()), std::nullopt);
  EXPECT_EQ(code_of(minimal_graph()), std::nullopt);
  SpecError err;
  EXPECT_NE(Scenario::try_build(minimal_dumbbell(), &err), nullptr);
  EXPECT_NE(Scenario::try_build(minimal_graph(), &err), nullptr);
}

TEST(SpecValidate, EmptyFlowListRejected) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.flows.clear();
  EXPECT_EQ(code_of(spec), Code::kNoFlows);
}

TEST(SpecValidate, NonPositiveHorizonRejected) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.horizon = sim::Time::zero();
  EXPECT_EQ(code_of(spec), Code::kBadHorizon);
}

TEST(SpecValidate, ZeroBottleneckRateRejected) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.topology.bottleneck_bps = 0;
  EXPECT_EQ(code_of(spec), Code::kBadRate);
}

TEST(SpecValidate, ZeroGraphLinkRateRejected) {
  ScenarioSpec spec = minimal_graph();
  spec.graph.links[0].bandwidth_bps = 0;
  EXPECT_EQ(code_of(spec), Code::kBadRate);
}

TEST(SpecValidate, LinkEndpointOutOfRangeRejected) {
  ScenarioSpec spec = minimal_graph();
  spec.graph.links[0].to = 9;  // only nodes 0 and 1 exist
  EXPECT_EQ(code_of(spec), Code::kBadLink);
}

TEST(SpecValidate, RouteLinkNotLeavingItsNodeRejected) {
  // Link 0 runs a -> b; routing b's traffic for a over it is impossible.
  // Used to reach topo::compute_route_table and abort there.
  ScenarioSpec spec = minimal_graph();
  spec.graph.add_route(/*at=*/1, /*dst=*/0, /*link=*/0);
  EXPECT_EQ(code_of(spec), Code::kBadLink);
  SpecError err;
  EXPECT_EQ(Scenario::try_build(spec, &err), nullptr);
  EXPECT_EQ(err.code, Code::kBadLink);
}

TEST(SpecValidate, ExplicitRouteLoopUnroutable) {
  // b routes c-bound traffic back to a, whose shortest path to c runs
  // through b again: a path exists in the graph, but the routes never
  // deliver.
  ScenarioSpec spec = minimal_graph();
  spec.graph.add_node("c");
  spec.graph.add_duplex(1, 2, 1'000'000, sim::Time::milliseconds(10), 16);
  spec.graph.add_route(/*at=*/1, /*dst=*/2, /*link=*/1);  // b -> a
  spec.flows[0].dst_node = 2;
  EXPECT_EQ(code_of(spec), Code::kUnroutable);
}

TEST(SpecValidate, ReverseFlowRejectedInGraphMode) {
  // FlowSpec.reverse is consumed by the dumbbell lowering; a graph-mode
  // spec that sets it would otherwise silently run the flow forward.
  ScenarioSpec spec = minimal_graph();
  spec.flows[0].reverse = true;
  EXPECT_EQ(code_of(spec), Code::kBadEndpoint);
}

TEST(SpecValidate, ReverseCbrRejectedInGraphMode) {
  ScenarioSpec spec = minimal_graph();
  spec.add_cbr({.rate_bps = 100'000, .reverse = true, .src_node = 0,
                .dst_node = 1});
  EXPECT_EQ(code_of(spec), Code::kBadCbr);
}

TEST(SpecValidate, LoadFractionCbrRejectedInGraphMode) {
  ScenarioSpec spec = minimal_graph();
  spec.add_cbr({.rate_bps = 100'000, .load_fraction = 0.5, .src_node = 0,
                .dst_node = 1});
  EXPECT_EQ(code_of(spec), Code::kBadCbr);
}

TEST(SpecValidate, NegativeReverseRateRejected) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.topology.reverse_bps = -1;
  EXPECT_EQ(code_of(spec), Code::kBadRate);
}

TEST(SpecValidate, FlowEndpointOutOfRangeRejected) {
  ScenarioSpec spec = minimal_graph();
  spec.flows[0].dst_node = 7;
  EXPECT_EQ(code_of(spec), Code::kBadEndpoint);
}

TEST(SpecValidate, MissingGraphEndpointRejected) {
  ScenarioSpec spec = minimal_graph();
  spec.flows[0].src_node = -1;  // graph mode requires explicit placement
  EXPECT_EQ(code_of(spec), Code::kBadEndpoint);
}

TEST(SpecValidate, DisconnectedEndpointsRejected) {
  // Four nodes, one duplex link between 0 and 1: a flow 2 -> 3 has no
  // path in either direction.
  ScenarioSpec spec = minimal_graph();
  spec.graph.add_node("c");
  spec.graph.add_node("d");
  spec.flows[0].src_node = 2;
  spec.flows[0].dst_node = 3;
  EXPECT_EQ(code_of(spec), Code::kUnroutable);
}

TEST(SpecValidate, OneWayReachabilityStillUnroutable) {
  // A single directed link 0 -> 1: data can cross but ACKs cannot return.
  ScenarioSpec spec = minimal_graph();
  spec.graph.links.pop_back();  // drop the reverse half of the duplex
  EXPECT_EQ(code_of(spec), Code::kUnroutable);
}

TEST(SpecValidate, BadCbrRejected) {
  ScenarioSpec spec = minimal_graph();
  CbrSpec cbr;  // graph mode with no endpoints and no rate
  spec.add_cbr(cbr);
  EXPECT_EQ(code_of(spec), Code::kBadCbr);
}

// Validate-only: an out-of-range shard count must be refused before
// anything is built, since each shard gets its own worker thread.
TEST(SpecValidate, ShardCountOutOfRangeRejected) {
  for (const int shards : {0, -1, kMaxShardCount + 1}) {
    ScenarioSpec spec = minimal_graph();
    spec.shard_count = shards;
    EXPECT_EQ(code_of(spec), Code::kBadShardCount) << shards;
    spec = minimal_dumbbell();
    spec.shard_count = shards;
    EXPECT_EQ(code_of(spec), Code::kBadShardCount) << shards;
  }
  ScenarioSpec spec = minimal_graph();
  spec.shard_count = kMaxShardCount;
  EXPECT_EQ(code_of(spec), std::nullopt);
}

TEST(SpecValidate, TryBuildReportsTheError) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.flows.clear();
  SpecError err;
  EXPECT_EQ(Scenario::try_build(spec, &err), nullptr);
  EXPECT_EQ(err.code, Code::kNoFlows);
  EXPECT_FALSE(err.detail.empty());
}

TEST(SpecValidate, CodeNamesAreStable) {
  // The fuzz runner embeds these names in bucket keys; renaming one
  // silently orphans checked-in corpus files.
  EXPECT_STREQ(to_string(Code::kNoFlows), "no-flows");
  EXPECT_STREQ(to_string(Code::kBadHorizon), "bad-horizon");
  EXPECT_STREQ(to_string(Code::kBadRate), "bad-rate");
  EXPECT_STREQ(to_string(Code::kBadLink), "bad-link");
  EXPECT_STREQ(to_string(Code::kBadEndpoint), "bad-endpoint");
  EXPECT_STREQ(to_string(Code::kUnroutable), "unroutable");
  EXPECT_STREQ(to_string(Code::kBadCbr), "bad-cbr");
  EXPECT_STREQ(to_string(Code::kBadShardCount), "bad-shard-count");
}

}  // namespace
}  // namespace rrtcp::harness
