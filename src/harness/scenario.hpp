// Declarative scenario description + runner.
//
// A ScenarioSpec is a plain value: topology, bottleneck queue choice, the
// list of flows (variant, start time, transfer size, TCP config), optional
// cross-traffic, instrumentation options, a seed and a horizon. Because it
// is data, a spec can be built once and handed to a sweep job, mutated per
// grid point, or printed; the imperative build-everything-by-hand dance
// the bench binaries used to repeat lives in ONE place, the Scenario
// constructor.
//
//   harness::ScenarioSpec spec;
//   spec.name = "fig5/newreno";
//   spec.bottleneck = harness::QueueSpec::drop_tail(100);
//   spec.add_flow({.variant = app::Variant::kNewReno,
//                  .bytes = 100'000, .tcp = tcfg});
//   harness::Scenario sc{spec};
//   sc.topology().bottleneck().set_loss_model(...);   // optional knobs
//   sc.run();
//   ... sc.instruments(0).meter->throughput_bps(...) ...
//
// Two topology modes, one build path:
//   Dumbbell (default, spec.graph empty) — the paper's Figure 4 around
//   spec.topology; flows are placed on consecutive host pairs. The reverse
//   bottleneck is first-class: spec.reverse_bottleneck picks its queue, and
//   FlowSpec.reverse / CbrSpec.reverse place load on the ACK path.
//   Graph (spec.graph non-empty) — any topo::GraphSpec (parking lot, N x M
//   dumbbell, hand-built). Flows and CBR streams name their src/dst node
//   indices; spec.audited_links lists the link queues the audit layer
//   watches. Queue disciplines ride inside the GraphSpec's per-link
//   factories, so spec.bottleneck is ignored in this mode.
// A dumbbell spec is first LOWERED to the graph spec it describes (by the
// same code in validate() and the constructor): spec.graph becomes
// net::dumbbell_spec(spec.topology), the dumbbell-only fields resolve to
// node indices and rates, and audited_links becomes {0, 1}. From there on
// both modes share one validator and one builder; a graph-mode spec that
// sets a dumbbell-only field is rejected.
//
// One engine for every shard count: the builder partitions spec.graph
// into spec.shard_count shards (topo::partition_graph; a dumbbell is
// pinned to one, a graph that cannot be cut comes back as one), owns one
// simulator per shard, and builds every node's links and endpoints on its
// shard's simulator. All per-flow state — environments, endpoints, CBR and
// traffic sources — lives in one pdes::FlowArena. With one shard, run() is
// sim().run_until(horizon) on the calling thread; with more,
// pdes::ShardEngine runs conservative lookahead rounds on worker threads
// (DESIGN.md §17), audit and watchdog are forced off and flow_maker is
// refused.
//
// Member order in Scenario is its teardown contract: the shard workers
// stop first, then instrumentation detaches, then the arena tears down
// traffic sources before flows, then the topology, then the simulators.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/flow_factory.hpp"
#include "app/ftp.hpp"
#include "app/variant.hpp"
#include "harness/instrumentation.hpp"
#include "net/dumbbell.hpp"
#include "net/red.hpp"
#include "pdes/flow_arena.hpp"
#include "sim/assert.hpp"
#include "sim/simulator.hpp"
#include "tcp/types.hpp"
#include "topo/graph.hpp"
#include "topo/partition.hpp"
#include "traffic/cbr.hpp"
#include "traffic/onoff.hpp"

namespace rrtcp::pdes {
class ShardEngine;
}  // namespace rrtcp::pdes

namespace rrtcp::harness {

// Bottleneck queue selection, as data; the dumbbell lowering turns it into
// the bottleneck link's queue factory.
struct QueueSpec {
  enum class Kind { kDropTail, kRed };
  Kind kind = Kind::kDropTail;
  std::uint64_t capacity_packets = 8;  // drop-tail (Table 3 default)
  net::RedConfig red = {};             // used when kind == kRed

  static QueueSpec drop_tail(std::uint64_t capacity) {
    QueueSpec q;
    q.kind = Kind::kDropTail;
    q.capacity_packets = capacity;
    return q;
  }
  static QueueSpec red_queue(net::RedConfig cfg) {
    QueueSpec q;
    q.kind = Kind::kRed;
    q.red = cfg;
    return q;
  }
};

struct FlowSpec {
  app::Variant variant = app::Variant::kRr;
  sim::Time start = sim::Time::zero();
  // Transfer size; nullopt = unbounded FTP. Ignored when `onoff` is set.
  std::optional<std::uint64_t> bytes = std::nullopt;
  tcp::TcpConfig tcp = {};
  // Dumbbell mode only: run this flow K_i -> S_i instead of S_i -> K_i, so
  // its DATA crosses the reverse bottleneck and its ACKs the forward one —
  // the reverse-path bulk flow that queues/compresses the other flows' ACKs.
  bool reverse = false;
  // Web-like ON/OFF source instead of FTP; `start` below overrides the
  // embedded OnOffConfig::start.
  std::optional<traffic::OnOffConfig> onoff = std::nullopt;
  // Graph mode: endpoint node indices into the GraphSpec (required there;
  // dumbbell mode fills them in when it lowers the spec).
  int src_node = -1;
  int dst_node = -1;
};

// N identical-config flows as ONE spec entry. A million-flow scenario must
// not carry a million FlowSpecs: the set stores one prototype plus an
// expansion rule, and expand_flow_sets() materializes the members at build
// time. Expansion is purely mechanical — member i starts at
// proto.start + stagger*i and (graph mode) runs
// proto.src_node + src_step*i -> proto.dst_node + dst_step*i — so a spec
// written with flow sets is byte-equivalent to the same spec written with
// the expanded flow list.
struct FlowSet {
  int count = 0;
  FlowSpec proto = {};
  sim::Time stagger = sim::Time::zero();
  // Graph mode: node-index strides, letting one set cover "flow i runs
  // host_i -> sink_i" placements. 0 keeps every member on proto's nodes.
  int src_step = 0;
  int dst_step = 0;
};

// Unresponsive constant-bit-rate cross-traffic stream. In dumbbell mode it
// gets its own host pair (forward: extra S -> K across the bottleneck;
// reverse = true: K -> S across the ACK path). In graph mode it runs
// src_node -> dst_node and rate_bps must be set explicitly.
struct CbrSpec {
  std::int64_t rate_bps = 0;   // absolute rate, bits/s
  // Dumbbell mode only: when > 0, rate = fraction x the crossed
  // bottleneck's bandwidth (forward or reverse as placed); wins over
  // rate_bps.
  double load_fraction = 0.0;
  std::uint32_t packet_bytes = 1'000;
  sim::Time start = sim::Time::zero();
  std::optional<sim::Time> stop = std::nullopt;
  bool reverse = false;  // dumbbell mode only
  int src_node = -1;     // graph mode placement
  int dst_node = -1;
};

// Why a spec could not be built. `code` is the machine-checkable class
// (what a generator switches on to discard-and-resample); `detail` names
// the offending flow/link/field for humans. Returned by Scenario::validate
// and Scenario::try_build instead of tripping the constructor's asserts.
struct SpecError {
  enum class Code {
    kNoFlows,       // empty flow list
    kBadHorizon,    // horizon <= 0
    kBadRate,       // a link/topology bandwidth <= 0
    kBadLink,       // link/route endpoints invalid
    kBadEndpoint,   // flow src/dst missing or outside the node set
    kUnroutable,    // no path between a flow's endpoints (either direction)
    kBadCbr,        // cross-traffic endpoints/rate/packet size invalid
    kBadShardCount, // shard_count outside 1..kMaxShardCount
  };
  Code code;
  std::string detail;
};

const char* to_string(SpecError::Code c);

// Upper bound for ScenarioSpec::shard_count, enforced by
// Scenario::validate and the CLI front ends' --shards. The partitioner
// clamps only to the number of components left after contracting
// zero-delay links, which on a large graph can approach its node count —
// and each shard gets a worker thread.
inline constexpr int kMaxShardCount = 64;

struct ScenarioSpec {
  std::string name = "scenario";
  // Dumbbell-mode topology knobs (bandwidths, delays, side buffers,
  // per-flow RTT overrides). n_flows and the two queue factories are
  // overwritten by the lowering from the flow/cross-traffic lists,
  // `bottleneck` and `reverse_bottleneck`.
  net::DumbbellConfig topology = {};
  QueueSpec bottleneck = {};
  // Dumbbell mode: queue discipline of the reverse (ACK-path) bottleneck.
  // nullopt keeps the deep default drop-tail buffer
  // (topology.reverse_queue_packets); set it to make ACK-path drops real.
  std::optional<QueueSpec> reverse_bottleneck = std::nullopt;
  // Graph mode: a non-empty GraphSpec replaces the dumbbell entirely.
  topo::GraphSpec graph;
  // Graph mode: link indices whose queues the audit layer should watch.
  std::vector<int> audited_links;
  std::vector<FlowSpec> flows;
  // Aggregate flow groups, expanded (appended to `flows`, in order) by
  // expand_flow_sets() before validation/build.
  std::vector<FlowSet> flow_sets;
  std::vector<CbrSpec> cross_traffic;
  InstrumentationOptions instruments = {};
  // Engine shards, 1..kMaxShardCount (validate() rejects anything else).
  // Scenario partitions the graph into at most this many shards, cutting
  // only positive-delay links (topo/partition.hpp); the partitioner clamps
  // to the number of subgraphs the topology actually yields, and a
  // dumbbell always runs on one shard. One shard is the plain
  // single-threaded engine.
  int shard_count = 1;
  // Seeds randomized components (RED drop RNG, ON/OFF sources); pass the
  // sweep's derived per-job seed here.
  std::uint64_t seed = 1;
  sim::Time horizon = sim::Time::seconds(60);
  // Test/fuzz hook: when set, builds flow i in place of the standard
  // endpoints, letting campaigns and the chaos soak drive intentionally
  // broken senders through the standard build path. One shard only.
  std::function<app::Flow(sim::Simulator&, net::Node& snd, net::Node& rcv,
                          net::FlowId id, const FlowSpec& fs)>
      flow_maker;
  // False runs the simulation with the hierarchical timer-wheel tier
  // disabled (heap-only scheduling, the pre-wheel engine shape). Traces
  // must be byte-identical either way; the fuzzer's engine-equivalence
  // oracle flips this and compares digests.
  bool timer_wheel = true;

  ScenarioSpec& add_flow(FlowSpec f) {
    flows.push_back(std::move(f));
    return *this;
  }
  // n identical flows whose starts are staggered `stagger` apart.
  ScenarioSpec& add_flows(int n, FlowSpec f,
                          sim::Time stagger = sim::Time::zero()) {
    const sim::Time base = f.start;
    for (int i = 0; i < n; ++i) {
      f.start = base + stagger * i;
      flows.push_back(f);
    }
    return *this;
  }
  ScenarioSpec& add_cbr(CbrSpec c) {
    cross_traffic.push_back(std::move(c));
    return *this;
  }
  ScenarioSpec& add_flow_set(FlowSet s) {
    flow_sets.push_back(std::move(s));
    return *this;
  }

  // Materialize flow_sets into `flows` (appended in set order, members in
  // index order) and clear the set list. Idempotent; called by
  // Scenario::validate / the builders, so specs may carry sets right up to
  // build time.
  void expand_flow_sets() {
    for (const FlowSet& s : flow_sets) {
      flows.reserve(flows.size() + static_cast<std::size_t>(s.count > 0
                                                                ? s.count
                                                                : 0));
      for (int i = 0; i < s.count; ++i) {
        FlowSpec f = s.proto;
        f.start = s.proto.start + s.stagger * i;
        if (s.src_step != 0) f.src_node = s.proto.src_node + s.src_step * i;
        if (s.dst_step != 0) f.dst_node = s.proto.dst_node + s.dst_step * i;
        flows.push_back(std::move(f));
      }
    }
    flow_sets.clear();
  }
};

// Raw views of one flow's two endpoints; the scenario owns them.
struct FlowEnds {
  tcp::TcpSenderBase* sender = nullptr;
  tcp::TcpReceiver* receiver = nullptr;
};

class Scenario {
 public:
  explicit Scenario(ScenarioSpec spec);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // Structural validation of a spec WITHOUT building anything: empty flow
  // set, shard count out of range, non-positive rates, invalid
  // link/route/flow/CBR endpoints, unroutable src/dst pairs (along the
  // graph's static routes, both directions — ACKs must get home too).
  // Returns nullopt when the spec is buildable. The constructor only
  // asserts a few backstops; generated specs go through here (or
  // try_build) so a bad sample is a discard, not a crash.
  static std::optional<SpecError> validate(const ScenarioSpec& in);

  // validate() + construct: nullptr (with *err filled when non-null) on a
  // rejected spec, the built scenario otherwise.
  static std::unique_ptr<Scenario> try_build(ScenarioSpec spec,
                                             SpecError* err = nullptr);

  // Shard 0's simulator: the only one unless sharded().
  sim::Simulator& sim() { return *sims_.front(); }
  // Dumbbell mode only: a view over graph().
  net::DumbbellTopology& topology() {
    RRTCP_ASSERT_MSG(topo_ != nullptr, "topology() needs a dumbbell-mode spec");
    return *topo_;
  }
  // The underlying graph, in either mode, at every shard count.
  topo::TopologyGraph& graph() { return *graph_; }
  // Link by the GraphSpec's index, whichever shard owns it.
  net::Link& link(int i) { return graph_->link(i); }

  int n_flows() const { return static_cast<int>(flows_.size()); }
  const FlowEnds& flow(int i) const {
    return flows_.at(static_cast<std::size_t>(i));
  }
  tcp::TcpSenderBase& sender(int i) { return *flow(i).sender; }
  tcp::TcpReceiver& receiver(int i) { return *flow(i).receiver; }
  // The FTP source of flow i; null for ON/OFF flows (see onoff()).
  app::FtpSource* source(int i) {
    return sources_.at(static_cast<std::size_t>(i));
  }
  // The ON/OFF source of flow i; null for FTP flows.
  traffic::OnOffSource* onoff(int i) {
    return onoffs_.at(static_cast<std::size_t>(i));
  }
  FlowInstruments& instruments(int i) {
    return instrumentation_->flow(static_cast<std::size_t>(i));
  }
  Instrumentation& instrumentation() { return *instrumentation_; }

  int n_cbr() const { return static_cast<int>(cbr_sources_.size()); }
  traffic::CbrSource& cbr(int i) {
    return *cbr_sources_.at(static_cast<std::size_t>(i));
  }
  traffic::CbrSink& cbr_sink(int i) {
    return *cbr_sinks_.at(static_cast<std::size_t>(i));
  }

  // The bottleneck RED queue, when the spec asked for one (else nullptr).
  net::RedQueue* red() { return red_; }
  // The reverse-bottleneck RED queue, when spec.reverse_bottleneck asked
  // for one (else nullptr).
  net::RedQueue* reverse_red() { return reverse_red_; }

  // Shards the graph was cut into: spec.shard_count clamped by the
  // partitioner, 1 for a dumbbell.
  int n_shards() const { return part_.n_shards; }
  bool sharded() const { return n_shards() > 1; }
  // min propagation delay over the cut links; zero with one shard.
  sim::Time lookahead() const { return part_.lookahead; }
  // Synchronized rounds run and packets handed across a cut; 0 with one
  // shard.
  std::uint64_t rounds() const;
  std::uint64_t cross_shard_packets() const;
  // Backing store of every flow endpoint, environment and traffic source.
  pdes::FlowArena& arena() { return arena_; }

  // Runs to the spec's horizon; returns events executed across all
  // shards. With one shard this is sim().run_until(horizon) on the
  // calling thread; with more, pdes::ShardEngine's rounds.
  std::uint64_t run();
  // One shard only: runs to an explicit deadline (callable repeatedly).
  std::uint64_t run_until(sim::Time deadline) {
    RRTCP_ASSERT_MSG(!sharded(), "run_until needs a one-shard scenario");
    return sim().run_until(deadline);
  }

  // The spec as built: flow sets expanded, a dumbbell spec lowered.
  const ScenarioSpec& spec() const { return spec_; }

 private:
  ScenarioSpec spec_;
  topo::Partition part_;
  std::vector<std::unique_ptr<sim::Simulator>> sims_;  // one per shard
  std::unique_ptr<topo::TopologyGraph> graph_;
  std::unique_ptr<net::DumbbellTopology> topo_;  // dumbbell mode: a view
  net::RedQueue* red_ = nullptr;
  net::RedQueue* reverse_red_ = nullptr;
  // Owns the flows' environments and endpoints, the CBR sinks and sources
  // and the per-flow traffic sources, destroyed in reverse construction
  // order (sources first) before the graph and the simulators.
  pdes::FlowArena arena_;
  std::vector<FlowEnds> flows_;
  std::vector<app::FtpSource*> sources_;       // per flow; null for ON/OFF
  std::vector<traffic::OnOffSource*> onoffs_;  // per flow; null for FTP
  std::vector<traffic::CbrSource*> cbr_sources_;
  std::vector<traffic::CbrSink*> cbr_sinks_;
  std::unique_ptr<Instrumentation> instrumentation_;
  // Present only when sharded(); destroyed first, stopping its workers.
  std::unique_ptr<pdes::ShardEngine> engine_;
};

}  // namespace rrtcp::harness
