#include "harness/scenario.hpp"

#include <string>
#include <utility>

#include "app/flow_factory.hpp"
#include "app/sender_factory.hpp"
#include "env/sim_env.hpp"
#include "harness/sweep.hpp"
#include "net/drop_tail.hpp"
#include "pdes/shard_engine.hpp"
#include "sim/assert.hpp"

namespace rrtcp::harness {

namespace {

// Translates a QueueSpec into a link queue factory. A RED queue draws its
// drop decisions from `seed`.
decltype(topo::LinkSpec::make_queue) make_queue_factory(const QueueSpec& qs,
                                                        std::uint64_t seed) {
  switch (qs.kind) {
    case QueueSpec::Kind::kDropTail:
      return [cap = qs.capacity_packets](sim::Simulator&) {
        return std::make_unique<net::DropTailQueue>(cap);
      };
    case QueueSpec::Kind::kRed:
      return [rc = qs.red, seed](sim::Simulator& sim) mutable {
        rc.seed = seed;
        return std::make_unique<net::RedQueue>(sim, rc);
      };
  }
  RRTCP_ASSERT_MSG(false, "unreachable");
  return {};
}

// Lowers a dumbbell-mode spec (graph empty) onto the graph it describes,
// in place. TCP flow i runs on host pair i; CBR stream j rides the extra
// pair n_tcp + j, so a spec without cross-traffic builds the exact seed
// topology. After this the spec is an ordinary graph-mode spec: the
// dumbbell-only fields (reverse, load_fraction) are resolved and cleared,
// and the dumbbell is pinned to one shard.
void lower_dumbbell(ScenarioSpec& spec) {
  spec.shard_count = 1;
  const int n_tcp = static_cast<int>(spec.flows.size());
  const int n_cbr = static_cast<int>(spec.cross_traffic.size());
  const int n_pairs = n_tcp + n_cbr;

  net::DumbbellConfig& netcfg = spec.topology;
  netcfg.n_flows = n_pairs;
  netcfg.make_bottleneck_queue = make_queue_factory(spec.bottleneck, spec.seed);
  if (spec.reverse_bottleneck) {
    // A distinct derived seed keeps a reverse RED queue's drop RNG
    // independent of the forward one's.
    netcfg.make_reverse_queue = make_queue_factory(
        *spec.reverse_bottleneck, derive_seed(spec.seed, 1));
  }
  spec.graph = net::dumbbell_spec(netcfg);
  spec.audited_links = {0, 1};

  // Forward placement runs S_i -> K_i; reverse placement K_i -> S_i.
  auto place = [n_pairs](int pair, bool reverse, int* src, int* dst) {
    const int s = net::dumbbell_sender(pair);
    const int k = net::dumbbell_receiver(n_pairs, pair);
    *src = reverse ? k : s;
    *dst = reverse ? s : k;
  };
  for (int i = 0; i < n_tcp; ++i) {
    FlowSpec& fs = spec.flows[static_cast<std::size_t>(i)];
    place(i, fs.reverse, &fs.src_node, &fs.dst_node);
    fs.reverse = false;
  }
  const std::int64_t rev_bps = netcfg.reverse_bps > 0 ? netcfg.reverse_bps
                                                      : netcfg.bottleneck_bps;
  for (int j = 0; j < n_cbr; ++j) {
    CbrSpec& cs = spec.cross_traffic[static_cast<std::size_t>(j)];
    place(n_tcp + j, cs.reverse, &cs.src_node, &cs.dst_node);
    if (cs.load_fraction > 0) {
      cs.rate_bps = static_cast<std::int64_t>(
          cs.load_fraction *
          static_cast<double>(cs.reverse ? rev_bps : netcfg.bottleneck_bps));
    }
    cs.load_fraction = 0.0;
    cs.reverse = false;
  }
}

// True when the static forwarding of `g` (next-hop `table` from
// topo::compute_route_table, explicit routes included) carries a packet
// from `from` to `to` — the path TopologyGraph will actually use. A route
// loop never arrives and is caught by the hop bound.
bool routed(const topo::GraphSpec& g, const std::vector<int>& table, int from,
            int to) {
  const auto n = static_cast<std::size_t>(g.n_nodes());
  for (std::size_t hops = 0; from != to; ++hops) {
    const int li = table[static_cast<std::size_t>(from) * n +
                         static_cast<std::size_t>(to)];
    if (li < 0 || hops == n) return false;
    from = g.links[static_cast<std::size_t>(li)].to;
  }
  return true;
}

}  // namespace

const char* to_string(SpecError::Code c) {
  switch (c) {
    case SpecError::Code::kNoFlows:
      return "no-flows";
    case SpecError::Code::kBadHorizon:
      return "bad-horizon";
    case SpecError::Code::kBadRate:
      return "bad-rate";
    case SpecError::Code::kBadLink:
      return "bad-link";
    case SpecError::Code::kBadEndpoint:
      return "bad-endpoint";
    case SpecError::Code::kUnroutable:
      return "unroutable";
    case SpecError::Code::kBadCbr:
      return "bad-cbr";
    case SpecError::Code::kBadShardCount:
      return "bad-shard-count";
  }
  return "?";
}

std::optional<SpecError> Scenario::validate(const ScenarioSpec& in) {
  auto fail = [](SpecError::Code c, std::string d) {
    return std::optional<SpecError>{SpecError{c, std::move(d)}};
  };

  // Validate what will actually be built: flow sets expanded, a dumbbell
  // lowered onto its graph.
  ScenarioSpec spec = in;
  spec.expand_flow_sets();
  if (spec.flows.empty())
    return fail(SpecError::Code::kNoFlows, "scenario has no flows");
  if (spec.horizon <= sim::Time::zero())
    return fail(SpecError::Code::kBadHorizon, "horizon must be > 0");
  if (spec.shard_count < 1 || spec.shard_count > kMaxShardCount)
    return fail(SpecError::Code::kBadShardCount,
                "shard_count " + std::to_string(spec.shard_count) +
                    " outside 1.." + std::to_string(kMaxShardCount));
  if (spec.graph.empty()) {
    // dumbbell_spec falls back to bottleneck_bps for any reverse_bps <= 0;
    // only 0 means that.
    if (spec.topology.reverse_bps < 0)
      return fail(SpecError::Code::kBadRate, "reverse_bps must be >= 0");
    lower_dumbbell(spec);
  }

  const topo::GraphSpec& g = spec.graph;
  const int n = g.n_nodes();
  for (std::size_t i = 0; i < g.links.size(); ++i) {
    const topo::LinkSpec& l = g.links[i];
    if (l.from < 0 || l.from >= n || l.to < 0 || l.to >= n || l.from == l.to)
      return fail(SpecError::Code::kBadLink,
                  "link " + std::to_string(i) + ": endpoints out of range");
    if (l.bandwidth_bps <= 0)
      return fail(SpecError::Code::kBadRate,
                  "link " + std::to_string(i) + ": bandwidth must be > 0");
  }
  for (std::size_t i = 0; i < g.routes.size(); ++i) {
    const topo::RouteSpec& r = g.routes[i];
    if (r.at < 0 || r.at >= n || r.dst < 0 || r.dst >= n || r.link < 0 ||
        r.link >= static_cast<int>(g.links.size()))
      return fail(SpecError::Code::kBadLink,
                  "route " + std::to_string(i) + ": indices out of range");
    if (g.links[static_cast<std::size_t>(r.link)].from != r.at)
      return fail(SpecError::Code::kBadLink,
                  "route " + std::to_string(i) + ": link leaves another node");
  }
  for (const int link : spec.audited_links) {
    if (link < 0 || link >= static_cast<int>(g.links.size()))
      return fail(SpecError::Code::kBadLink,
                  "audited link " + std::to_string(link) + " out of range");
  }
  const std::vector<int> table = topo::compute_route_table(g);
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    const FlowSpec& fs = spec.flows[i];
    if (fs.reverse)
      return fail(SpecError::Code::kBadEndpoint,
                  "flow " + std::to_string(i) + ": reverse is dumbbell-only");
    if (fs.src_node < 0 || fs.src_node >= n || fs.dst_node < 0 ||
        fs.dst_node >= n || fs.src_node == fs.dst_node)
      return fail(SpecError::Code::kBadEndpoint,
                  "flow " + std::to_string(i) + ": src/dst node invalid");
    // Data must reach the receiver AND its ACKs must get home.
    if (!routed(g, table, fs.src_node, fs.dst_node) ||
        !routed(g, table, fs.dst_node, fs.src_node))
      return fail(SpecError::Code::kUnroutable,
                  "flow " + std::to_string(i) + ": no path " +
                      std::to_string(fs.src_node) + "<->" +
                      std::to_string(fs.dst_node));
  }
  for (std::size_t j = 0; j < spec.cross_traffic.size(); ++j) {
    const CbrSpec& cs = spec.cross_traffic[j];
    if (cs.reverse || cs.load_fraction > 0.0)
      return fail(SpecError::Code::kBadCbr,
                  "cbr " + std::to_string(j) + ": dumbbell-only placement");
    if (cs.src_node < 0 || cs.src_node >= n || cs.dst_node < 0 ||
        cs.dst_node >= n || cs.src_node == cs.dst_node)
      return fail(SpecError::Code::kBadCbr,
                  "cbr " + std::to_string(j) + ": src/dst node invalid");
    if (cs.rate_bps <= 0)
      return fail(SpecError::Code::kBadCbr,
                  "cbr " + std::to_string(j) +
                      ": rate must be > 0");
    if (cs.packet_bytes == 0)
      return fail(SpecError::Code::kBadCbr,
                  "cbr " + std::to_string(j) + ": packet_bytes must be > 0");
    if (!routed(g, table, cs.src_node, cs.dst_node))
      return fail(SpecError::Code::kUnroutable,
                  "cbr " + std::to_string(j) + ": no path " +
                      std::to_string(cs.src_node) + "->" +
                      std::to_string(cs.dst_node));
  }
  return std::nullopt;
}

std::unique_ptr<Scenario> Scenario::try_build(ScenarioSpec spec,
                                              SpecError* err) {
  if (std::optional<SpecError> e = validate(spec)) {
    if (err != nullptr) *err = std::move(*e);
    return nullptr;
  }
  return std::make_unique<Scenario>(std::move(spec));
}

Scenario::Scenario(ScenarioSpec spec) : spec_{std::move(spec)} {
  spec_.expand_flow_sets();
  RRTCP_ASSERT_MSG(!spec_.flows.empty(), "scenario needs at least one flow");
  RRTCP_ASSERT_MSG(spec_.shard_count >= 1 && spec_.shard_count <= kMaxShardCount,
                   "shard_count outside 1..kMaxShardCount");

  const bool dumbbell = spec_.graph.empty();
  if (dumbbell) lower_dumbbell(spec_);

  // One simulator per shard; a graph the partitioner cannot cut comes back
  // as one shard. Engine-tier selection must precede every schedule (the
  // hook asserts the wheel is empty); the fuzzer's equivalence oracle
  // builds the same spec with the wheel off and expects byte-identical
  // traces.
  part_ = topo::partition_graph(spec_.graph, spec_.shard_count);
  const bool sharded = part_.n_shards > 1;
  RRTCP_ASSERT_MSG(!sharded || !spec_.flow_maker,
                   "flow_maker hooks need a one-shard scenario");
  for (int s = 0; s < part_.n_shards; ++s) {
    sims_.push_back(std::make_unique<sim::Simulator>());
    if (!spec_.timer_wheel) sims_.back()->set_timer_wheel_enabled(false);
  }
  // Every node, and with it every endpoint and link attached there, lives
  // on its shard's simulator. Nodes keep their global ids, so addressing
  // and routing are those of the one-shard build.
  auto sim_of = [this](int node) -> sim::Simulator& {
    return *sims_[static_cast<std::size_t>(
        part_.node_shard[static_cast<std::size_t>(node)])];
  };
  std::vector<sim::Simulator*> node_sim;
  node_sim.reserve(spec_.graph.nodes.size());
  for (int v = 0; v < spec_.graph.n_nodes(); ++v) node_sim.push_back(&sim_of(v));
  graph_ = std::make_unique<topo::TopologyGraph>(node_sim, spec_.graph);
  if (dumbbell) {
    topo_ = std::make_unique<net::DumbbellTopology>(*graph_, spec_.topology);
    red_ = dynamic_cast<net::RedQueue*>(&graph_->link(0).queue());
    reverse_red_ = dynamic_cast<net::RedQueue*>(&graph_->link(1).queue());
  }

  const app::SenderFactory& factory = app::SenderFactory::instance();
  flows_.reserve(spec_.flows.size());
  for (std::size_t i = 0; i < spec_.flows.size(); ++i) {
    const FlowSpec& fs = spec_.flows[i];
    RRTCP_ASSERT_MSG(fs.src_node >= 0 && fs.dst_node >= 0,
                     "flows need src_node/dst_node");
    net::Node& snd = graph_->node(fs.src_node);
    net::Node& rcv = graph_->node(fs.dst_node);
    const auto id = static_cast<net::FlowId>(i + 1);
    if (spec_.flow_maker) {
      app::Flow* f = arena_.create<app::Flow>(
          spec_.flow_maker(sim(), snd, rcv, id, fs));
      flows_.push_back({f->sender.get(), f->receiver.get()});
      continue;
    }
    // Each endpoint runs on its own node's shard; a flow whose path
    // crosses a cut has its two environments on different simulators.
    auto* snd_env = arena_.create<env::SimEnvironment>(sim_of(fs.src_node),
                                                       snd, rcv.id());
    auto* rcv_env = arena_.create<env::SimEnvironment>(sim_of(fs.dst_node),
                                                       rcv, snd.id());
    const app::SenderFactory::Entry& entry = factory.at(fs.variant);
    void* mem = arena_.allocate(entry.size, entry.align);
    tcp::TcpSenderBase* sender = arena_.adopt(
        factory.make_in(mem, fs.variant, *snd_env, id, fs.tcp));
    tcp::TcpReceiver* receiver = arena_.create<tcp::TcpReceiver>(
        *rcv_env, id, app::receiver_config_for(fs.variant, fs.tcp));
    flows_.push_back({sender, receiver});
  }

  for (std::size_t j = 0; j < spec_.cross_traffic.size(); ++j) {
    const CbrSpec& cs = spec_.cross_traffic[j];
    RRTCP_ASSERT_MSG(cs.src_node >= 0 && cs.dst_node >= 0,
                     "CBR streams need src_node/dst_node");
    RRTCP_ASSERT_MSG(cs.rate_bps > 0, "CBR streams need a rate > 0");
    const auto flow_id =
        static_cast<net::FlowId>(spec_.flows.size() + j + 1);
    net::Node& dst = graph_->node(cs.dst_node);
    cbr_sinks_.push_back(arena_.create<traffic::CbrSink>(dst, flow_id));
    cbr_sources_.push_back(arena_.create<traffic::CbrSource>(
        sim_of(cs.src_node), graph_->node(cs.src_node), flow_id, dst.id(),
        traffic::CbrConfig{cs.rate_bps, cs.packet_bytes, cs.start, cs.stop}));
  }

  // Traffic sources (FTP or ON/OFF), one per flow. ON/OFF sources derive
  // their RNG stream from the scenario seed and the flow index, so adding
  // or reordering other stochastic components never perturbs them.
  sources_.reserve(spec_.flows.size());
  onoffs_.reserve(spec_.flows.size());
  for (std::size_t i = 0; i < spec_.flows.size(); ++i) {
    const FlowSpec& fs = spec_.flows[i];
    sim::Simulator& at = sim_of(fs.src_node);
    if (fs.onoff) {
      traffic::OnOffConfig oc = *fs.onoff;
      oc.start = fs.start;
      sources_.push_back(nullptr);
      onoffs_.push_back(arena_.create<traffic::OnOffSource>(
          at, *flows_[i].sender, oc, spec_.seed,
          "onoff/" + std::to_string(i)));
    } else {
      sources_.push_back(arena_.create<app::FtpSource>(
          at, *flows_[i].sender, fs.start, fs.bytes));
      onoffs_.push_back(nullptr);
    }
  }

  // Instrumentation hangs off shard 0. Above one shard only the tracers
  // attach (they are plain sender observers and stay shard-local): an
  // audit session and the watchdog span both endpoints of a flow, which
  // may live on different shards.
  InstrumentationOptions opts = spec_.instruments;
  if (sharded) {
    opts.audit = AuditMode::kNone;
    opts.watchdog = false;
  }
  instrumentation_ = std::make_unique<Instrumentation>(sim(), opts);
  for (const FlowEnds& f : flows_)
    instrumentation_->attach(*f.sender, f.receiver);
  instrumentation_->attach_queues(*graph_, spec_.audited_links);

  if (sharded) {
    std::vector<sim::Simulator*> shards;
    for (const auto& s : sims_) shards.push_back(s.get());
    engine_ = std::make_unique<pdes::ShardEngine>(std::move(shards), part_,
                                                  *graph_);
  }
}

Scenario::~Scenario() = default;

std::uint64_t Scenario::run() {
  return engine_ ? engine_->run(spec_.horizon)
                 : sim().run_until(spec_.horizon);
}

std::uint64_t Scenario::rounds() const {
  return engine_ ? engine_->rounds() : 0;
}

std::uint64_t Scenario::cross_shard_packets() const {
  return engine_ ? engine_->cross_shard_packets() : 0;
}

}  // namespace rrtcp::harness
