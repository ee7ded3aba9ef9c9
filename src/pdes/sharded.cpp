#include "pdes/sharded.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "app/sender_factory.hpp"
#include "net/drop_tail.hpp"
#include "sim/assert.hpp"

namespace rrtcp::pdes {

ShardedScenario::ShardedScenario(harness::ScenarioSpec spec)
    : spec_{std::move(spec)} {
  spec_.expand_flow_sets();

  // Dumbbell mode, an explicit single shard, or a graph the partitioner
  // cannot split (all nodes reachable over zero-delay links) all run the
  // plain engine: shards=1 is not a special case of the PDES loop, it IS
  // the existing Scenario — byte-identical to every pinned trace.
  const bool want_pdes = spec_.shard_count > 1 && !spec_.graph.empty();
  if (want_pdes)
    part_ = topo::partition_graph(spec_.graph, spec_.shard_count);
  if (!want_pdes || part_.n_shards <= 1) {
    single_ = std::make_unique<harness::Scenario>(std::move(spec_));
    // Keep the stored spec readable through spec() even after delegating.
    spec_ = single_->spec();
    return;
  }

  RRTCP_ASSERT_MSG(!spec_.flow_maker,
                   "flow_maker hooks are not supported in sharded mode");
  table_ = topo::compute_route_table(spec_.graph);
  build_shards();
  build_flows();
  start_workers();
}

ShardedScenario::~ShardedScenario() { stop_workers(); }

std::unique_ptr<ShardedScenario> ShardedScenario::try_build(
    harness::ScenarioSpec spec, harness::SpecError* err) {
  if (std::optional<harness::SpecError> e = harness::Scenario::validate(spec)) {
    if (err != nullptr) *err = std::move(*e);
    return nullptr;
  }
  return std::make_unique<ShardedScenario>(std::move(spec));
}

void ShardedScenario::build_shards() {
  const topo::GraphSpec& g = spec_.graph;

  shards_.reserve(static_cast<std::size_t>(part_.n_shards));
  for (int s = 0; s < part_.n_shards; ++s) {
    auto sh = std::make_unique<Shard>();
    // Engine-tier selection must precede every schedule, as in Scenario.
    if (!spec_.timer_wheel) sh->sim.set_timer_wheel_enabled(false);
    shards_.push_back(std::move(sh));
  }
  merge_scratch_.resize(static_cast<std::size_t>(part_.n_shards));

  // Nodes carry their GLOBAL ids — flow/route addressing is identical to
  // the single-engine build; sharding only decides which simulator runs
  // each node's events.
  nodes_.reserve(g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i)
    nodes_.push_back(std::make_unique<net::Node>(static_cast<net::NodeId>(i)));

  // Links are owned by their tail's shard and scheduled on its simulator.
  // A cut link (head on another shard) delivers into its Channel instead
  // of a destination node.
  links_.reserve(g.links.size());
  for (std::size_t li = 0; li < g.links.size(); ++li) {
    const topo::LinkSpec& ls = g.links[li];
    Shard& owner = *shards_[static_cast<std::size_t>(part_.link_shard[li])];
    net::LinkConfig lc{ls.bandwidth_bps, ls.delay, ls.name};
    auto queue = ls.make_queue
                     ? ls.make_queue(owner.sim)
                     : std::make_unique<net::DropTailQueue>(ls.queue_packets);
    auto link =
        std::make_unique<net::Link>(owner.sim, std::move(lc), std::move(queue));
    link->set_dst(nodes_[static_cast<std::size_t>(ls.to)].get());
    links_.push_back(std::move(link));
  }
  for (const int li : part_.cut_links) {
    const topo::LinkSpec& ls = g.links[static_cast<std::size_t>(li)];
    auto ch = std::make_unique<Channel>(li);
    links_[static_cast<std::size_t>(li)]->set_remote_sink(ch.get());
    channels_.push_back(std::move(ch));
    channel_dst_.push_back(nodes_[static_cast<std::size_t>(ls.to)].get());
    channel_dst_shard_.push_back(
        part_.node_shard[static_cast<std::size_t>(ls.to)]);
  }

  // Install the GLOBAL next-hop table. Every route entry at node v names a
  // link leaving v, which v's shard owns — so each shard's forwarding is
  // self-contained.
  const int n = g.n_nodes();
  for (int at = 0; at < n; ++at) {
    for (int dst = 0; dst < n; ++dst) {
      const int li = table_[static_cast<std::size_t>(at) *
                                static_cast<std::size_t>(n) +
                            static_cast<std::size_t>(dst)];
      if (li >= 0)
        nodes_[static_cast<std::size_t>(at)]->add_route(
            static_cast<net::NodeId>(dst),
            links_[static_cast<std::size_t>(li)].get());
    }
  }
}

void ShardedScenario::build_flows() {
  const app::SenderFactory& factory = app::SenderFactory::instance();

  flows_.reserve(spec_.flows.size());
  for (std::size_t i = 0; i < spec_.flows.size(); ++i) {
    const harness::FlowSpec& fs = spec_.flows[i];
    RRTCP_ASSERT_MSG(fs.src_node >= 0 && fs.dst_node >= 0,
                     "graph-mode flows need src_node/dst_node");
    const auto id = static_cast<net::FlowId>(i + 1);
    net::Node& snd = *nodes_[static_cast<std::size_t>(fs.src_node)];
    net::Node& rcv = *nodes_[static_cast<std::size_t>(fs.dst_node)];
    Shard& snd_shard =
        *shards_[static_cast<std::size_t>(
            part_.node_shard[static_cast<std::size_t>(fs.src_node)])];
    Shard& rcv_shard =
        *shards_[static_cast<std::size_t>(
            part_.node_shard[static_cast<std::size_t>(fs.dst_node)])];

    ShardedFlow f;
    // Endpoints live on their own shard's simulator; a flow whose data
    // path crosses a cut simply has its two environments on different
    // engines (the env seam from PR 9 is what makes this a local choice).
    f.snd_env = arena_.create<env::SimEnvironment>(snd_shard.sim, snd,
                                                   rcv.id());
    f.rcv_env = arena_.create<env::SimEnvironment>(rcv_shard.sim, rcv,
                                                   snd.id());
    const app::SenderFactory::Entry& entry = factory.at(fs.variant);
    void* mem = arena_.allocate(entry.size, entry.align);
    f.sender = arena_.adopt(
        factory.make_in(mem, fs.variant, *f.snd_env, id, fs.tcp));
    f.receiver = arena_.create<tcp::TcpReceiver>(
        *f.rcv_env, id, app::receiver_config_for(fs.variant, fs.tcp));

    if (fs.onoff) {
      traffic::OnOffConfig oc = *fs.onoff;
      oc.start = fs.start;
      f.onoff = arena_.create<traffic::OnOffSource>(
          snd_shard.sim, *f.sender, oc, spec_.seed,
          "onoff/" + std::to_string(i));
    } else {
      f.ftp = arena_.create<app::FtpSource>(snd_shard.sim, *f.sender,
                                            fs.start, fs.bytes);
    }
    flows_.push_back(f);
  }

  for (std::size_t j = 0; j < spec_.cross_traffic.size(); ++j) {
    const harness::CbrSpec& cs = spec_.cross_traffic[j];
    RRTCP_ASSERT_MSG(cs.src_node >= 0 && cs.dst_node >= 0,
                     "graph-mode CBR streams need src_node/dst_node");
    RRTCP_ASSERT_MSG(cs.rate_bps > 0,
                     "graph-mode CBR streams need an explicit rate_bps");
    Shard& src_shard =
        *shards_[static_cast<std::size_t>(
            part_.node_shard[static_cast<std::size_t>(cs.src_node)])];
    const auto flow_id = static_cast<net::FlowId>(spec_.flows.size() + j + 1);
    net::Node& dst = *nodes_[static_cast<std::size_t>(cs.dst_node)];
    cbr_sinks_.push_back(arena_.create<traffic::CbrSink>(dst, flow_id));
    cbr_sources_.push_back(arena_.create<traffic::CbrSource>(
        src_shard.sim, *nodes_[static_cast<std::size_t>(cs.src_node)],
        flow_id, dst.id(),
        traffic::CbrConfig{cs.rate_bps, cs.packet_bytes, cs.start, cs.stop}));
  }

  // Tracers only: audit and watchdog are forced off in sharded mode (see
  // the header), so the Instrumentation never touches shard 0's simulator
  // beyond holding it. Tracers are shard-local — they hang off the sender.
  harness::InstrumentationOptions opts = spec_.instruments;
  opts.audit = harness::AuditMode::kNone;
  opts.watchdog = false;
  instrumentation_ =
      std::make_unique<harness::Instrumentation>(shards_[0]->sim, opts);
  for (const ShardedFlow& f : flows_)
    instrumentation_->attach(*f.sender, f.receiver);
}

void ShardedScenario::start_workers() {
  workers_.reserve(shards_.size());
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s)
    workers_.emplace_back([this, s] { worker_loop(s); });
}

void ShardedScenario::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void ShardedScenario::worker_loop(int shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  std::uint64_t seen = 0;
  for (;;) {
    sim::Time deadline;
    bool inclusive;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return shutdown_ || round_gen_ > seen; });
      if (shutdown_) return;
      seen = round_gen_;
      deadline = round_deadline_;
      inclusive = round_inclusive_;
    }
    // The shard event loop proper — runs outside the lock; all
    // cross-shard effects land in Channel buffers read only after the
    // barrier below.
    const std::uint64_t n = inclusive ? sh.sim.run_until(deadline)
                                      : sh.sim.run_before(deadline);
    {
      std::lock_guard<std::mutex> lk(mu_);
      sh.executed += n;
      if (--workers_running_ == 0) cv_done_.notify_all();
    }
  }
}

void ShardedScenario::parallel_window(sim::Time deadline, bool inclusive) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    workers_running_ = static_cast<int>(workers_.size());
    round_deadline_ = deadline;
    round_inclusive_ = inclusive;
    ++round_gen_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return workers_running_ == 0; });
  ++rounds_;
}

std::size_t ShardedScenario::merge_channels(sim::Time count_upto) {
  for (auto& scratch : merge_scratch_) scratch.clear();
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    Channel& ch = *channels_[c];
    std::vector<Channel::Msg>& inbox = ch.inbox();
    if (inbox.empty()) continue;
    auto& scratch =
        merge_scratch_[static_cast<std::size_t>(channel_dst_shard_[c])];
    for (Channel::Msg& m : inbox)
      scratch.push_back(Pending{m.arrival_ps, ch.link_index(), m.seq,
                                channel_dst_[c], std::move(m.pkt)});
    inbox.clear();
  }

  std::size_t due = 0;
  for (std::size_t s = 0; s < merge_scratch_.size(); ++s) {
    auto& scratch = merge_scratch_[s];
    if (scratch.empty()) continue;
    // Canonical cross-shard delivery order: arrival instant, then cut-link
    // index, then each link's FIFO sequence. Identical for every shard
    // count and thread schedule — this sort is the determinism contract.
    std::sort(scratch.begin(), scratch.end(),
              [](const Pending& a, const Pending& b) {
                if (a.arrival_ps != b.arrival_ps)
                  return a.arrival_ps < b.arrival_ps;
                if (a.link != b.link) return a.link < b.link;
                return a.seq < b.seq;
              });
    sim::Simulator& sim = shards_[s]->sim;
    for (Pending& p : scratch) {
      const sim::Time at = sim::Time::picoseconds(p.arrival_ps);
      if (at <= count_upto) ++due;
      net::Node* dst = p.dst;
      sim.schedule_at(at, [dst, pkt = std::move(p.pkt)]() mutable {
        dst->receive(std::move(pkt));
      });
    }
    scratch.clear();
  }
  return due;
}

std::uint64_t ShardedScenario::run() {
  if (single_) return single_->run();
  RRTCP_ASSERT_MSG(!ran_, "ShardedScenario::run is single-shot");
  ran_ = true;

  const sim::Time horizon = spec_.horizon;
  const sim::Time la = part_.lookahead;
  RRTCP_ASSERT(la > sim::Time::zero());

  // Conservative rounds over half-open windows [t, t+LA): no shard may
  // execute the boundary instant until the inboxes feeding it have merged.
  sim::Time t = sim::Time::zero();
  while (t + la < horizon) {
    t = t + la;
    parallel_window(t, /*inclusive=*/false);
    merge_channels(horizon);
  }
  // Terminal windows, deadline-inclusive like Scenario::run ==
  // run_until(horizon). A delivery can land exactly ON the horizon (send
  // at t, arrival t+LA == horizon), and executing it can emit nothing
  // earlier than horizon + serialization time — so the loop drains after
  // at most two passes; the count guards the general case.
  for (;;) {
    parallel_window(horizon, /*inclusive=*/true);
    if (merge_channels(horizon) == 0) break;
  }
  return events_executed();
}

std::uint64_t ShardedScenario::cross_shard_packets() const {
  std::uint64_t n = 0;
  for (const auto& ch : channels_) n += ch->total_pushed();
  return n;
}

std::uint64_t ShardedScenario::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->executed;
  return n;
}

int ShardedScenario::n_flows() const {
  return single_ ? single_->n_flows() : static_cast<int>(flows_.size());
}

tcp::TcpSenderBase& ShardedScenario::sender(int i) {
  return single_ ? single_->sender(i)
                 : *flows_.at(static_cast<std::size_t>(i)).sender;
}

tcp::TcpReceiver& ShardedScenario::receiver(int i) {
  return single_ ? *single_->flow(i).receiver
                 : *flows_.at(static_cast<std::size_t>(i)).receiver;
}

app::FtpSource* ShardedScenario::source(int i) {
  return single_ ? single_->source(i)
                 : flows_.at(static_cast<std::size_t>(i)).ftp;
}

harness::FlowInstruments& ShardedScenario::instruments(int i) {
  return single_ ? single_->instruments(i)
                 : instrumentation_->flow(static_cast<std::size_t>(i));
}

int ShardedScenario::n_cbr() const {
  return single_ ? single_->n_cbr() : static_cast<int>(cbr_sinks_.size());
}

traffic::CbrSink& ShardedScenario::cbr_sink(int i) {
  return single_ ? single_->cbr_sink(i)
                 : *cbr_sinks_.at(static_cast<std::size_t>(i));
}

net::Link& ShardedScenario::link(int i) {
  return single_ ? single_->graph().link(i)
                 : *links_.at(static_cast<std::size_t>(i));
}

}  // namespace rrtcp::pdes
