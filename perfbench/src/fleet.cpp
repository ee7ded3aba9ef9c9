// fleet_single: bench_shard's 10,000-flow fleet.
//
// 10,000 x 50 kB FTP transfers (RR/New-Reno/SACK/Reno, a quarter each) on
// 64 sender hosts of a 1 Gbit/s multi-dumbbell (99 nodes), 20 s simulated
// — long enough that every flow completes (the last near 11.3 s). Each
// round builds a harness::Scenario (one engine, no src/pdes). A traced
// round also runs the identical spec on a pdes::ShardedScenario at 3
// shards, which must deliver the identical 500 MB, for the pdes.* metrics.
// The workload seed rotates which host gets which variant and 0-6 ms start
// offset; every seed keeps 16 hosts per variant and the same flows and
// bytes.
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "counters.hpp"
#include "harness/scenario.hpp"
#include "pdes/sharded.hpp"
#include "proc.hpp"
#include "timing_env.hpp"
#include "topo/partition.hpp"
#include "topo/presets.hpp"

namespace perfbench {
namespace {

using namespace rrtcp;

constexpr int kFlows = 10'000;
constexpr int kHosts = 64;
constexpr std::uint64_t kFlowBytes = 50'000;
constexpr std::int64_t kBottleneckBps = 1'000'000'000;
constexpr int kShards = 3;  // the traced PDES run
const sim::Time kHorizon = sim::Time::seconds(20);

struct FleetSpec {
  harness::ScenarioSpec spec;
  int bottleneck_link = -1;
};

FleetSpec make_spec(std::uint64_t seed, int shards) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = kHosts;
  mdc.m_receivers = kHosts / 2;
  mdc.side_delay = sim::Time::milliseconds(5);  // cuttable access links
  mdc.bottleneck_delay = sim::Time::milliseconds(20);
  mdc.bottleneck_bps = kBottleneckBps;
  mdc.side_bps = 100'000'000;
  mdc.queue_packets = 256;
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  FleetSpec fs;
  fs.bottleneck_link = md.bottleneck_link;
  harness::ScenarioSpec& spec = fs.spec;
  spec.name = "fleet";
  spec.graph = md.spec;
  spec.shard_count = shards;
  spec.horizon = kHorizon;
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.instruments.watchdog = false;

  static constexpr app::Variant kMix[] = {
      app::Variant::kRr, app::Variant::kNewReno, app::Variant::kSack,
      app::Variant::kReno};
  const int rot = static_cast<int>(seed % 28);  // lcm(4, 7)
  const int per_host = (kFlows + kHosts - 1) / kHosts;
  int remaining = kFlows;
  for (int h = 0; h < kHosts && remaining > 0; ++h) {
    harness::FlowSet set;
    set.count = std::min(per_host, remaining);
    set.proto.variant = kMix[(h + rot) % 4];
    set.proto.bytes = kFlowBytes;
    set.proto.start = sim::Time::milliseconds((h + rot) % 7);
    set.proto.src_node = md.senders[static_cast<std::size_t>(h)];
    set.proto.dst_node =
        md.receivers[static_cast<std::size_t>(h % (kHosts / 2))];
    set.stagger = sim::Time::milliseconds(1);
    spec.add_flow_set(set);
    remaining -= set.count;
  }
  return fs;
}

// The two engines expose receivers and links through different accessors.
tcp::TcpReceiver& receiver_of(harness::Scenario& sc, int i) {
  return *sc.flow(i).receiver;
}
tcp::TcpReceiver& receiver_of(pdes::ShardedScenario& sc, int i) {
  return sc.receiver(i);
}
net::Link& link_of(harness::Scenario& sc, int i) { return sc.graph().link(i); }
net::Link& link_of(pdes::ShardedScenario& sc, int i) { return sc.link(i); }

// Checks every flow and the fleet-wide invariants; fills the counters.
template <typename Sc>
void check_fleet(Sc& sc, int n_links, int bottleneck_link, Round& r,
                 NetCounters& net, TcpCounters& tcp) {
  std::uint64_t delivered = 0;
  for (int i = 0; i < sc.n_flows(); ++i) {
    const tcp::TcpReceiver& rcv = receiver_of(sc, i);
    tcp.add(sc.sender(i), rcv);
    delivered += rcv.bytes_in_order();
    r.payload_bytes += rcv.bytes_in_order();
    r.check(sc.sender(i).complete() && rcv.bytes_in_order() == kFlowBytes,
            "flow " + std::to_string(i + 1) + " delivered " +
                std::to_string(rcv.bytes_in_order()) + " bytes");
  }
  // Every node is the head of some link, so this reaches all of them on
  // either engine.
  std::unordered_set<const net::Node*> nodes;
  for (int i = 0; i < n_links; ++i) {
    net::Link& l = link_of(sc, i);
    net.add_link(i, l);
    if (l.dst() != nullptr && nodes.insert(l.dst()).second)
      net.add_node(*l.dst());
  }
  r.check(net.undeliverable == 0,
          std::to_string(net.undeliverable) + " undeliverable packets");
  r.check(net.inconsistent_queue < 0,
          "queue " + std::to_string(net.inconsistent_queue) +
              ": enqueued - dequeued != length");
  const double bottleneck_bits =
      static_cast<double>(link_of(sc, bottleneck_link)
                              .bytes_delivered()) * 8.0;
  r.check(bottleneck_bits <= kBottleneckBps * kHorizon.to_seconds(),
          "bottleneck carried more than rate x horizon");
  r.check(delivered == static_cast<std::uint64_t>(kFlows) * kFlowBytes,
          "fleet delivered " + std::to_string(delivered) + " bytes, not " +
              std::to_string(static_cast<std::uint64_t>(kFlows) * kFlowBytes));
}

// Stamps each flow's host completion time (seconds after `run_start`,
// filled in once the run has begun) from its sender's completion callback.
template <typename Sc>
class CompletionStamps {
 public:
  explicit CompletionStamps(Sc& sc) : at_(static_cast<std::size_t>(sc.n_flows())) {
    for (int i = 0; i < sc.n_flows(); ++i)
      sc.sender(i).set_complete_callback(
          [slot = &at_[static_cast<std::size_t>(i)]](rrtcp::sim::Time) {
            *slot = Clock::now();
          });
  }
  // Completion times of the flows that completed, relative to `run_start`.
  void collect(Clock::time_point run_start, std::vector<double>& out) const {
    for (const Clock::time_point& t : at_)
      if (t != Clock::time_point{}) out.push_back(seconds_between(run_start, t));
  }

 private:
  std::vector<Clock::time_point> at_;
};

void time_topology_calls(const harness::ScenarioSpec& spec, Round& r) {
  const auto t0 = Clock::now();
  const std::vector<int> table = topo::compute_route_table(spec.graph);
  const auto t1 = Clock::now();
  const topo::Partition part = topo::partition_graph(spec.graph, kShards);
  const auto t2 = Clock::now();
  r.layer["topo.route_s"] = seconds_between(t0, t1);
  r.layer["topo.partition_s"] = seconds_between(t1, t2);
}

Round single_round(const RoundContext& ctx) {
  Round r;
  FleetSpec fs = make_spec(ctx.seed, 1);
  const int n_links = static_cast<int>(fs.spec.graph.links.size());
  CallbackClock clock;
  if (ctx.traced) {
    fs.spec.flow_maker = timed_flow_maker(clock);
    time_topology_calls(fs.spec, r);
  }
  ScopedSpan round_span{ctx.spans, "fleet_single round"};

  const std::uint64_t a0 = alloc_count::all_threads();
  const auto t0 = Clock::now();
  std::unique_ptr<harness::Scenario> sc;
  {
    ScopedSpan s{ctx.spans, "build", round_span.index()};
    sc = std::make_unique<harness::Scenario>(std::move(fs.spec));
  }
  const auto t1 = Clock::now();
  const std::uint64_t a1 = alloc_count::all_threads();
  const CompletionStamps stamps{*sc};

  std::uint64_t pending_max = 0, stale_max = 0;
  const auto t_run = Clock::now();
  {
    ScopedSpan s{ctx.spans, "run", round_span.index()};
    if (ctx.traced) {
      const sim::Time slice = sim::Time::milliseconds(50);
      for (sim::Time t = slice; ; t = t + slice) {
        sc->run_until(std::min(t, kHorizon));
        pending_max = std::max<std::uint64_t>(pending_max,
                                              sc->sim().pending_events());
        stale_max = std::max<std::uint64_t>(stale_max,
                                            sc->sim().stale_heap_entries());
        if (!(t < kHorizon)) break;
      }
    } else {
      sc->run();
    }
    s.counter("events", static_cast<double>(sc->sim().events_executed()));
  }
  const auto t2 = Clock::now();
  const std::uint64_t a2 = alloc_count::all_threads();
  r.setup_s = seconds_between(t0, t1);
  r.run_s = seconds_between(t_run, t2);
  stamps.collect(t_run, r.fct_s);

  ScopedSpan check_span{ctx.spans, "check", round_span.index()};
  NetCounters net;
  TcpCounters tcp;
  check_fleet(*sc, n_links, fs.bottleneck_link, r, net, tcp);

  auto& m = r.layer;
  put_sim(m, sc->sim().events_executed(), tcp.delivered_pkts, r.run_s);
  m["sim.pool_slots"] = static_cast<double>(sc->sim().event_pool_slots());
  m["sim.heap_fallbacks"] =
      static_cast<double>(sc->sim().callback_heap_fallbacks());
  put_net(m, net);
  put_tcp(m, tcp);
  m["alloc.setup"] = static_cast<double>(a1 - a0);
  m["alloc.per_pkt"] = static_cast<double>(a2 - a1) / tcp.delivered_pkts;
  if (ctx.traced) {
    m["sim.pending_max"] = static_cast<double>(pending_max);
    m["sim.stale_heap_max"] = static_cast<double>(stale_max);
    m["tcp.callback_s"] = clock.seconds;
  }
  return r;
}

// The traced PDES run of the same spec at kShards shards: checked like the
// single engine, it reports only the pdes.* metrics. `single_events`: the
// single engine's event count, for pdes.extra_events.
Round sharded_round(const RoundContext& ctx, std::uint64_t single_events) {
  Round r;
  FleetSpec fs = make_spec(ctx.seed, kShards);
  const int n_links = static_cast<int>(fs.spec.graph.links.size());
  ScopedSpan round_span{ctx.spans, "fleet 3-shard round"};

  std::unique_ptr<pdes::ShardedScenario> sc;
  {
    ScopedSpan s{ctx.spans, "build", round_span.index()};
    sc = std::make_unique<pdes::ShardedScenario>(std::move(fs.spec));
  }
  r.check(sc->sharded() && sc->n_shards() == kShards,
          "fleet did not partition into " + std::to_string(kShards) +
              " shards");

  // Thread CPU of the coordinator (this thread) and of every other task
  // (the shard workers, which exist from construction to destruction).
  const TaskCpu cpu0 = read_task_cpu();
  const double coord0 = thread_cpu_seconds();
  std::uint64_t events = 0;
  const auto t_run = Clock::now();
  {
    ScopedSpan s{ctx.spans, "run", round_span.index()};
    events = sc->run();
    s.counter("events", static_cast<double>(events));
    s.counter("rounds", static_cast<double>(sc->rounds()));
  }
  const double run_s = seconds_between(t_run, Clock::now());
  const double coord_s = thread_cpu_seconds() - coord0;
  const TaskCpu cpu1 = read_task_cpu();

  ScopedSpan check_span{ctx.spans, "check", round_span.index()};
  NetCounters net;
  TcpCounters tcp;
  check_fleet(*sc, n_links, fs.bottleneck_link, r, net, tcp);

  const std::vector<double> busy = worker_cpu_deltas(cpu0, cpu1);
  double sum = 0.0, max = 0.0;
  for (double b : busy) {
    sum += b;
    max = std::max(max, b);
  }
  auto& m = r.layer;
  m["pdes.rounds"] = static_cast<double>(sc->rounds());
  m["pdes.cross_pkts"] = static_cast<double>(sc->cross_shard_packets());
  m["pdes.bytes_per_flow"] =
      static_cast<double>(sc->arena().bytes_reserved()) / sc->n_flows();
  m["pdes.worker_busy_s"] = sum;
  m["pdes.coordinator_s"] = coord_s;
  m["pdes.barrier_wait_s"] =
      std::max(0.0, static_cast<double>(busy.size()) * run_s - sum);
  m["pdes.imbalance"] =
      sum > 0.0 ? max / (sum / static_cast<double>(busy.size())) : 0.0;
  m["pdes.extra_events"] =
      static_cast<double>(events) - static_cast<double>(single_events);
  return r;
}

}  // namespace

Round fleet_round(const RoundContext& ctx) {
  Round r = single_round(ctx);
  if (ctx.traced) {
    // The PDES layer on the identical spec: a traced round also runs it at
    // kShards shards, checks it like the single engine, and contributes
    // the pdes.* metrics.
    const Round s = sharded_round(
        ctx, static_cast<std::uint64_t>(r.layer.at("sim.events")));
    r.attempted += s.attempted;
    r.failed += s.failed;
    r.failures.insert(r.failures.end(), s.failures.begin(), s.failures.end());
    r.layer.insert(s.layer.begin(), s.layer.end());
  }
  return r;
}

}  // namespace perfbench
