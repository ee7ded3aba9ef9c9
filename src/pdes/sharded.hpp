// Sharded conservative-synchronization simulation engine.
//
// One scenario, many cores: the topology graph is partitioned into
// per-shard subgraphs (topo/partition.hpp — cut only at links, zero-delay
// links never cut), each shard runs its own pooled wheel+heap
// sim::Simulator on a dedicated thread, and the shards synchronize with
// classic conservative lookahead (null-message/barrier PDES):
//
//   lookahead LA = min propagation delay over all cut links (> 0).
//   Round k covers the half-open window [k*LA, (k+1)*LA): every shard
//   calls Simulator::run_before((k+1)*LA), so no event at or past the
//   boundary fires early. A packet crossing a cut link is handed off at
//   its serialization end t_done (net::RemoteSink), stamped with its
//   arrival time t_done + prop_delay + jitter >= t_done + LA >= (k+1)*LA —
//   i.e. every cross-shard packet produced in round k arrives at or after
//   the next boundary, so merging inboxes AT the boundary can never
//   deliver into a shard's past. That is the whole causality proof: the
//   propagation pipe of the cut links funds the lookahead.
//
// Between rounds the coordinator thread (the caller of run()) drains every
// channel and schedules the arrivals into the destination shards in one
// canonical order — (arrival time, cut-link index, per-channel sequence) —
// so the merge is deterministic for ANY shard count and thread timing.
// Determinism contract (DESIGN.md §17): a fixed spec at a fixed shard
// count is bit-repeatable regardless of thread scheduling, and across
// shard counts 1, 2, 4, 8, ... the same ScenarioSpec produces identical
// per-flow traces for tie-free workloads — no two packets arriving at one
// node at the same picosecond via different links. (At such a tie the
// single engine orders deliveries by serialization-end insertion order,
// which a shard cannot observe across the cut; symmetric topologies with
// identical rates and delays can manufacture ties, see DESIGN.md §17 for
// the exact condition and which presets are tie-safe by construction.)
// With shard_count <= 1 (or a graph that does not partition)
// ShardedScenario delegates to the plain harness::Scenario, byte-identical
// to today's single-engine runs by construction.
//
// Thread-safety model: there are no locks on the packet path. Channel
// buffers are written only by the owning source shard DURING a round and
// read only by the coordinator BETWEEN rounds; the round barrier (one
// mutex + condvars) provides the happens-before edges. Audit and watchdog
// are forced off in sharded mode (an AuditSession spans both endpoints of
// a flow, which may live on different shards); per-flow tracers are plain
// sender observers and stay shard-local, attached through one
// harness::Instrumentation like the single engine's.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "app/flow_factory.hpp"
#include "app/ftp.hpp"
#include "env/sim_env.hpp"
#include "harness/instrumentation.hpp"
#include "harness/scenario.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "pdes/flow_arena.hpp"
#include "sim/hot.hpp"
#include "sim/simulator.hpp"
#include "topo/partition.hpp"
#include "traffic/cbr.hpp"
#include "traffic/onoff.hpp"

namespace rrtcp::pdes {

// One cut link's cross-shard mailbox. push() runs on the source shard's
// thread during a round; the buffer is drained by the coordinator between
// rounds (phase separation — no lock). The per-channel sequence number
// makes the canonical merge order total: (arrival, link index, seq), with
// seq preserving each link's FIFO delivery order.
class Channel final : public net::RemoteSink {
 public:
  struct Msg {
    std::int64_t arrival_ps;
    std::uint64_t seq;
    net::Packet pkt;
  };

  explicit Channel(int link_index) : link_{link_index} {}

  RRTCP_HOT void push(sim::Time arrival, net::Packet p) override {
    // The coordinator's drain clear()s the buffer but keeps its capacity,
    // so growth amortizes away after the first few rounds.
    // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
    buf_.push_back(Msg{arrival.ps(), seq_++, std::move(p)});
  }

  int link_index() const { return link_; }
  std::vector<Msg>& inbox() { return buf_; }
  std::uint64_t total_pushed() const { return seq_; }

 private:
  int link_;
  std::uint64_t seq_ = 0;
  std::vector<Msg> buf_;
};

// Sharded counterpart of harness::Scenario. Graph-mode specs with
// spec.shard_count > 1 run on the PDES engine; everything else (dumbbell
// mode, shard_count <= 1, or a graph the partitioner cannot split) runs on
// an embedded plain Scenario — the byte-identical legacy path.
class ShardedScenario {
 public:
  explicit ShardedScenario(harness::ScenarioSpec spec);
  ~ShardedScenario();
  ShardedScenario(const ShardedScenario&) = delete;
  ShardedScenario& operator=(const ShardedScenario&) = delete;

  // Scenario::validate + construct, mirroring Scenario::try_build.
  static std::unique_ptr<ShardedScenario> try_build(
      harness::ScenarioSpec spec, harness::SpecError* err = nullptr);

  // Runs the whole horizon (single shot). Returns events executed across
  // all shards, including the merged cross-shard deliveries.
  std::uint64_t run();

  // True when the PDES engine is active (false = delegated to Scenario).
  bool sharded() const { return single_ == nullptr; }
  // The delegate, present only when !sharded().
  harness::Scenario* single() { return single_.get(); }

  int n_shards() const { return sharded() ? part_.n_shards : 1; }
  sim::Time lookahead() const { return part_.lookahead; }
  const topo::Partition& partition() const { return part_; }
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t cross_shard_packets() const;
  std::uint64_t events_executed() const;

  int n_flows() const;
  tcp::TcpSenderBase& sender(int i);
  tcp::TcpReceiver& receiver(int i);
  int n_cbr() const;
  traffic::CbrSink& cbr_sink(int i);
  // Graph-mode link by GLOBAL index (the GraphSpec's numbering) — the same
  // index space as Scenario::graph().link(i), whichever shard owns it.
  net::Link& link(int i);
  // The FTP source of flow i; null for ON/OFF flows.
  app::FtpSource* source(int i);
  harness::FlowInstruments& instruments(int i);

  const harness::ScenarioSpec& spec() const { return spec_; }
  FlowArena& arena() { return arena_; }

 private:
  struct Shard {
    sim::Simulator sim;
    std::uint64_t executed = 0;
  };
  // One cross-shard packet in flight during a merge, with its canonical
  // sort key.
  struct Pending {
    std::int64_t arrival_ps;
    int link;
    std::uint64_t seq;
    net::Node* dst;
    net::Packet pkt;
  };
  struct ShardedFlow {
    env::SimEnvironment* snd_env = nullptr;
    env::SimEnvironment* rcv_env = nullptr;
    tcp::TcpSenderBase* sender = nullptr;
    tcp::TcpReceiver* receiver = nullptr;
    app::FtpSource* ftp = nullptr;
    traffic::OnOffSource* onoff = nullptr;
  };

  void build_shards();
  void build_flows();
  void start_workers();
  void stop_workers();
  void worker_loop(int shard);
  // Dispatch one synchronized window to every shard and wait for the
  // barrier: run_before(deadline) when !inclusive, run_until(deadline)
  // (events at the deadline fire) for the terminal window(s).
  void parallel_window(sim::Time deadline, bool inclusive);
  // Drain every channel into the destination shards in canonical order.
  // Returns how many merged arrivals are at or before `count_upto` — the
  // terminal loop repeats inclusive windows until this reaches zero, so
  // deliveries landing exactly on the horizon fire just as they do in a
  // single-engine run_until(horizon).
  std::size_t merge_channels(sim::Time count_upto);

  harness::ScenarioSpec spec_;
  std::unique_ptr<harness::Scenario> single_;  // delegate when !sharded()

  topo::Partition part_;
  std::vector<int> table_;  // global next-hop table (topo::compute_route_table)
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<net::Node>> nodes_;   // global node index
  std::vector<std::unique_ptr<net::Link>> links_;   // global link index
  std::vector<std::unique_ptr<Channel>> channels_;  // one per cut link
  std::vector<net::Node*> channel_dst_;             // cut link's head node
  std::vector<int> channel_dst_shard_;
  std::vector<std::vector<Pending>> merge_scratch_;  // per dest shard

  // Arena-backed per-flow state. Declared after the shards/nodes/links so
  // it is destroyed FIRST: endpoint destructors detach from nodes and
  // release timers into their shard's simulator, which must still exist.
  FlowArena arena_;
  std::vector<ShardedFlow> flows_;
  std::vector<traffic::CbrSource*> cbr_sources_;  // arena-owned
  std::vector<traffic::CbrSink*> cbr_sinks_;      // arena-owned
  // Per-flow tracers. Declared after the arena so it detaches from the
  // senders before they die.
  std::unique_ptr<harness::Instrumentation> instrumentation_;

  // Round barrier. Workers wait for round_gen_ to advance, run their
  // window, then the last one to finish wakes the coordinator.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t round_gen_ = 0;
  sim::Time round_deadline_ = sim::Time::zero();
  bool round_inclusive_ = false;
  bool shutdown_ = false;
  int workers_running_ = 0;
  std::vector<std::thread> workers_;

  std::uint64_t rounds_ = 0;
  bool ran_ = false;
};

}  // namespace rrtcp::pdes
