// Dumbbell topology preset (the paper's Figure 4).
//
//   S1 ---\                      /--- K1
//   S2 ----+-- R1 ======= R2 ---+---- K2
//   Sn ---/    (bottleneck)      \--- Kn
//
// n sender hosts S_i and receiver hosts K_i around two gateways. The
// forward bottleneck R1->R2 carries data; the reverse bottleneck R2->R1
// carries ACKs. The queue discipline *under test* sits on the forward
// bottleneck; every other buffer is a large drop-tail queue (effectively
// lossless), matching the paper's setup where all drops happen at R1.
//
// The dumbbell is a pure graph preset: dumbbell_spec() emits a
// topo::GraphSpec with the node ids, link order and queues of the original
// hand-built wiring (traces are byte-identical), and DumbbellTopology is
// the accessor surface over a built one, owned or viewed. The reverse
// bottleneck is first-class: rate, delay and queue are configurable so
// ACK-path congestion is reachable (reverse bulk flows, ACK compression).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "topo/graph.hpp"

namespace rrtcp::net {

struct DumbbellConfig {
  int n_flows = 3;
  std::int64_t bottleneck_bps = 800'000;                     // Table 3
  sim::Time bottleneck_delay = sim::Time::milliseconds(100); // one-way
  std::int64_t side_bps = 10'000'000;                        // Table 3
  sim::Time side_delay = sim::Time::zero();
  // Optional per-flow override of the sender-side access delay (S_i<->R1,
  // both directions): lets scenarios give flows heterogeneous RTTs (the
  // classic AIMD RTT-unfairness setup). Takes precedence over side_delay
  // for the flows it returns a value for.
  std::function<std::optional<sim::Time>(int flow_index)> side_delay_for;
  // Factory for the forward-bottleneck queue (the device under test).
  // Default: drop-tail with 8-packet buffer (Table 3).
  std::function<std::unique_ptr<QueueDisc>(sim::Simulator&)>
      make_bottleneck_queue;
  // Buffers everywhere else — large enough to be lossless.
  std::uint64_t side_queue_packets = 10'000;
  std::uint64_t reverse_queue_packets = 10'000;
  // Reverse-bottleneck overrides (R2->R1, the ACK path). Defaults mirror
  // the forward bottleneck's rate/delay with the deep drop-tail buffer
  // above — the paper's effectively-uncongested ACK path. Set a slower
  // rate / smaller queue (or a factory) to make ACK-path congestion real.
  std::int64_t reverse_bps = 0;                 // 0 = bottleneck_bps
  std::optional<sim::Time> reverse_delay;       // nullopt = bottleneck_delay
  std::function<std::unique_ptr<QueueDisc>(sim::Simulator&)>
      make_reverse_queue;
};

// Node-index layout of dumbbell_spec: R1, R2, the n sender hosts, then the
// n receiver hosts. Link 0 is the forward bottleneck R1->R2, link 1 the
// reverse bottleneck R2->R1.
inline constexpr int kDumbbellR1 = 0;
inline constexpr int kDumbbellR2 = 1;
constexpr int dumbbell_sender(int i) { return 2 + i; }
constexpr int dumbbell_receiver(int n_flows, int i) { return 2 + n_flows + i; }

// The Figure 4 dumbbell for cfg.n_flows host pairs, as a plain graph spec.
topo::GraphSpec dumbbell_spec(const DumbbellConfig& cfg);

class DumbbellTopology {
 public:
  // Builds (and owns) the graph of dumbbell_spec(cfg) on `sim`.
  DumbbellTopology(sim::Simulator& sim, DumbbellConfig cfg);
  // A view over a graph already built from dumbbell_spec(cfg); the graph
  // must outlive this object.
  DumbbellTopology(topo::TopologyGraph& graph, DumbbellConfig cfg);

  Node& sender_node(int i) { return graph_->node(sender_index(i)); }
  Node& receiver_node(int i) { return graph_->node(receiver_index(i)); }
  Node& r1() { return graph_->node(kDumbbellR1); }
  Node& r2() { return graph_->node(kDumbbellR2); }

  // The links hosting the shared queues.
  Link& bottleneck() { return graph_->link(0); }          // R1 -> R2 (data)
  Link& reverse_bottleneck() { return graph_->link(1); }  // R2 -> R1 (ACKs)

  // The underlying graph (node indices via *_index below).
  topo::TopologyGraph& graph() { return *graph_; }
  int sender_index(int i) const { return dumbbell_sender(i); }
  int receiver_index(int i) const {
    return dumbbell_receiver(cfg_.n_flows, i);
  }

  // Round-trip propagation+transmission baseline for a 1000 B packet (no
  // queueing), useful for sanity checks in tests.
  sim::Time base_rtt(std::uint32_t data_bytes, std::uint32_t ack_bytes) const;

 private:
  DumbbellConfig cfg_;
  std::unique_ptr<topo::TopologyGraph> owned_;  // null for a view
  topo::TopologyGraph* graph_;
};

}  // namespace rrtcp::net
