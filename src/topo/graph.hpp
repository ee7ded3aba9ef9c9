// Declarative topology graph.
//
// A GraphSpec is a plain value: named nodes, directed links (bandwidth,
// propagation delay, queue), and optional explicit route entries. A
// TopologyGraph materializes the spec into net::Node / net::Link objects
// and installs STATIC routes: explicit entries win; everything else comes
// from deterministic shortest-path (BFS hop count, ties broken by lowest
// link index — the same spec always yields the same forwarding tables).
//
// This is the layer that generalizes the paper's two-router dumbbell into
// parking-lot / multi-bottleneck / NxM topologies; DumbbellTopology
// (net/dumbbell.hpp) is now a thin preset on top of it, and
// topo::ParkingLotTopology (topo/presets.hpp) is the canonical
// multi-bottleneck chain. Forwarding stays on the pooled simulator fast
// path: route resolution is the same per-destination table lookup in
// net::Node the dumbbell always used, so the 0-allocs/packet guarantee of
// DESIGN.md §11 holds for any graph.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/queue_disc.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rrtcp::topo {

// One directed link of the spec. The queue defaults to a drop-tail buffer
// of `queue_packets`; `make_queue` overrides it (e.g. RED on a bottleneck).
struct LinkSpec {
  int from = -1;
  int to = -1;
  std::int64_t bandwidth_bps = 10'000'000;
  sim::Time delay = sim::Time::zero();
  std::uint64_t queue_packets = 10'000;
  // Optional queue factory; wins over queue_packets when set. Receives the
  // simulator so time-coupled disciplines (RED) can be built.
  std::function<std::unique_ptr<net::QueueDisc>(sim::Simulator&)> make_queue =
      {};
  std::string name = {};  // auto-generated "A->B" from node names when empty
};

// An explicit routing entry: at node `at`, packets for destination `dst`
// leave via link `link`. Overrides the shortest-path choice.
struct RouteSpec {
  int at = -1;
  int dst = -1;
  int link = -1;
};

struct GraphSpec {
  std::vector<std::string> nodes;
  std::vector<LinkSpec> links;
  std::vector<RouteSpec> routes;

  bool empty() const { return nodes.empty(); }
  int n_nodes() const { return static_cast<int>(nodes.size()); }

  // Adds a node; returns its index (== its net::NodeId).
  int add_node(std::string name = "");
  // Adds a directed link; returns its index.
  int add_link(LinkSpec l);
  // Adds the two directed links of a duplex pair (a->b first); returns the
  // index of the a->b link (the b->a link is that index + 1).
  int add_duplex(int a, int b, std::int64_t bandwidth_bps, sim::Time delay,
                 std::uint64_t queue_packets = 10'000);
  void add_route(int at, int dst, int link) { routes.push_back({at, dst, link}); }
};

class TopologyGraph {
 public:
  // Every node on one simulator.
  TopologyGraph(sim::Simulator& sim, GraphSpec spec);
  // Node i on *node_sim[i]: each link (and its queue) is built on the
  // simulator of its tail node, as the sharded engine needs. Cut links get
  // their cross-shard sink afterwards (net::Link::set_remote_sink).
  TopologyGraph(const std::vector<sim::Simulator*>& node_sim, GraphSpec spec);
  TopologyGraph(const TopologyGraph&) = delete;
  TopologyGraph& operator=(const TopologyGraph&) = delete;

  int n_nodes() const { return static_cast<int>(nodes_.size()); }
  int n_links() const { return static_cast<int>(links_.size()); }

  net::Node& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  net::Link& link(int i) { return *links_.at(static_cast<std::size_t>(i)); }
  const std::string& node_name(int i) const {
    return spec_.nodes.at(static_cast<std::size_t>(i));
  }

  // First link from -> to, or nullptr.
  net::Link* link_between(int from, int to);

  // The link index a packet at `at` destined for `dst` departs on, or -1
  // if `dst` is unreachable from `at` (the node drops such packets).
  int route(int at, int dst) const {
    return table_[static_cast<std::size_t>(at) *
                      static_cast<std::size_t>(n_nodes()) +
                  static_cast<std::size_t>(dst)];
  }

  // The link indices of the (static) path from -> dst; empty when
  // unreachable. Convenience for tests and path-property assertions.
  std::vector<int> path_links(int from, int dst) const;

  const GraphSpec& spec() const { return spec_; }

 private:
  void build(const std::vector<sim::Simulator*>& node_sim);
  void compute_routes();

  GraphSpec spec_;
  std::vector<std::unique_ptr<net::Node>> nodes_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<int> table_;  // n_nodes x n_nodes next-hop link index, -1 none
};

}  // namespace rrtcp::topo
