#include "topo/graph.hpp"

#include "net/drop_tail.hpp"
#include "sim/assert.hpp"
#include "topo/partition.hpp"

namespace rrtcp::topo {

int GraphSpec::add_node(std::string name) {
  const int id = static_cast<int>(nodes.size());
  if (name.empty()) name = std::string{"N"}.append(std::to_string(id));
  nodes.push_back(std::move(name));
  return id;
}

int GraphSpec::add_link(LinkSpec l) {
  RRTCP_ASSERT(l.from >= 0 && l.from < n_nodes());
  RRTCP_ASSERT(l.to >= 0 && l.to < n_nodes());
  RRTCP_ASSERT(l.from != l.to);
  const int id = static_cast<int>(links.size());
  if (l.name.empty()) {
    // append() instead of operator+ chains: GCC 12 -O2 trips a -Wrestrict
    // false positive on the temporary-string concatenation.
    l.name = nodes[static_cast<std::size_t>(l.from)];
    l.name.append("->").append(nodes[static_cast<std::size_t>(l.to)]);
  }
  links.push_back(std::move(l));
  return id;
}

int GraphSpec::add_duplex(int a, int b, std::int64_t bandwidth_bps,
                          sim::Time delay, std::uint64_t queue_packets) {
  LinkSpec fwd;
  fwd.from = a;
  fwd.to = b;
  fwd.bandwidth_bps = bandwidth_bps;
  fwd.delay = delay;
  fwd.queue_packets = queue_packets;
  const int id = add_link(std::move(fwd));
  LinkSpec rev;
  rev.from = b;
  rev.to = a;
  rev.bandwidth_bps = bandwidth_bps;
  rev.delay = delay;
  rev.queue_packets = queue_packets;
  add_link(std::move(rev));
  return id;
}

TopologyGraph::TopologyGraph(sim::Simulator& sim, GraphSpec spec)
    : spec_{std::move(spec)} {
  build(std::vector<sim::Simulator*>(spec_.nodes.size(), &sim));
}

TopologyGraph::TopologyGraph(const std::vector<sim::Simulator*>& node_sim,
                             GraphSpec spec)
    : spec_{std::move(spec)} {
  build(node_sim);
}

void TopologyGraph::build(const std::vector<sim::Simulator*>& node_sim) {
  RRTCP_ASSERT_MSG(!spec_.empty(), "topology graph needs at least one node");
  RRTCP_ASSERT(node_sim.size() == spec_.nodes.size());

  nodes_.reserve(spec_.nodes.size());
  for (std::size_t i = 0; i < spec_.nodes.size(); ++i)
    nodes_.push_back(std::make_unique<net::Node>(static_cast<net::NodeId>(i)));

  links_.reserve(spec_.links.size());
  for (const LinkSpec& ls : spec_.links) {
    sim::Simulator& sim = *node_sim[static_cast<std::size_t>(ls.from)];
    net::LinkConfig lc{ls.bandwidth_bps, ls.delay, ls.name};
    auto queue = ls.make_queue
                     ? ls.make_queue(sim)
                     : std::make_unique<net::DropTailQueue>(ls.queue_packets);
    auto link = std::make_unique<net::Link>(sim, std::move(lc),
                                            std::move(queue));
    link->set_dst(nodes_[static_cast<std::size_t>(ls.to)].get());
    links_.push_back(std::move(link));
  }

  compute_routes();
}

void TopologyGraph::compute_routes() {
  const int n = n_nodes();
  // Next-hops on the full spec (topo/partition.hpp): every route entry at
  // node v names a link leaving v, which v's shard owns, so forwarding is
  // shard-local and identical at every shard count.
  table_ = compute_route_table(spec_);

  // Install on the nodes.
  for (int at = 0; at < n; ++at) {
    for (int dst = 0; dst < n; ++dst) {
      const int li = route(at, dst);
      if (li >= 0)
        nodes_[static_cast<std::size_t>(at)]->add_route(
            static_cast<net::NodeId>(dst),
            links_[static_cast<std::size_t>(li)].get());
    }
  }
}

net::Link* TopologyGraph::link_between(int from, int to) {
  for (int li = 0; li < n_links(); ++li) {
    const LinkSpec& ls = spec_.links[static_cast<std::size_t>(li)];
    if (ls.from == from && ls.to == to)
      return links_[static_cast<std::size_t>(li)].get();
  }
  return nullptr;
}

std::vector<int> TopologyGraph::path_links(int from, int dst) const {
  std::vector<int> path;
  int at = from;
  while (at != dst) {
    const int li = route(at, dst);
    if (li < 0) return {};
    path.push_back(li);
    at = spec_.links[static_cast<std::size_t>(li)].to;
    // A routing loop would exceed the longest possible simple path.
    if (path.size() > static_cast<std::size_t>(n_links())) return {};
  }
  return path;
}

}  // namespace rrtcp::topo
