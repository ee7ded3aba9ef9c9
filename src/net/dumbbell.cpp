#include "net/dumbbell.hpp"

#include <cstdio>

#include "sim/assert.hpp"

namespace rrtcp::net {

topo::GraphSpec dumbbell_spec(const DumbbellConfig& cfg) {
  RRTCP_ASSERT(cfg.n_flows >= 1);

  // Emit the graph spec in the exact order the hand-built topology used:
  // nodes R1, R2, S1..Sn, K1..Kn; links fwd bottleneck, rev bottleneck,
  // then per flow S->R1, R1->S, R2->K, K->R2. Node ids and queue
  // construction order — and therefore traces — match the original.
  topo::GraphSpec g;
  g.add_node("R1");
  g.add_node("R2");
  for (int i = 0; i < cfg.n_flows; ++i)
    g.add_node("S" + std::to_string(i + 1));
  for (int i = 0; i < cfg.n_flows; ++i)
    g.add_node("K" + std::to_string(i + 1));

  {
    topo::LinkSpec fwd;
    fwd.from = kDumbbellR1;
    fwd.to = kDumbbellR2;
    fwd.bandwidth_bps = cfg.bottleneck_bps;
    fwd.delay = cfg.bottleneck_delay;
    fwd.queue_packets = 8;  // Table 3, unless a factory says otherwise
    fwd.make_queue = cfg.make_bottleneck_queue;
    fwd.name = "R1->R2";
    g.add_link(std::move(fwd));
  }
  {
    topo::LinkSpec rev;
    rev.from = kDumbbellR2;
    rev.to = kDumbbellR1;
    rev.bandwidth_bps = cfg.reverse_bps > 0 ? cfg.reverse_bps
                                            : cfg.bottleneck_bps;
    rev.delay = cfg.reverse_delay.value_or(cfg.bottleneck_delay);
    rev.queue_packets = cfg.reverse_queue_packets;
    rev.make_queue = cfg.make_reverse_queue;
    rev.name = "R2->R1";
    g.add_link(std::move(rev));
  }

  for (int i = 0; i < cfg.n_flows; ++i) {
    const int s = dumbbell_sender(i);
    const int k = dumbbell_receiver(cfg.n_flows, i);
    char name[32];

    sim::Time sender_side_delay = cfg.side_delay;
    if (cfg.side_delay_for) {
      if (auto d = cfg.side_delay_for(i)) sender_side_delay = *d;
    }

    auto side = [&](int from, int to, sim::Time delay, const char* fmt) {
      topo::LinkSpec ls;
      ls.from = from;
      ls.to = to;
      ls.bandwidth_bps = cfg.side_bps;
      ls.delay = delay;
      ls.queue_packets = cfg.side_queue_packets;
      std::snprintf(name, sizeof name, fmt, i + 1);
      ls.name = name;
      g.add_link(std::move(ls));
    };
    side(s, kDumbbellR1, sender_side_delay, "S%d->R1");
    side(kDumbbellR1, s, sender_side_delay, "R1->S%d");
    side(kDumbbellR2, k, cfg.side_delay, "R2->K%d");
    side(k, kDumbbellR2, cfg.side_delay, "K%d->R2");
  }
  return g;
}

DumbbellTopology::DumbbellTopology(sim::Simulator& sim, DumbbellConfig cfg)
    : cfg_{std::move(cfg)},
      owned_{std::make_unique<topo::TopologyGraph>(sim, dumbbell_spec(cfg_))},
      graph_{owned_.get()} {}

DumbbellTopology::DumbbellTopology(topo::TopologyGraph& graph,
                                   DumbbellConfig cfg)
    : cfg_{std::move(cfg)}, graph_{&graph} {
  RRTCP_ASSERT_MSG(graph.n_nodes() == 2 + 2 * cfg_.n_flows,
                   "graph is not a dumbbell_spec of this config");
}

sim::Time DumbbellTopology::base_rtt(std::uint32_t data_bytes,
                                     std::uint32_t ack_bytes) const {
  using sim::Time;
  const std::int64_t rev_bps =
      cfg_.reverse_bps > 0 ? cfg_.reverse_bps : cfg_.bottleneck_bps;
  const Time rev_delay = cfg_.reverse_delay.value_or(cfg_.bottleneck_delay);
  const Time fwd = Time::transmission(data_bytes, cfg_.side_bps) * 2 +
                   Time::transmission(data_bytes, cfg_.bottleneck_bps) +
                   cfg_.side_delay * 2 + cfg_.bottleneck_delay;
  const Time rev = Time::transmission(ack_bytes, cfg_.side_bps) * 2 +
                   Time::transmission(ack_bytes, rev_bps) +
                   cfg_.side_delay * 2 + rev_delay;
  return fwd + rev;
}

}  // namespace rrtcp::net
