// Per-layer counters read from the public accessors of the built objects,
// after a run. Reading them is outside every timed region.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/queue_disc.hpp"
#include "tcp/receiver.hpp"
#include "tcp/sender_base.hpp"

namespace perfbench {

struct NetCounters {
  std::uint64_t hops = 0;           // Node::forwarded, summed
  std::uint64_t undeliverable = 0;  // Node::undeliverable, summed
  std::uint64_t link_pkts = 0;      // Link::packets_delivered, summed
  std::uint64_t queue_drops = 0;    // QueueStats::dropped, summed
  // First queue whose enqueued - dequeued != length at end (-1: none).
  int inconsistent_queue = -1;

  void add_node(const rrtcp::net::Node& n) {
    hops += n.forwarded();
    undeliverable += n.undeliverable();
  }
  void add_link(int index, const rrtcp::net::Link& l) {
    link_pkts += l.packets_delivered();
    const rrtcp::net::QueueStats& q = l.queue().stats();
    queue_drops += q.dropped;
    if (q.enqueued - q.dequeued != l.queue().len_packets() &&
        inconsistent_queue < 0)
      inconsistent_queue = index;
  }
};

struct TcpCounters {
  std::uint64_t data_pkts = 0;  // first transmissions + retransmissions
  std::uint64_t rtx = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t delivered_pkts = 0;  // data arrivals at the receivers

  void add(const rrtcp::tcp::TcpSenderBase& s,
           const rrtcp::tcp::TcpReceiver& r) {
    add_sender(s);
    add_receiver(r);
  }
  void add_sender(const rrtcp::tcp::TcpSenderBase& s) {
    const rrtcp::tcp::SenderStats& st = s.stats();
    data_pkts += st.data_packets_sent + st.retransmissions;
    rtx += st.retransmissions;
    timeouts += st.timeouts;
    fast_recoveries += st.fast_retransmits;
  }
  void add_receiver(const rrtcp::tcp::TcpReceiver& r) {
    delivered_pkts += r.stats().data_packets;
  }
  void add(const TcpCounters& o) {
    data_pkts += o.data_pkts;
    rtx += o.rtx;
    timeouts += o.timeouts;
    fast_recoveries += o.fast_recoveries;
    delivered_pkts += o.delivered_pkts;
  }
};

inline void put_net(std::map<std::string, double>& m, const NetCounters& n) {
  m["net.hops"] = static_cast<double>(n.hops);
  m["net.link_pkts"] = static_cast<double>(n.link_pkts);
  m["net.queue_drops"] = static_cast<double>(n.queue_drops);
  m["net.undeliverable"] = static_cast<double>(n.undeliverable);
}

inline void put_tcp(std::map<std::string, double>& m, const TcpCounters& t) {
  m["tcp.data_pkts"] = static_cast<double>(t.data_pkts);
  m["tcp.rtx"] = static_cast<double>(t.rtx);
  m["tcp.rtx_per_data"] =
      t.data_pkts > 0 ? static_cast<double>(t.rtx) / t.data_pkts : 0.0;
  m["tcp.timeouts"] = static_cast<double>(t.timeouts);
  m["tcp.fast_recoveries"] = static_cast<double>(t.fast_recoveries);
}

// Simulator counters; `delivered_pkts` is the events-per-packet divisor.
inline void put_sim(std::map<std::string, double>& m, std::uint64_t events,
                    std::uint64_t delivered_pkts, double run_s) {
  m["sim.events"] = static_cast<double>(events);
  m["sim.events_per_pkt"] =
      delivered_pkts > 0 ? static_cast<double>(events) / delivered_pkts : 0.0;
  m["sim.ns_per_event"] = events > 0 ? run_s * 1e9 / events : 0.0;
}

}  // namespace perfbench
