// Shared scenario runner for integration tests: one or more flows over the
// paper's dumbbell with an arbitrary loss model at the bottleneck.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "app/flow_factory.hpp"
#include "app/ftp.hpp"
#include "audit/audit.hpp"
#include "net/drop_tail.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulator.hpp"
#include "stats/throughput.hpp"
#include "stats/tracer.hpp"

namespace rrtcp::test {

struct ScenarioConfig {
  app::Variant variant = app::Variant::kRr;
  int n_flows = 1;
  // Bytes per flow; nullopt = unbounded.
  std::optional<std::uint64_t> bytes = 100'000;
  sim::Time stagger = sim::Time::zero();  // start offset between flows
  sim::Time horizon = sim::Time::seconds(120);
  std::uint64_t buffer_packets = 8;  // bottleneck drop-tail buffer
  std::function<std::unique_ptr<net::LossModel>()> make_loss;        // fwd
  std::function<std::unique_ptr<net::LossModel>()> make_ack_loss;    // rev
  tcp::TcpConfig tcp;
};

struct FlowResult {
  bool complete = false;
  double completion_s = 0.0;
  std::uint64_t rcv_bytes = 0;
  tcp::SenderStats stats;
};

struct ScenarioResult {
  std::vector<FlowResult> flows;
  std::uint64_t bottleneck_drops = 0;
  std::uint64_t loss_model_drops = 0;
  double now_s = 0.0;
};

inline ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  sim::Simulator sim;
  net::DumbbellConfig netcfg;
  netcfg.n_flows = cfg.n_flows;
  netcfg.make_bottleneck_queue = [&](sim::Simulator&) {
    return std::make_unique<net::DropTailQueue>(cfg.buffer_packets);
  };
  net::DumbbellTopology topo{sim, netcfg};
  if (cfg.make_loss) topo.bottleneck().set_loss_model(cfg.make_loss());
  if (cfg.make_ack_loss)
    topo.reverse_bottleneck().set_loss_model(cfg.make_ack_loss());

  std::vector<app::Flow> flows;
  std::vector<std::unique_ptr<app::FtpSource>> sources;
  for (int i = 0; i < cfg.n_flows; ++i) {
    flows.push_back(app::make_flow(cfg.variant, sim, topo.sender_node(i),
                                   topo.receiver_node(i),
                                   static_cast<net::FlowId>(i + 1), cfg.tcp));
    sources.push_back(std::make_unique<app::FtpSource>(
        sim, *flows.back().sender, cfg.stagger * i, cfg.bytes));
  }

  // Build-gated protocol auditing (RRTCP_AUDIT=ON): every integration
  // scenario then runs under the full invariant set, abort-on-violation.
  audit::ScopedAudit audit{sim};
  audit.attach_queue(topo.bottleneck().queue(), "btl");
  audit.attach_queue(topo.reverse_bottleneck().queue(), "rbtl");
  for (auto& f : flows) audit.attach(*f.sender, f.receiver.get());

  sim.run_until(cfg.horizon);

  ScenarioResult out;
  out.now_s = sim.now().to_seconds();
  out.bottleneck_drops = topo.bottleneck().queue().stats().dropped;
  if (auto* lm = topo.bottleneck().loss_model()) out.loss_model_drops = lm->drops();
  for (auto& f : flows) {
    FlowResult r;
    r.complete = f.sender->complete();
    r.completion_s = f.sender->completion_time().to_seconds();
    r.rcv_bytes = f.receiver->bytes_in_order();
    r.stats = f.sender->stats();
    out.flows.push_back(r);
  }
  return out;
}

}  // namespace rrtcp::test
