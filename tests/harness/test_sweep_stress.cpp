// Multi-producer stress test for the sweep harness — the scenario the
// RRTCP_SANITIZE_THREAD CI job runs under TSan. Every worker thread builds
// complete audited simulations concurrently: each job owns a simulator, a
// dumbbell, and an AuditSession (which installs/restores the thread-local
// assert-context hook), so races in the harness, the RNG seeding, or the
// audit layer's thread-local handoff surface here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "app/flow_factory.hpp"
#include "app/ftp.hpp"
#include "audit/invariant_auditor.hpp"
#include "harness/result_sink.hpp"
#include "harness/sweep.hpp"
#include "net/dumbbell.hpp"
#include "net/loss_model.hpp"
#include "sim/simulator.hpp"

namespace rrtcp::harness {
namespace {

// One job = one fully audited mini-experiment: RR over the dumbbell with
// seed-dependent random loss, recording violations and final progress.
std::vector<SweepJob> make_audited_jobs(std::size_t n) {
  std::vector<SweepJob> jobs;
  for (std::size_t j = 0; j < n; ++j) {
    jobs.push_back(
        {"audited=" + std::to_string(j), [](const JobContext& ctx) {
           sim::Simulator sim;
           net::DumbbellTopology topo{sim, {}};
           topo.bottleneck().set_loss_model(
               std::make_unique<net::UniformLossModel>(0.02, ctx.seed));
           app::Flow flow =
               app::make_flow(app::Variant::kRr, sim, topo.sender_node(0),
                              topo.receiver_node(0), 1, {});
           app::FtpSource src{sim, *flow.sender, sim::Time::zero(),
                              std::nullopt};

           audit::AuditSession session{
               sim, audit::AuditSession::FailMode::kRecord};
           session.attach_queue(topo.bottleneck().queue(), "btl");
           session.attach_queue(topo.reverse_bottleneck().queue(), "rbtl");
           session.attach(*flow.sender, flow.receiver.get());

           sim.run_until(sim::Time::seconds(5));
           return Record{}
               .set("seed", ctx.seed)
               .set("acked", flow.sender->stats().bytes_acked)
               .set("rtx", flow.sender->stats().retransmissions)
               .set("violations", session.total_violations());
         }});
  }
  return jobs;
}

TEST(SweepStress, ConcurrentAuditedSimulationsAreCleanAndDeterministic) {
  const auto jobs = make_audited_jobs(24);
  std::string baseline;
  // Serial once for the reference output, then two saturated runs: the
  // parallel results must be byte-identical and violation-free.
  for (int threads : {1, 8, 8}) {
    ResultSink sink{jobs.size()};
    SweepOptions opts;
    opts.threads = threads;
    opts.base_seed = 1234;
    run_sweep(jobs, sink, opts);
    ASSERT_TRUE(sink.complete());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(sink.record(i).get("violations"), "0") << "job " << i;
      EXPECT_NE(sink.record(i).get("acked"), "0") << "job " << i;
    }
    if (baseline.empty())
      baseline = sink.to_csv();
    else
      EXPECT_EQ(sink.to_csv(), baseline);
  }
}

}  // namespace
}  // namespace rrtcp::harness
