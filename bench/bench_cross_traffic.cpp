// Cross-traffic robustness sweep — beyond the paper's clean dumbbell.
//
// The paper evaluates recovery with all load generated by the competing
// TCP flows themselves. This bench stresses the same variants (New-Reno,
// SACK, RR) against traffic that does NOT play by TCP's rules, across
// three regimes:
//
//   cbr       — dumbbell, one bulk flow vs unresponsive CBR claiming a
//               fraction of the forward bottleneck (0 / 10 / 25 / 50 %).
//               How much goodput does each variant retain, and does its
//               recovery survive a permanently-shrunken share?
//   ackpath   — dumbbell with a REAL reverse bottleneck (8-packet queue)
//               carrying a reverse bulk flow: ACKs queue behind reverse
//               data, get compressed and dropped. Recovery driven by a
//               damaged ACK clock.
//   parkinglot — multi-bottleneck chain (2 and 3 hops) from
//               topo::parking_lot, the long flow fighting per-hop CBR
//               cross-traffic at 25% load on every bottleneck.
//
// All scenarios are deterministic given the per-job seed; the CSV is
// byte-identical across --threads (tests/harness pins this). --quick runs
// a reduced grid for the CI perf-smoke artifact. --shards=N cuts the
// graph-mode parking-lot legs into N shards (src/pdes); a dumbbell leg
// always runs on one shard, so the default (--shards=1) is the plain
// single-threaded engine on every leg.
//
// Expected shape: goodput degrades roughly linearly with CBR load for
// every variant, but RR and SACK avoid the timeout clusters New-Reno
// shows once drops become correlated; on the ACK path and the parking
// lot, RR's cumulative-ACK-only recovery keeps it within a few percent of
// SACK without SACK's receiver support.
#include "bench_common.hpp"
#include "topo/presets.hpp"

namespace rrtcp::bench {
namespace {

constexpr std::int64_t kBottleneckBps = 800'000;  // Table 3

struct Row {
  double goodput_kbps = 0.0;
  double cbr_kbps = 0.0;  // delivered unresponsive load
  std::uint64_t rtx = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t drops = 0;  // bottleneck-queue drops (all packet types)
};

harness::Record to_record(const char* mode, app::Variant v, double load,
                          int hops, const Row& r) {
  return harness::Record{}
      .set("mode", mode)
      .set("variant", app::to_string(v))
      .set("load", load)
      .set("hops", hops)
      .set("goodput_kbps", r.goodput_kbps)
      .set("cbr_kbps", r.cbr_kbps)
      .set("rtx", r.rtx)
      .set("timeouts", r.timeouts)
      .set("drops", r.drops);
}

tcp::TcpConfig tuned_tcp() {
  // Same window bound as the RED bench: keeps windows in the paper's
  // regime instead of slow-start overshooting a 8-packet buffer.
  tcp::TcpConfig tcfg;
  tcfg.max_window_pkts = 20;
  tcfg.init_ssthresh_pkts = 20;
  return tcfg;
}

Row measure(harness::Scenario& sc, std::uint64_t queue_drops) {
  Row r;
  const sim::Time horizon = sc.spec().horizon;
  r.goodput_kbps = sc.instruments(0).meter->throughput_bps(sim::Time::zero(),
                                                           horizon) /
                   1e3;
  for (int i = 0; i < sc.n_cbr(); ++i)
    r.cbr_kbps += static_cast<double>(sc.cbr_sink(i).bytes_received()) * 8.0 /
                  horizon.to_seconds() / 1e3;
  r.rtx = sc.sender(0).stats().retransmissions;
  r.timeouts = sc.sender(0).stats().timeouts;
  r.drops = queue_drops;
  return r;
}

// One bulk flow vs forward-path CBR at `load` x bottleneck rate.
Row run_cbr(app::Variant v, double load, std::uint64_t seed) {
  harness::ScenarioSpec spec;
  spec.name = std::string{"cbr/"} + app::to_string(v);
  spec.seed = seed;
  spec.horizon = sim::Time::seconds(30);
  spec.add_flow({.variant = v, .tcp = tuned_tcp()});
  if (load > 0)
    spec.add_cbr({.load_fraction = load});
  harness::Scenario sc{spec};
  sc.run();
  return measure(sc, sc.topology().bottleneck().queue().stats().dropped);
}

// Forward flow under test + reverse bulk flow through a tight reverse
// bottleneck: the ACK path congests for real.
Row run_ackpath(app::Variant v, std::uint64_t seed) {
  harness::ScenarioSpec spec;
  spec.name = std::string{"ackpath/"} + app::to_string(v);
  spec.seed = seed;
  spec.horizon = sim::Time::seconds(30);
  spec.reverse_bottleneck = harness::QueueSpec::drop_tail(8);
  spec.add_flow({.variant = v, .tcp = tuned_tcp()});
  spec.add_flow(
      {.variant = app::Variant::kNewReno, .tcp = tuned_tcp(), .reverse = true});
  harness::Scenario sc{spec};
  sc.run();
  return measure(sc, sc.topology().reverse_bottleneck().queue().stats().dropped);
}

// Parking lot: long flow end-to-end over `hops` bottlenecks, 25% CBR
// cross-load entering and leaving at every hop. The only graph-mode leg,
// so the only one where --shards > 1 runs more than one shard.
Row run_parking_lot(app::Variant v, int hops, std::uint64_t seed,
                    int shards) {
  topo::ParkingLotConfig plc;
  plc.n_bottlenecks = hops;
  plc.bottleneck_bps = kBottleneckBps;
  const topo::ParkingLotLayout lay = topo::parking_lot(plc);

  harness::ScenarioSpec spec;
  spec.name = std::string{"parkinglot/"} + app::to_string(v);
  spec.seed = seed;
  spec.horizon = sim::Time::seconds(30);
  spec.graph = lay.spec;
  spec.audited_links.assign(lay.bottleneck_links.begin(),
                            lay.bottleneck_links.end());
  spec.add_flow({.variant = v,
                 .tcp = tuned_tcp(),
                 .src_node = lay.long_src,
                 .dst_node = lay.long_dst});
  for (int i = 0; i < hops; ++i) {
    spec.add_cbr({.rate_bps = kBottleneckBps / 4,
                  .src_node = lay.cross_src[static_cast<std::size_t>(i)],
                  .dst_node = lay.cross_dst[static_cast<std::size_t>(i)]});
  }
  spec.shard_count = shards;
  harness::Scenario sc{std::move(spec)};
  sc.run();
  std::uint64_t drops = 0;
  for (int l : lay.bottleneck_links)
    drops += sc.link(l).queue().stats().dropped;
  return measure(sc, drops);
}

}  // namespace
}  // namespace rrtcp::bench

int main(int argc, char** argv) {
  using namespace rrtcp::bench;
  namespace app = rrtcp::app;
  namespace harness = rrtcp::harness;
  const auto cli = harness::SweepCli::parse(argc, argv);
  if (handle_list_variants(cli)) return 0;

  constexpr app::Variant kVariants[] = {app::Variant::kNewReno,
                                        app::Variant::kSack, app::Variant::kRr};
  const std::vector<double> loads =
      cli.quick ? std::vector<double>{0.25}
                : std::vector<double>{0.0, 0.1, 0.25, 0.5};
  const std::vector<int> lot_hops =
      cli.quick ? std::vector<int>{2} : std::vector<int>{2, 3};

  std::vector<harness::SweepJob> jobs;
  std::vector<Row> rows;
  for (app::Variant v : kVariants)
    for (double load : loads)
      jobs.push_back({std::string{"cbr/"} + app::to_string(v) +
                          "/load=" + std::to_string(load),
                      [v, load, &rows](const harness::JobContext& ctx) {
                        rows[ctx.index] = run_cbr(v, load, ctx.seed);
                        return to_record("cbr", v, load, 1, rows[ctx.index]);
                      }});
  for (app::Variant v : kVariants)
    jobs.push_back({std::string{"ackpath/"} + app::to_string(v),
                    [v, &rows](const harness::JobContext& ctx) {
                      rows[ctx.index] = run_ackpath(v, ctx.seed);
                      return to_record("ackpath", v, 0.0, 1, rows[ctx.index]);
                    }});
  for (app::Variant v : kVariants)
    for (int hops : lot_hops)
      jobs.push_back(
          {std::string{"parkinglot/"} + app::to_string(v) +
               "/hops=" + std::to_string(hops),
           [v, hops, &rows, shards = cli.shards](const harness::JobContext& ctx) {
             rows[ctx.index] = run_parking_lot(v, hops, ctx.seed, shards);
             return to_record("parkinglot", v, 0.25, hops, rows[ctx.index]);
           }});
  rows.resize(jobs.size());

  harness::ResultSink sink{jobs.size()};
  const auto timing = harness::run_sweep(jobs, sink, cli.options);

  print_header("Cross-traffic robustness — CBR load, ACK-path congestion, "
               "parking lots",
               "extension beyond Wang & Shin 2001 (paper uses TCP-only load)");
  rrtcp::stats::Table table{{"mode", "variant", "load", "hops",
                             "goodput (kbit/s)", "cbr (kbit/s)", "rtx",
                             "timeouts", "drops"}};
  for (std::size_t i = 0; i < sink.size(); ++i) {
    const auto& rec = sink.record(i);
    table.add_row({std::string{rec.get("mode")}, std::string{rec.get("variant")},
                   std::string{rec.get("load")}, std::string{rec.get("hops")},
                   std::string{rec.get("goodput_kbps")},
                   std::string{rec.get("cbr_kbps")}, std::string{rec.get("rtx")},
                   std::string{rec.get("timeouts")},
                   std::string{rec.get("drops")}});
  }
  table.print();
  std::printf(
      "\nshape check: goodput falls roughly with CBR load for every\n"
      "variant; RR/SACK avoid New-Reno's timeout clusters under correlated\n"
      "drops, on the ACK path, and across multiple bottlenecks.\n");
  rrtcp::harness::report("cross_traffic", cli, sink, timing);
  return 0;
}
