// Quickstart: one Robust Recovery TCP flow over the paper's dumbbell.
//
// Builds the Table-3 topology (0.8 Mbps / 100 ms bottleneck, drop-tail
// buffer of 8 packets), runs a single RR flow for 20 simulated seconds,
// and prints what happened. Run with --verbose for a per-event trace,
// with a variant name (see --list-variants) to compare, or with
// --list-variants to print the sender registry and exit. --shards=N sets
// the spec's shard count; a dumbbell always runs on one shard, so the
// numbers are byte-identical to the default.
//
// The whole experiment is one declarative ScenarioSpec — see
// src/harness/scenario.hpp for everything a spec can express.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "app/sender_factory.hpp"
#include "harness/scenario.hpp"
#include "sim/log.hpp"

int main(int argc, char** argv) {
  using namespace rrtcp;

  app::Variant variant = app::Variant::kRr;
  int shards = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) {
      sim::Log::set_level(sim::LogLevel::kDebug);
    } else if (std::strcmp(argv[i], "--list-variants") == 0) {
      app::SenderFactory::instance().print_registry(stdout);
      return 0;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      char* end = nullptr;
      shards = static_cast<int>(std::strtol(argv[i] + 9, &end, 10));
      if (end == argv[i] + 9 || *end != '\0' || shards < 1 ||
          shards > harness::kMaxShardCount) {
        // Mirror the unknown-variant path: a bad value prints what IS valid.
        std::fprintf(stderr,
                     "invalid shard count: %s\n"
                     "valid range: --shards=1..%d (1 = single engine)\n",
                     argv[i], harness::kMaxShardCount);
        return 2;
      }
    } else {
      try {
        variant = app::variant_from_string(argv[i]);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr, "unknown variant '%s'\n", argv[i]);
        app::SenderFactory::instance().print_registry(stderr);
        return 2;
      }
    }
  }

  harness::ScenarioSpec spec;  // Table 3 topology + 8-packet drop-tail
  spec.name = "quickstart";
  spec.horizon = sim::Time::seconds(20);
  spec.shard_count = shards;
  spec.add_flow({.variant = variant});  // unbounded FTP starting at t=0
  harness::Scenario sc{spec};
  sc.run();

  const sim::Time horizon = spec.horizon;
  const auto& st = sc.sender(0).stats();
  const harness::FlowInstruments& fi = sc.instruments(0);
  std::printf("variant:            %s\n", sc.sender(0).variant_name());
  if (shards > 1)
    std::printf("engine:             single (%d shards requested; the "
                "dumbbell does not partition)\n", shards);
  std::printf("simulated time:     %.1f s\n", horizon.to_seconds());
  std::printf("goodput:            %.1f kbit/s (bottleneck 800 kbit/s)\n",
              fi.meter->throughput_bps(sim::Time::zero(), horizon) / 1e3);
  std::printf("data packets sent:  %llu (+%llu retransmissions)\n",
              static_cast<unsigned long long>(st.data_packets_sent),
              static_cast<unsigned long long>(st.retransmissions));
  std::printf("fast retransmits:   %llu\n",
              static_cast<unsigned long long>(st.fast_retransmits));
  std::printf("timeouts:           %llu\n", static_cast<unsigned long long>(st.timeouts));
  std::printf("bottleneck drops:   %llu\n",
              static_cast<unsigned long long>(sc.topology().bottleneck().queue().stats().dropped));
  std::printf("time in recovery:   %.2f s\n",
              fi.phases->time_in_recovery(horizon).to_seconds());
  std::printf("final cwnd:         %.1f packets\n",
              sc.sender(0).cwnd_packets());
  return 0;
}
