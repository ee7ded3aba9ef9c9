// perfbench: one workload per process, rounds repeated for --seconds.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Untraced (--trace 0) the last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric. Traced (--trace 1) rounds alternate
// untraced and traced; the JSON then holds every per-layer metric plus the
// tracing overhead, and the spans are written to PATH at exit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "proc.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Order and units of the per-layer metrics (BENCHMARK.json "per_layer").
// A workload that does not run a layer reports its metrics as 0.
constexpr MetricDef kLayerMetrics[] = {
    {"sim.events", "count"},          {"sim.events_per_pkt", "events/pkt"},
    {"sim.ns_per_event", "ns"},       {"sim.pending_max", "count"},
    {"sim.stale_heap_max", "count"},  {"sim.pool_slots", "count"},
    {"sim.heap_fallbacks", "count"},  {"net.hops", "count"},
    {"net.link_pkts", "count"},       {"net.queue_drops", "count"},
    {"net.undeliverable", "count"},   {"alloc.per_pkt", "allocs/pkt"},
    {"alloc.setup", "count"},         {"tcp.data_pkts", "count"},
    {"tcp.rtx", "count"},             {"tcp.rtx_per_data", "ratio"},
    {"tcp.timeouts", "count"},        {"tcp.fast_recoveries", "count"},
    {"tcp.callback_s", "s"},          {"harness.jobs", "count"},
    {"harness.build_s", "s"},         {"harness.job_cpu_s", "s"},
    {"harness.pool_efficiency", "ratio"},
    {"topo.route_s", "s"},            {"topo.partition_s", "s"},
    {"pdes.rounds", "count"},         {"pdes.cross_pkts", "count"},
    {"pdes.extra_events", "count"},   {"pdes.worker_busy_s", "s"},
    {"pdes.coordinator_s", "s"},      {"pdes.barrier_wait_s", "s"},
    {"pdes.imbalance", "ratio"},      {"pdes.bytes_per_flow", "B"},
    {"live.datagrams", "count"},      {"live.polls", "count"},
    {"live.idle_polls", "count"},     {"live.dgrams_per_poll", "ratio"},
    {"live.poll_s", "s"},             {"live.decode_failures", "count"},
    {"fct_p99_ms", "ms"},             {"trace.overhead_pct", "%"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_grid|fleet_single|live_loopback"
               " --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      o.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage(argv[0]);
    } else if (std::strcmp(k, "--seconds") == 0) {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) usage(argv[0]);
    } else if (std::strcmp(k, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage(argv[0]);
      o.trace = v[0] == '1';
    } else if (std::strcmp(k, "--spans") == 0) {
      o.spans_path = v;
    } else {
      usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || o.workload.empty()) usage(argv[0]);
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an unsorted sample: the smallest value with
// at least q of the sample at or below it (p99 of 1,000 leaves 10 above).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Round run_round(const Options& o, const RoundContext& ctx) {
  if (o.workload == "paper_grid") return paper_grid_round(ctx);
  if (o.workload == "fleet_single") return fleet_round(ctx);
  if (o.workload == "live_loopback") return live_loopback_round(ctx);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               o.workload.c_str());
  std::exit(2);
}

// Untraced rounds at least this many times, however long they take, so
// every median has a middle.
constexpr int kMinRounds = 3;

void add_metric(std::string& json, const char* name, double value,
                const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name, value, unit);
  json += buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  SpanRecorder spans;

  // One warm-up round fills caches and the allocator before anything is
  // timed; its checks still count.
  std::vector<Round> plain, traced;
  std::vector<Round> warm_up{run_round(o, {o.seed, false, nullptr})};
  const auto t_begin = Clock::now();
  auto elapsed = [&] { return seconds_between(t_begin, Clock::now()); };
  do {
    plain.push_back(run_round(o, {o.seed, false, nullptr}));
    if (o.trace) traced.push_back(run_round(o, {o.seed, true, &spans}));
  } while (elapsed() < o.seconds ||
           (!o.trace && static_cast<int>(plain.size()) < kMinRounds));

  std::uint64_t attempted = 0, failed = 0;
  for (const std::vector<Round>* set : {&warm_up, &plain, &traced}) {
    for (const Round& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& f : r.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    }
  }
  // Per-round figures; each reported value is their median over rounds.
  std::vector<double> setup, run, goodput, fct_p50, fct_p90, fct_p99;
  for (const Round& r : plain) {
    std::fprintf(stderr, "perfbench: round setup_s %.6f run_s %.6f\n",
                 r.setup_s, r.run_s);
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    goodput.push_back(r.payload_bytes * 8.0 / r.run_s / 1e6);
    fct_p50.push_back(percentile(r.fct_s, 0.50) * 1e3);
    fct_p90.push_back(percentile(r.fct_s, 0.90) * 1e3);
    fct_p99.push_back(percentile(r.fct_s, 0.99) * 1e3);
  }

  std::printf("perfbench %s: seed %llu, 1 warm-up + %zu untraced + %zu traced rounds, "
              "%.1f s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              plain.size(), traced.size(), elapsed());

  std::string metrics;
  if (!o.trace) {
    add_metric(metrics, "setup_s", median(setup), "s");
    add_metric(metrics, "run_s", median(run), "s");
    add_metric(metrics, "peak_rss_mb", peak_rss_mib(), "MiB");
    add_metric(metrics, "goodput_mbps", median(goodput), "Mbit/s");
    add_metric(metrics, "fct_p50_ms", median(fct_p50), "ms");
    add_metric(metrics, "fct_p90_ms", median(fct_p90), "ms");
  } else {
    std::vector<double> traced_run;
    for (const Round& r : traced) traced_run.push_back(r.run_s);
    const double overhead_pct =
        (median(traced_run) / median(run) - 1.0) * 100.0;
    std::printf("\n%-26s %16s  %s\n", "per-layer metric", "value", "unit");
    for (const MetricDef& d : kLayerMetrics) {
      // Counters come from the untraced rounds (the tracing wrappers add
      // allocations of their own); timings only exist in traced ones.
      std::vector<double> vals;
      for (const std::vector<Round>* set : {&plain, &traced}) {
        for (const Round& r : *set) {
          const auto it = r.layer.find(d.name);
          if (it != r.layer.end()) vals.push_back(it->second);
        }
        if (!vals.empty()) break;
      }
      double v = median(vals);
      if (std::strcmp(d.name, "trace.overhead_pct") == 0) v = overhead_pct;
      if (std::strcmp(d.name, "fct_p99_ms") == 0) v = median(fct_p99);
      std::printf("%-26s %16.6g  %s\n", d.name, v, d.unit);
      add_metric(metrics, d.name, v, d.unit);
    }
    std::printf("tracing overhead: traced run_s %.4f s vs untraced %.4f s "
                "(%+.1f%%)\n",
                median(traced_run), median(run), overhead_pct);
    if (!o.spans_path.empty()) {
      if (!spans.write_json(o.spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.spans_path.c_str());
        return 1;
      }
      std::printf("wrote %zu spans to %s\n", spans.size(),
                  o.spans_path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
