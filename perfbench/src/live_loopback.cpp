// live_loopback: 1,000 sequential 200 kB RR transfers over one UDP socket
// pair on 127.0.0.1 (src/live: epoll, timerfd, sendto/recvfrom, the wire
// codec; no simulator).
//
// The client endpoint runs on this thread and the server endpoint on one
// other thread, each in its own loop of non-blocking LiveEnvironment::poll
// calls, so neither side ever sleeps while datagrams wait for it. Polling
// rather than blocking keeps the host's wake-up latency out of the times:
// with both endpoints blocking in poll, the same transfers' per-run p90 on
// a shared 4-vCPU guest ranged from 1.38 to 3.18 ms, against 1.39 to
// 1.50 ms polling. All receivers are built and attached before the server
// thread starts, so every receiver exists before its sender starts. The
// workload seed picks the block of flow ids the transfers use.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "app/flow_factory.hpp"
#include "app/sender_factory.hpp"
#include "bench.hpp"
#include "counters.hpp"
#include "live/live_env.hpp"
#include "tcp/receiver.hpp"
#include "timing_env.hpp"

namespace perfbench {
namespace {

using namespace rrtcp;

constexpr int kTransfers = 1'000;
constexpr std::uint64_t kTransferBytes = 200'000;
// A transfer still running after this long counts as failed.
constexpr double kTransferTimeoutS = 10.0;

// One endpoint's event loop accounting.
struct LoopStats {
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;
  double poll_s = 0.0;  // traced rounds only
};

int timed_poll(live::LiveEnvironment& env, bool traced, LoopStats& st) {
  const auto t0 = traced ? Clock::now() : Clock::time_point{};
  const int n = env.poll(0);
  if (traced) st.poll_s += seconds_between(t0, Clock::now());
  ++st.polls;
  if (n == 0) ++st.idle_polls;
  return n;
}

}  // namespace

Round live_loopback_round(const RoundContext& ctx) {
  Round r;
  ScopedSpan round_span{ctx.spans, "live_loopback round"};
  const net::FlowId base =
      1 + static_cast<net::FlowId>(ctx.seed % 1'000) * kTransfers;

  // ---- Set-up: the endpoint pair and every receiver -------------------
  std::uint64_t allocs_setup = 0, allocs_run = 0;
  std::uint64_t a0 = alloc_count::all_threads();
  auto t0 = Clock::now();
  std::unique_ptr<live::LiveEnvironment> server, client;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> receivers;
  CallbackClock server_clock, client_clock;
  std::unique_ptr<TimingEnv> server_timed, client_timed;
  {
    ScopedSpan s{ctx.spans, "build", round_span.index()};
    live::LiveConfig scfg;
    scfg.bind_addr = "127.0.0.1";
    scfg.local_id = 2;
    scfg.peer_id = 1;
    server = std::make_unique<live::LiveEnvironment>(scfg);
    live::LiveConfig ccfg;
    ccfg.bind_addr = "127.0.0.1";
    ccfg.peer_addr = "127.0.0.1";
    ccfg.peer_port = server->local_port();
    ccfg.local_id = 1;
    ccfg.peer_id = 2;
    client = std::make_unique<live::LiveEnvironment>(ccfg);
    if (ctx.traced) {
      server_timed = std::make_unique<TimingEnv>(*server, server_clock);
      client_timed = std::make_unique<TimingEnv>(*client, client_clock);
    }
    env::Environment& senv =
        server_timed ? static_cast<env::Environment&>(*server_timed) : *server;
    const tcp::ReceiverConfig rcfg =
        app::receiver_config_for(app::Variant::kRr, {});
    receivers.reserve(kTransfers);
    for (int k = 0; k < kTransfers; ++k)
      receivers.push_back(std::make_unique<tcp::TcpReceiver>(
          senv, base + static_cast<net::FlowId>(k), rcfg));
  }
  r.setup_s += seconds_between(t0, Clock::now());
  allocs_setup += alloc_count::all_threads() - a0;
  env::Environment& cenv =
      client_timed ? static_cast<env::Environment&>(*client_timed) : *client;

  // ---- The server endpoint's own thread -------------------------------
  std::atomic<bool> stop{false};
  LoopStats server_loop;
  std::thread server_thread{[&] {
    while (!stop.load(std::memory_order_acquire))
      timed_poll(*server, ctx.traced, server_loop);
  }};

  // ---- Transfers, one at a time ---------------------------------------
  LoopStats client_loop;
  TcpCounters tcp;
  std::vector<bool> completed(kTransfers, false);
  r.fct_s.reserve(kTransfers);
  for (int k = 0; k < kTransfers; ++k) {
    ScopedSpan span{ctx.spans, "transfer", round_span.index()};
    a0 = alloc_count::all_threads();
    t0 = Clock::now();
    std::unique_ptr<tcp::TcpSenderBase> sender =
        app::SenderFactory::instance().make(
            app::Variant::kRr, cenv, base + static_cast<net::FlowId>(k), {});
    sender->set_app_bytes(kTransferBytes);
    const auto t_start = Clock::now();
    r.setup_s += seconds_between(t0, t_start);
    const std::uint64_t a1 = alloc_count::all_threads();
    allocs_setup += a1 - a0;

    sender->start();
    while (!sender->complete() &&
           seconds_between(t_start, Clock::now()) < kTransferTimeoutS)
      timed_poll(*client, ctx.traced, client_loop);
    const double fct = seconds_between(t_start, Clock::now());
    allocs_run += alloc_count::all_threads() - a1;

    completed[static_cast<std::size_t>(k)] = sender->complete();
    r.run_s += fct;
    r.fct_s.push_back(fct);
    tcp.add_sender(*sender);
    span.counter("fct_s", fct);
    span.counter("rtx", static_cast<double>(sender->stats().retransmissions));
  }
  stop.store(true, std::memory_order_release);
  server_thread.join();

  // ---- Checks (every endpoint is quiescent now) -----------------------
  ScopedSpan check_span{ctx.spans, "check", round_span.index()};
  for (int k = 0; k < kTransfers; ++k) {
    const tcp::TcpReceiver& rcv = *receivers[static_cast<std::size_t>(k)];
    tcp.add_receiver(rcv);
    r.payload_bytes += rcv.bytes_in_order();
    r.check(completed[static_cast<std::size_t>(k)] &&
                rcv.bytes_in_order() == kTransferBytes,
            "transfer " + std::to_string(k) + " delivered " +
                std::to_string(rcv.bytes_in_order()) + " bytes");
  }
  r.check(server->decode_failures() == 0 && client->decode_failures() == 0,
          "wire decode failures");
  r.check(server->datagrams_received() <= client->datagrams_sent(),
          "server received more datagrams than the client sent");

  auto& m = r.layer;
  put_tcp(m, tcp);
  m["alloc.setup"] = static_cast<double>(allocs_setup);
  m["alloc.per_pkt"] =
      static_cast<double>(allocs_run) / static_cast<double>(tcp.delivered_pkts);
  const std::uint64_t datagrams =
      client->datagrams_sent() + server->datagrams_sent();
  const std::uint64_t polls = client_loop.polls + server_loop.polls;
  m["live.datagrams"] = static_cast<double>(datagrams);
  m["live.polls"] = static_cast<double>(polls);
  m["live.idle_polls"] =
      static_cast<double>(client_loop.idle_polls + server_loop.idle_polls);
  m["live.dgrams_per_poll"] =
      polls > 0 ? static_cast<double>(client->datagrams_received() +
                                      server->datagrams_received()) /
                      static_cast<double>(polls)
                : 0.0;
  m["live.decode_failures"] = static_cast<double>(
      client->decode_failures() + server->decode_failures());
  if (ctx.traced) {
    m["live.poll_s"] = client_loop.poll_s + server_loop.poll_s;
    m["tcp.callback_s"] = client_clock.seconds + server_clock.seconds;
  }
  // Receivers detach from the server environment before it closes.
  receivers.clear();
  server_timed.reset();
  client_timed.reset();
  return r;
}

}  // namespace perfbench
