#include "pdes/shard_engine.hpp"

#include <algorithm>
#include <utility>

#include "sim/assert.hpp"

namespace rrtcp::pdes {

ShardEngine::ShardEngine(std::vector<sim::Simulator*> shards,
                         const topo::Partition& part,
                         topo::TopologyGraph& graph)
    : shards_{std::move(shards)},
      executed_(shards_.size(), 0),
      lookahead_{part.lookahead},
      merge_scratch_(shards_.size()) {
  RRTCP_ASSERT(part.n_shards > 1 &&
               shards_.size() == static_cast<std::size_t>(part.n_shards));
  // A cut link (head on another shard) delivers into its Channel instead
  // of its destination node.
  for (const int li : part.cut_links) {
    const int head = graph.spec().links[static_cast<std::size_t>(li)].to;
    auto ch = std::make_unique<Channel>(li);
    graph.link(li).set_remote_sink(ch.get());
    channels_.push_back(std::move(ch));
    channel_dst_.push_back(&graph.node(head));
    channel_dst_shard_.push_back(
        part.node_shard[static_cast<std::size_t>(head)]);
  }

  workers_.reserve(shards_.size());
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s)
    workers_.emplace_back([this, s] { worker_loop(s); });
}

ShardEngine::~ShardEngine() { stop_workers(); }

void ShardEngine::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void ShardEngine::worker_loop(int shard) {
  sim::Simulator& sim = *shards_[static_cast<std::size_t>(shard)];
  std::uint64_t seen = 0;
  for (;;) {
    sim::Time deadline;
    bool inclusive;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return shutdown_ || round_gen_ > seen; });
      if (shutdown_) return;
      seen = round_gen_;
      deadline = round_deadline_;
      inclusive = round_inclusive_;
    }
    // The shard event loop proper — runs outside the lock; all
    // cross-shard effects land in Channel buffers read only after the
    // barrier below.
    const std::uint64_t n =
        inclusive ? sim.run_until(deadline) : sim.run_before(deadline);
    {
      std::lock_guard<std::mutex> lk(mu_);
      executed_[static_cast<std::size_t>(shard)] += n;
      if (--workers_running_ == 0) cv_done_.notify_all();
    }
  }
}

void ShardEngine::parallel_window(sim::Time deadline, bool inclusive) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    workers_running_ = static_cast<int>(workers_.size());
    round_deadline_ = deadline;
    round_inclusive_ = inclusive;
    ++round_gen_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return workers_running_ == 0; });
  ++rounds_;
}

std::size_t ShardEngine::merge_channels(sim::Time count_upto) {
  for (auto& scratch : merge_scratch_) scratch.clear();
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    Channel& ch = *channels_[c];
    std::vector<Channel::Msg>& inbox = ch.inbox();
    if (inbox.empty()) continue;
    auto& scratch =
        merge_scratch_[static_cast<std::size_t>(channel_dst_shard_[c])];
    for (Channel::Msg& m : inbox)
      scratch.push_back(Pending{m.arrival_ps, ch.link_index(), m.seq,
                                channel_dst_[c], std::move(m.pkt)});
    inbox.clear();
  }

  std::size_t due = 0;
  for (std::size_t s = 0; s < merge_scratch_.size(); ++s) {
    auto& scratch = merge_scratch_[s];
    if (scratch.empty()) continue;
    // Canonical cross-shard delivery order: arrival instant, then cut-link
    // index, then each link's FIFO sequence. Identical for every shard
    // count and thread schedule — this sort is the determinism contract.
    std::sort(scratch.begin(), scratch.end(),
              [](const Pending& a, const Pending& b) {
                if (a.arrival_ps != b.arrival_ps)
                  return a.arrival_ps < b.arrival_ps;
                if (a.link != b.link) return a.link < b.link;
                return a.seq < b.seq;
              });
    sim::Simulator& sim = *shards_[s];
    for (Pending& p : scratch) {
      const sim::Time at = sim::Time::picoseconds(p.arrival_ps);
      if (at <= count_upto) ++due;
      net::Node* dst = p.dst;
      sim.schedule_at(at, [dst, pkt = std::move(p.pkt)]() mutable {
        dst->receive(std::move(pkt));
      });
    }
    scratch.clear();
  }
  return due;
}

std::uint64_t ShardEngine::run(sim::Time horizon) {
  RRTCP_ASSERT_MSG(!ran_, "ShardEngine::run is single-shot");
  ran_ = true;

  const sim::Time la = lookahead_;
  RRTCP_ASSERT(la > sim::Time::zero());

  // Conservative rounds over half-open windows [t, t+LA): no shard may
  // execute the boundary instant until the inboxes feeding it have merged.
  sim::Time t = sim::Time::zero();
  while (t + la < horizon) {
    t = t + la;
    parallel_window(t, /*inclusive=*/false);
    merge_channels(horizon);
  }
  // Terminal windows, deadline-inclusive like the one-shard
  // run_until(horizon). A delivery can land exactly ON the horizon (send
  // at t, arrival t+LA == horizon), and executing it can emit nothing
  // earlier than horizon + serialization time — so the loop drains after
  // at most two passes; the count guards the general case.
  for (;;) {
    parallel_window(horizon, /*inclusive=*/true);
    if (merge_channels(horizon) == 0) break;
  }
  std::uint64_t events = 0;
  for (const std::uint64_t n : executed_) events += n;
  return events;
}

std::uint64_t ShardEngine::cross_shard_packets() const {
  std::uint64_t n = 0;
  for (const auto& ch : channels_) n += ch->total_pushed();
  return n;
}

}  // namespace rrtcp::pdes
