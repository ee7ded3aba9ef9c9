// One entry point for observer attachment.
//
// Every driver used to hand-wire the same observer stack — throughput /
// sequence / phase tracers, the build-gated invariant audit, optionally
// the liveness watchdog — with the same easy-to-get-wrong rules (attach
// after the flows exist, detach before they die, record vs abort mode by
// context). Instrumentation owns that stack: construct it AFTER the flows
// it will watch (so it destructs — and detaches — first), call
// attach(sender, receiver) per flow and attach_queues(graph, links) once,
// and read the per-flow tracers back by index. harness::Scenario attaches
// through here at every shard count.
//
// Audit modes:
//   kBuildGated — audit::ScopedAudit: a real AuditSession in abort mode
//                 when the build sets RRTCP_AUDIT=ON, free otherwise.
//                 The benches' default.
//   kRecord     — audit::AuditSession in record mode in EVERY build:
//                 violations are collected, not fatal. The chaos soak's
//                 mode (it grades outcomes on the violation count).
//   kNone       — no audit objects at all.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "audit/invariant_auditor.hpp"
#include "chaos/watchdog.hpp"
#include "sim/simulator.hpp"
#include "topo/graph.hpp"
#include "stats/throughput.hpp"
#include "stats/tracer.hpp"

namespace rrtcp::harness {

enum class AuditMode {
  kNone,
  kBuildGated,
  kRecord,
};

struct InstrumentationOptions {
  // Per-flow tracers (ThroughputMeter + SeqTracer + PhaseTracer).
  bool tracers = true;
  AuditMode audit = AuditMode::kBuildGated;
  bool watchdog = false;
  chaos::WatchdogConfig watchdog_config = {};
};

// The tracer bundle attached to one flow (empty unless options.tracers).
struct FlowInstruments {
  std::unique_ptr<stats::ThroughputMeter> meter;
  std::unique_ptr<stats::SeqTracer> seq;
  std::unique_ptr<stats::PhaseTracer> phases;
  tcp::TcpSenderBase* sender = nullptr;  // for detach on teardown
};

class Instrumentation {
 public:
  explicit Instrumentation(sim::Simulator& sim,
                           InstrumentationOptions opts = {});
  ~Instrumentation();
  Instrumentation(const Instrumentation&) = delete;
  Instrumentation& operator=(const Instrumentation&) = delete;

  // Attaches the whole configured stack to one flow: tracers on the
  // sender, the auditor on sender + receiver (cross-layer pipe checks),
  // the watchdog monitor. Returns the flow's tracer bundle.
  FlowInstruments& attach(tcp::TcpSenderBase& sender,
                          tcp::TcpReceiver* receiver);

  // Queue-level audit checks (conservation, capacity) on the queues of the
  // listed links, labeled with the links' names (owned by the graph, which
  // must outlive this). Call once.
  void attach_queues(topo::TopologyGraph& graph,
                     const std::vector<int>& links);

  // Tracers of the i-th attached flow, in attach() order.
  FlowInstruments& flow(std::size_t i) { return *flows_.at(i); }

  // Violations recorded so far; 0 unless AuditMode::kRecord (kBuildGated
  // aborts at the first violation instead of counting).
  std::size_t audit_violations() const;
  // The recording session, present only in AuditMode::kRecord.
  audit::AuditSession* recording_session() { return recording_.get(); }

  // Present only when options.watchdog.
  chaos::LivenessWatchdog* watchdog() { return watchdog_.get(); }

 private:
  sim::Simulator& sim_;
  InstrumentationOptions opts_;
  std::vector<std::unique_ptr<FlowInstruments>> flows_;
  // Observers detach in reverse construction order on destruction; all of
  // these must die before the senders they watch (construct the
  // Instrumentation after the flows).
  std::unique_ptr<audit::ScopedAudit> gated_;
  std::unique_ptr<audit::AuditSession> recording_;
  std::unique_ptr<chaos::LivenessWatchdog> watchdog_;
};

}  // namespace rrtcp::harness
