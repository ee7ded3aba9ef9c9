#include "fuzz/runner.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <utility>

#include "audit/invariant_auditor.hpp"
#include "chaos/watchdog.hpp"
#include "fuzz/digest.hpp"
#include "sim/assert.hpp"

namespace rrtcp::fuzz {

namespace {

struct SingleRun {
  bool built = false;
  std::vector<Failure> failures;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

// Keep at most this many failures per oracle per run: a hot invariant can
// fire thousands of times, but triage only needs the bucket and an
// exemplar.
constexpr std::size_t kMaxPerOracle = 8;

void push_capped(std::vector<Failure>* failures, std::size_t* count,
                 Failure f) {
  if (*count < kMaxPerOracle) failures->push_back(std::move(f));
  ++*count;
}

SingleRun run_once(const CaseSpec& cs, bool timer_wheel) {
  SingleRun out;
  AssertTrapScope trap;
  try {
    harness::SpecError err;
    std::unique_ptr<BuiltCase> built = build_case(cs, &err, timer_wheel);
    if (built == nullptr) {
      out.failures.push_back(
          {OracleKind::kBuildReject, harness::to_string(err.code), err.detail});
      return out;
    }
    out.built = true;
    harness::Scenario& sc = *built->scenario;

    TraceDigest digest;
    std::vector<std::unique_ptr<DigestObserver>> observers;
    observers.reserve(static_cast<std::size_t>(sc.n_flows()));
    for (int i = 0; i < sc.n_flows(); ++i) {
      observers.push_back(std::make_unique<DigestObserver>(digest, i));
      sc.sender(i).add_observer(observers.back().get());
    }

    try {
      out.events = sc.run();
    } catch (const TrappedAbort& e) {
      out.failures.push_back({OracleKind::kAbort, e.id(), e.detail()});
    }
    for (int i = 0; i < sc.n_flows(); ++i)
      sc.sender(i).remove_observer(observers[static_cast<std::size_t>(i)].get());
    out.digest = digest.value();

    std::size_t n_audit = 0;
    for (const audit::Violation& v :
         sc.instrumentation().recording_session()->violations()) {
      char detail[160];
      std::snprintf(detail, sizeof detail, "t=%.9fs %s", v.t.to_seconds(),
                    v.detail.c_str());
      push_capped(&out.failures, &n_audit,
                  {OracleKind::kAudit, audit::to_string(v.id), detail});
    }
    std::size_t n_wd = 0;
    for (const chaos::WatchdogReport& r :
         sc.instrumentation().watchdog()->reports()) {
      char detail[160];
      std::snprintf(detail, sizeof detail, "t=%.9fs sender=%s: %s",
                    r.t.to_seconds(), r.who.c_str(), r.detail.c_str());
      push_capped(&out.failures, &n_wd,
                  {OracleKind::kWatchdog, chaos::to_string(r.id), detail});
    }
    std::size_t n_dead = 0;
    for (int i = 0; i < sc.n_flows(); ++i) {
      const tcp::TcpSenderBase& s = sc.sender(i);
      // The chaos soak's definition of dead: incomplete with nothing armed
      // that could ever act. Incomplete-but-armed is a slow flow, not a bug.
      if (s.complete() || s.rto_pending()) continue;
      char detail[120];
      std::snprintf(detail, sizeof detail,
                    "flow %d incomplete at horizon, una=%" PRIu64
                    " max_sent=%" PRIu64 ", no RTO armed",
                    i, s.snd_una(), s.max_sent());
      push_capped(&out.failures, &n_dead,
                  {OracleKind::kLiveness, "DEAD_FLOW", detail});
    }
  } catch (const TrappedAbort& e) {
    // Abort during construction (or teardown): no scenario state to read.
    out.failures.push_back({OracleKind::kAbort, e.id(), e.detail()});
  } catch (const std::exception& e) {
    out.failures.push_back({OracleKind::kAbort, "EXCEPTION", e.what()});
  }
  return out;
}

// One leg of the shard-equivalence oracle: build the case's materialized
// spec (no fault injectors: the primary run interposes them on the built
// graph) with `shards` shards and return every flow's trace digest.
// Per-flow rather than one shared digest: the sharded engine pins each
// flow's trace, not the global interleave of flows that never exchange a
// packet. Audit and watchdog are off on BOTH legs so the two specs match
// exactly (above one shard they are forced off anyway).
struct ShardRun {
  bool built = false;
  std::string error;  // abort/build failure when !built
  std::vector<std::uint64_t> digests;
};

ShardRun shard_leg(const CaseSpec& cs, int shards) {
  ShardRun out;
  AssertTrapScope trap;
  try {
    harness::ScenarioSpec spec = materialize(cs);
    spec.shard_count = shards;
    spec.instruments.tracers = false;
    spec.instruments.audit = harness::AuditMode::kNone;
    spec.instruments.watchdog = false;
    harness::SpecError err;
    auto sc = harness::Scenario::try_build(std::move(spec), &err);
    if (sc == nullptr) {
      out.error = harness::to_string(err.code);
      return out;
    }
    const std::size_t n = static_cast<std::size_t>(sc->n_flows());
    std::vector<TraceDigest> digests(n);
    std::vector<std::unique_ptr<DigestObserver>> observers;
    observers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      observers.push_back(
          std::make_unique<DigestObserver>(digests[i], static_cast<int>(i)));
      sc->sender(static_cast<int>(i)).add_observer(observers.back().get());
    }
    sc->run();
    for (std::size_t i = 0; i < n; ++i)
      sc->sender(static_cast<int>(i)).remove_observer(observers[i].get());
    out.built = true;
    out.digests.reserve(n);
    for (const TraceDigest& d : digests) out.digests.push_back(d.value());
  } catch (const TrappedAbort& e) {
    out.error = e.id();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace

const char* to_string(OracleKind k) {
  switch (k) {
    case OracleKind::kAudit:
      return "audit";
    case OracleKind::kWatchdog:
      return "watchdog";
    case OracleKind::kLiveness:
      return "liveness";
    case OracleKind::kDeterminism:
      return "determinism";
    case OracleKind::kEquivalence:
      return "equivalence";
    case OracleKind::kShardEquivalence:
      return "shard-equivalence";
    case OracleKind::kAbort:
      return "abort";
    case OracleKind::kBuildReject:
      return "build-reject";
    case OracleKind::kCount:
      break;
  }
  return "?";
}

RunOutcome run_case(const CaseSpec& cs, const RunOptions& opts) {
  SingleRun primary = run_once(cs, /*timer_wheel=*/true);
  RunOutcome out;
  out.built = primary.built;
  out.failures = std::move(primary.failures);
  out.digest = primary.digest;
  out.events = primary.events;
  if (!out.built) return out;

  char detail[96];
  if (opts.check_determinism) {
    const SingleRun again = run_once(cs, /*timer_wheel=*/true);
    if (again.digest != out.digest) {
      std::snprintf(detail, sizeof detail,
                    "run1 digest %016" PRIx64 " != run2 digest %016" PRIx64,
                    out.digest, again.digest);
      out.failures.push_back(
          {OracleKind::kDeterminism, "TRACE_DIGEST", detail});
    }
  }
  if (opts.check_equivalence) {
    const SingleRun heap_only = run_once(cs, /*timer_wheel=*/false);
    if (heap_only.digest != out.digest) {
      std::snprintf(detail, sizeof detail,
                    "wheel digest %016" PRIx64 " != heap digest %016" PRIx64,
                    out.digest, heap_only.digest);
      out.failures.push_back(
          {OracleKind::kEquivalence, "ENGINE_DIGEST", detail});
    }
  }
  // Sharded vs single per-flow digests on the same (fault-free) spec.
  // Mutant cases are skipped: flow_maker specs need one shard,
  // and the mutants' bugs are already caught by the primary oracles.
  //
  // The digest comparison is limited to multi-dumbbell cases: with
  // zero-delay access links every positive-delay link is a cut link, so no
  // delivery's scheduling spans a round boundary inside a shard and the
  // cross-engine trace equality is exact (DESIGN.md §17). Symmetric
  // topologies like the parking lot or mesh can produce same-picosecond
  // arrivals at one node via different links, where the engines legally
  // disagree on delivery order — there the sharded leg still runs both
  // legs as a crash/assert/build oracle, without comparing digests.
  if (opts.check_shard_equivalence && cs.shard_count > 1 &&
      cs.mutant.empty()) {
    const bool tie_safe = cs.topo == TopoKind::kMultiDumbbell;
    const ShardRun one = shard_leg(cs, /*shards=*/1);
    const ShardRun many = shard_leg(cs, cs.shard_count);
    if (!one.built || !many.built) {
      out.failures.push_back({OracleKind::kShardEquivalence, "SHARD_BUILD",
                              one.built ? many.error : one.error});
    } else if (tie_safe && one.digests != many.digests) {
      std::size_t flow = 0;
      const std::size_t n = std::min(one.digests.size(), many.digests.size());
      while (flow < n && one.digests[flow] == many.digests[flow]) ++flow;
      if (flow == n) {
        std::snprintf(detail, sizeof detail, "flow counts differ: %zu vs %zu",
                      one.digests.size(), many.digests.size());
      } else {
        std::snprintf(detail, sizeof detail,
                      "flow %zu: 1-shard digest %016" PRIx64
                      " != %d-shard digest %016" PRIx64,
                      flow, one.digests[flow], cs.shard_count,
                      many.digests[flow]);
      }
      out.failures.push_back(
          {OracleKind::kShardEquivalence, "SHARD_DIGEST", detail});
    }
  }
  return out;
}

std::string bucket_key(const CaseSpec& cs, const Failure& f) {
  std::string key = to_string(f.kind);
  key += '/';
  key += f.id;
  key += '/';
  key += cs.mutant.empty() ? app::to_string(cs.variant) : cs.mutant.c_str();
  return key;
}

}  // namespace rrtcp::fuzz
