// The oracle stack: run one CaseSpec and say everything that went wrong.
//
// A fuzz case has no expected output to diff against, so "wrong" is defined
// by oracles — properties every run must satisfy regardless of the sampled
// scenario:
//
//   kAudit        a recorded protocol-invariant violation (audit layer)
//   kWatchdog     a liveness report (stall / livelock / silent death)
//   kLiveness     a flow that ended the horizon incomplete with no RTO
//                 armed — dead by the chaos soak's definition
//   kDeterminism  the same case run twice produced different trace digests
//   kEquivalence  timer-wheel and heap-only scheduling produced different
//                 trace digests (DESIGN.md's engine-equivalence contract)
//   kShardEquivalence  the spec at the case's shard_count crashed, failed
//                 to build, or — on the tie-safe multi-dumbbell topology —
//                 produced different per-flow digests than its one-shard
//                 run (DESIGN.md §17's determinism contract)
//   kAbort        a trapped RRTCP_ASSERT / build-gated audit abort
//   kBuildReject  Scenario::validate refused the spec (generator bug —
//                 sampled specs are supposed to be valid by construction)
//
// run_case executes the case under an AssertTrapScope, so a would-be
// process abort surfaces as a kAbort failure with the invariant's ID —
// fuzzing continues, the case is triaged like any other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/case_spec.hpp"

namespace rrtcp::fuzz {

enum class OracleKind : std::uint8_t {
  kAudit,
  kWatchdog,
  kLiveness,
  kDeterminism,
  kEquivalence,
  kShardEquivalence,
  kAbort,
  kBuildReject,
  kCount,
};

const char* to_string(OracleKind k);

struct Failure {
  OracleKind kind = OracleKind::kAudit;
  // Stable machine ID within the oracle: invariant name ("RR_PROBE_CLOCK"),
  // watchdog report ("WD_LIVELOCK"), "DEAD_FLOW", "TRACE_DIGEST",
  // "ENGINE_DIGEST", a SpecError code, or a trapped abort's ID.
  std::string id;
  std::string detail;  // human context (times, sequence numbers)
};

struct RunOptions {
  // Re-run the case and require a byte-identical trace digest.
  bool check_determinism = true;
  // Run the case with the hierarchical timer wheel disabled and require
  // the same digest as the wheel-on run.
  bool check_equivalence = true;
  // When the case samples shard_count > 1 (and is not a mutant), run the
  // fault-free spec on the sharded PDES engine and on a single engine.
  // Both legs are crash/assert oracles; the per-flow digests must match on
  // multi-dumbbell cases (the tie-safe family — see runner.cpp).
  bool check_shard_equivalence = true;
};

struct RunOutcome {
  bool built = false;  // false => single kBuildReject (or kAbort) failure
  std::vector<Failure> failures;
  std::uint64_t digest = 0;  // trace digest of the primary run
  std::uint64_t events = 0;  // events executed in the primary run
};

RunOutcome run_case(const CaseSpec& cs, const RunOptions& opts = {});

// Stable triage key "oracle/ID/who", where `who` is the mutant name when
// set, else the variant — the unit of dedup, shrink-preservation, and
// corpus filenames. Two failures with the same bucket are the same bug.
std::string bucket_key(const CaseSpec& cs, const Failure& f);

}  // namespace rrtcp::fuzz
