// One fuzz case, as data.
//
// A CaseSpec is the fuzzer's unit of work: a flat value that fully
// determines one simulation — sender variant (or a named known-bug mutant),
// topology family and its shape parameters, queue discipline, workload,
// watchdog thresholds, and a chaos::FaultPlan injected on the case's
// bottleneck pair. Flat scalars instead of a raw harness::ScenarioSpec so
// the delta-debugging shrinker can mutate structure ("parking lot ->
// dumbbell", "3 flows -> 1") with single-field edits and the replay codec
// (src/fuzz/serialize.hpp) can round-trip a case losslessly.
//
// materialize() lowers a CaseSpec to a ScenarioSpec plus the two injection
// points (data-path and ACK-path node/link pairs); build_case() validates,
// builds the Scenario and interposes the fault injectors — the one place
// the fuzzer touches live simulation objects.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "app/variant.hpp"
#include "chaos/fault.hpp"
#include "harness/scenario.hpp"
#include "sim/time.hpp"

namespace rrtcp::fuzz {

// Topology families the generator samples. kRandomMesh is a ring of
// routers with deterministic chord links and per-flow host pairs hung off
// it — the "any graph" case the first three presets do not cover.
enum class TopoKind : std::uint8_t {
  kDumbbell,
  kParkingLot,
  kMultiDumbbell,
  kRandomMesh,
  kCount,
};

const char* to_string(TopoKind k);
bool topo_kind_from_string(std::string_view name, TopoKind* out);

enum class QueueKind : std::uint8_t { kDropTail, kRed, kCount };

const char* to_string(QueueKind k);
bool queue_kind_from_string(std::string_view name, QueueKind* out);

struct CaseSpec {
  // Seeds every stochastic component of the run (RED drops, injector
  // draws) — NOT the generator draw that produced this spec; a loaded
  // replay file reproduces the run without the generator.
  std::uint64_t seed = 1;
  app::Variant variant = app::Variant::kRr;
  // Non-empty: build flows from the named known-bug sender
  // (src/fuzz/mutants.hpp) instead of `variant` — the fuzzer's
  // self-test teeth. The bucket key uses this name in place of the
  // variant's.
  std::string mutant;

  TopoKind topo = TopoKind::kDumbbell;
  int hops = 2;             // parking lot: bottleneck count
  int extra_receivers = 2;  // multi-dumbbell: M receiver hosts
  int mesh_routers = 4;     // random mesh: ring size
  int mesh_chords = 1;      // random mesh: extra core links

  std::int64_t bottleneck_bps = 800'000;
  sim::Time bottleneck_delay = sim::Time::milliseconds(100);
  QueueKind queue = QueueKind::kDropTail;
  std::uint64_t queue_packets = 8;
  double red_min_th = 5.0;  // RED knobs (queue == kRed, dumbbell only)
  double red_max_th = 20.0;
  double red_max_p = 0.02;

  int n_flows = 2;
  std::uint64_t bytes_per_flow = 100'000;
  sim::Time stagger = sim::Time::milliseconds(300);
  bool smooth_start = false;
  int n_cbr = 0;          // dumbbell only
  double cbr_load = 0.0;  // fraction of the bottleneck rate per stream
  sim::Time horizon = sim::Time::seconds(60);

  // Shard count for the shard-equivalence oracle: > 1 makes run_case also
  // build the (fault-free) spec at this many shards and require per-flow
  // digests identical to a one-shard run. 1 = oracle off. materialize()
  // leaves it out of the spec, so the primary run is always one shard.
  // Only meaningful on graph-mode topologies (a dumbbell runs on one
  // shard).
  int shard_count = 1;

  // Watchdog thresholds (ride into InstrumentationOptions; satellite S2 —
  // short fuzzed scenarios need tighter windows than the soak defaults).
  sim::Time wd_check_interval = sim::Time::milliseconds(500);
  int wd_stall_rto_factor = 4;
  int wd_livelock_rtx = 8;
  std::optional<sim::Time> wd_stall_ceiling = std::nullopt;

  chaos::FaultPlan plan;
};

// Where the two fault injectors go: at `node`, wrapping `link`. The data
// injector applies the plan's kData subset, the ACK injector its kAck
// subset — the same split the chaos soak uses on its dumbbell.
struct InjectionPoints {
  int data_node = -1;
  int data_link = -1;
  int ack_node = -1;
  int ack_link = -1;
};

// Lowers a CaseSpec to the declarative ScenarioSpec (topology preset,
// flows, CBR, instrumentation with watchdog thresholds) and reports the
// injection points. Pure: no simulator is touched.
harness::ScenarioSpec materialize(const CaseSpec& cs,
                                  InjectionPoints* points = nullptr);

// A built, injector-wired case ready to run. Declaration order is the
// teardown contract: injectors die before the scenario (their pending
// delay-spike events are never fired after the sim stops).
struct BuiltCase {
  std::unique_ptr<harness::Scenario> scenario;
  std::unique_ptr<chaos::FaultInjector> data_injector;
  std::unique_ptr<chaos::FaultInjector> ack_injector;
};

// validate + build + interpose. Returns nullptr with *err filled (when
// non-null) if the spec is structurally invalid — the generator's
// discard-and-resample path, never a crash. `timer_wheel = false` builds
// the same case on the heap-only scheduler (the engine-equivalence
// oracle's second leg).
std::unique_ptr<BuiltCase> build_case(const CaseSpec& cs,
                                      harness::SpecError* err = nullptr,
                                      bool timer_wheel = true);

}  // namespace rrtcp::fuzz
