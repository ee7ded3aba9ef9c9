// Shared types of the end-to-end benchmark (see perfbench/README.md).
//
// A workload is a function that performs one ROUND: it builds its fixed set
// of scenarios (or transfers) from the workload seed, runs them, checks
// every output against a property computed apart from the program, and
// returns the round's times, per-layer counters and operation counts. The
// driver in main.cpp repeats rounds for the requested number of seconds
// and reports medians, so one slow round cannot move a reported figure.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Thread CPU time of the calling thread, in seconds.
double thread_cpu_seconds();

struct RoundContext {
  std::uint64_t seed = 1;
  // Traced rounds sample per-layer counters and record spans; untraced
  // rounds measure only the end-to-end times.
  bool traced = false;
  SpanRecorder* spans = nullptr;  // non-null iff traced
};

struct Round {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Human-readable reasons for failed operations (printed to stderr).
  std::vector<std::string> failures;

  double setup_s = 0.0;  // time inside the build calls
  double run_s = 0.0;    // time inside the run calls
  // Live transfers only: per-transfer completion times and payload bytes
  // delivered in order (pooled over all rounds of a run by the driver).
  std::vector<double> fct_s;
  std::uint64_t payload_bytes = 0;

  // Per-layer metrics by name (traced rounds only).
  std::map<std::string, double> layer;

  // Records one checked operation; a false `ok` counts it as failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

Round paper_grid_round(const RoundContext& ctx);
Round fleet_round(const RoundContext& ctx);
Round live_loopback_round(const RoundContext& ctx);

}  // namespace perfbench
