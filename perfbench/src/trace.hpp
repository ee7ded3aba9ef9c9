// In-memory span recorder for traced runs.
//
// A span is (name, start, end, parent, thread) plus the counters read at
// its closing boundary. Spans are appended to one vector under a mutex —
// traced rounds open a handful per scenario or transfer, never per event —
// and written as JSON once, at exit. Untraced rounds hold no recorder, and
// ScopedSpan on a null recorder does nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;  // since the recorder was created
  double end_us = 0.0;
  int parent = -1;        // index into the recorder's spans, -1 = root
  int thread = 0;         // small per-thread number, 0 = main thread
  std::vector<std::pair<std::string, double>> counters;
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span and returns its index.
  int open(std::string name, int parent);
  void close(int index,
             std::vector<std::pair<std::string, double>> counters = {});

  std::size_t size() const;
  // Writes every span as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  double now_us() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, int parent = -1)
      : rec_{rec}, index_{rec ? rec->open(std::move(name), parent) : -1} {}
  ~ScopedSpan() {
    if (rec_) rec_->close(index_, std::move(counters_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }
  void counter(std::string name, double value) {
    if (rec_) counters_.emplace_back(std::move(name), value);
  }

 private:
  SpanRecorder* rec_;
  int index_;
  std::vector<std::pair<std::string, double>> counters_;
};

}  // namespace perfbench
