#include "trace.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {
namespace {

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int mine = next.fetch_add(1);
  return mine;
}

void write_escaped(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_{std::chrono::steady_clock::now()} {
  thread_number();  // the constructing (main) thread is thread 0
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::open(std::string name, int parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.thread = thread_number();
  s.start_us = now_us();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int index,
                         std::vector<std::pair<std::string, double>> counters) {
  const double end = now_us();
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us = end;
  s.counters = std::move(counters);
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fputs("{\"name\":", f);
    write_escaped(f, s.name);
    std::fprintf(f, ",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,"
                    "\"thread\":%d,\"counters\":{",
                 s.start_us, s.end_us, s.parent, s.thread);
    for (std::size_t k = 0; k < s.counters.size(); ++k) {
      if (k > 0) std::fputc(',', f);
      write_escaped(f, s.counters[k].first);
      std::fprintf(f, ":%.17g", s.counters[k].second);
    }
    std::fputs(i + 1 < spans_.size() ? "}},\n" : "}}\n", f);
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
