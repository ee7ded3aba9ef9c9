#include "proc.hpp"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

bool read_schedstat(int tid, double* seconds) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/schedstat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  unsigned long long ns = 0;
  const bool ok = std::fscanf(f, "%llu", &ns) == 1;
  std::fclose(f);
  if (ok) *seconds = static_cast<double>(ns) / 1e9;
  return ok;
}

}  // namespace

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

TaskCpu read_task_cpu() {
  TaskCpu out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    const int tid = std::atoi(e->d_name);
    if (tid <= 0) continue;
    double s = 0.0;
    if (read_schedstat(tid, &s)) out[tid] = s;
  }
  closedir(d);
  return out;
}

std::vector<double> worker_cpu_deltas(const TaskCpu& before,
                                      const TaskCpu& after) {
  std::vector<double> out;
  const int main_tid = static_cast<int>(getpid());
  for (const auto& [tid, s1] : after) {
    if (tid == main_tid) continue;
    const auto it = before.find(tid);
    if (it != before.end()) out.push_back(s1 - it->second);
  }
  return out;
}

double peak_rss_mib() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would not
  // do: it survives execve, so a small workload started from a larger
  // parent (a Python driver, say) would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
