// Process and thread accounting read from the kernel (clock_gettime and
// /proc/self), never from inside the program under test.
#pragma once

#include <map>
#include <vector>

namespace perfbench {

// CPU seconds per task (thread id) of this process.
using TaskCpu = std::map<int, double>;

// Reads the on-CPU time of every task from /proc/self/task/<tid>/schedstat
// (ns resolution); tasks whose file cannot be read are left out.
TaskCpu read_task_cpu();

// CPU seconds each thread other than the main one spent between two
// readings (threads present in both).
std::vector<double> worker_cpu_deltas(const TaskCpu& before,
                                      const TaskCpu& after);

// Peak resident set of this process image (VmHWM), MiB.
double peak_rss_mib();

}  // namespace perfbench
