// Counting global operator new, replaced in the benchmark binary only.
//
// Each thread counts into its own cache-line slot (assigned on its first
// allocation, no locking, no allocation), so the count costs one
// thread-local increment per `new` and never contends across the sweep's
// or the shards' threads.
#pragma once

#include <cstdint>

namespace perfbench::alloc_count {

// Allocations made so far by the calling thread.
std::uint64_t this_thread();
// Allocations made so far by every thread of the process.
std::uint64_t all_threads();

}  // namespace perfbench::alloc_count
