#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc_count {
namespace {

constexpr int kSlots = 256;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};

Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};

Slot& my_slot() {
  // Slots wrap around: threads are created a few at a time, so threads
  // alive together land in distinct slots, and the atomic keeps a shared
  // slot's count exact anyway.
  thread_local Slot* slot =
      &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];
  return *slot;
}

}  // namespace

std::uint64_t this_thread() {
  return my_slot().n.load(std::memory_order_relaxed);
}

std::uint64_t all_threads() {
  std::uint64_t sum = 0;
  for (const Slot& s : g_slots) sum += s.n.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace perfbench::alloc_count

// Every form that the library may pair with the plain operator delete is
// replaced, so new and delete always agree on malloc/free (sanitizer
// builds check the pairing). The aligned forms keep their defaults.
namespace {

void* counted_malloc(std::size_t size) noexcept {
  perfbench::alloc_count::my_slot().n.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
