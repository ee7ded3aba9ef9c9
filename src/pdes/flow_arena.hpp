// Arena-backed per-flow object pool.
//
// A scenario with 100k+ flows pays twice for per-flow unique_ptr soup:
// every sender/receiver/environment is its own heap allocation (slow to
// build, slow to tear down) and the objects end up scattered across the
// heap, so the per-ACK working set misses cache. FlowArena packs them into
// large contiguous blocks: construction is a bump-pointer placement-new,
// objects of one flow sit next to each other, and teardown is one walk of
// the destructor list. Steady state is 0 allocs/packet by construction —
// the arena only ever allocates when a new object is created, never when
// packets move (pinned by the flow_arena_churn bench row).
//
// Objects are NOT individually destroyable: the arena destroys everything
// in reverse construction order when it dies (or on reset()). That is
// exactly the lifetime the scenario layer needs — flows live for the whole
// run — and what makes the bookkeeping one pointer per object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace rrtcp::pdes {

class FlowArena {
 public:
  // `block_bytes` is the granularity of the backing allocations; one block
  // holds many flows' objects. Oversized requests get a dedicated block.
  explicit FlowArena(std::size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_{block_bytes} {}
  ~FlowArena() { reset(); }
  FlowArena(const FlowArena&) = delete;
  FlowArena& operator=(const FlowArena&) = delete;

  // Raw aligned storage; valid until reset()/destruction. The caller owns
  // construction and destruction of whatever it places there.
  void* allocate(std::size_t size, std::size_t align);

  // Construct a T in the arena. Its destructor runs at reset() time, in
  // reverse construction order (so later objects may reference earlier
  // ones, mirroring member-order teardown in a struct).
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back({obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    ++objects_;
    return obj;
  }

  // Adopt an externally placement-constructed object (the SenderFactory
  // arena path: the registry knows the concrete type, we only see the
  // base). `mem` must have come from allocate() on this arena.
  template <typename T>
  T* adopt(T* obj) {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back({obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    ++objects_;
    return obj;
  }

  // Destroy every object (reverse construction order) and release the
  // blocks.
  void reset();

  std::size_t objects() const { return objects_; }
  std::size_t blocks() const { return blocks_.size(); }
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t bytes_reserved() const { return bytes_reserved_; }

  // Every scenario owns an arena, and sweeps run several at once: a block
  // this size holds ~50 flows, stays below glibc's mmap threshold, and
  // costs a one-flow scenario one block rather than a MiB.
  static constexpr std::size_t kDefaultBlockBytes = 64u << 10;

 private:
  struct Dtor {
    void* obj;
    void (*fn)(void*);
  };
  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::vector<Dtor> dtors_;
  std::size_t objects_ = 0;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace rrtcp::pdes
