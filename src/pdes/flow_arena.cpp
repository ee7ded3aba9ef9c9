#include "pdes/flow_arena.hpp"

#include "sim/assert.hpp"

namespace rrtcp::pdes {

void* FlowArena::allocate(std::size_t size, std::size_t align) {
  RRTCP_ASSERT(size > 0 && align > 0 && (align & (align - 1)) == 0);
  if (!blocks_.empty()) {
    Block& b = blocks_.back();
    const std::size_t aligned = (b.used + align - 1) & ~(align - 1);
    if (aligned + size <= b.size) {
      b.used = aligned + size;
      bytes_used_ += size;
      return b.mem.get() + aligned;
    }
  }
  // Fresh block. operator new[] storage for std::byte is aligned to
  // __STDCPP_DEFAULT_NEW_ALIGNMENT__ (>= 16); nothing we pool needs more.
  RRTCP_ASSERT(align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  const std::size_t bsize = size > block_bytes_ ? size : block_bytes_;
  Block b;
  // Uninitialized: only the pages objects are placed in become resident,
  // so a scenario with a handful of flows does not pin a whole block.
  b.mem = std::make_unique_for_overwrite<std::byte[]>(bsize);
  b.size = bsize;
  b.used = size;
  bytes_used_ += size;
  bytes_reserved_ += bsize;
  blocks_.push_back(std::move(b));
  return blocks_.back().mem.get();
}

void FlowArena::reset() {
  for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) it->fn(it->obj);
  dtors_.clear();
  blocks_.clear();
  objects_ = 0;
  bytes_used_ = 0;
  bytes_reserved_ = 0;
}

}  // namespace rrtcp::pdes
