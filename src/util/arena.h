// Bump-pointer arena for per-flight scratch (DESIGN.md §14).
//
// One dynamic-analysis flight (a capture pair plus its differential
// detection) builds thousands of short-lived nodes — detector aggregation
// maps, per-destination scratch — all with identical lifetime: they die
// together when the flight's report is assembled. An Arena turns that churn
// into pointer bumps over a few large blocks, and Reset() recycles the
// blocks for the next flight, so steady-state allocator traffic is O(1) per
// flight instead of O(nodes).
//
// Threading: an Arena is deliberately NOT synchronized. One flight runs on
// one thread, so a per-flight (or thread-local) arena is never shared;
// sharing one Arena across concurrently-running flights is a data race.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace pinscope::util {

/// Chained-block bump allocator. Individual deallocation is a no-op; memory
/// is reclaimed wholesale by Reset() or destruction.
class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 16 * 1024;

  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes);
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two, at most
  /// alignof(std::max_align_t) per block guarantee — larger alignments are
  /// honored by over-allocating). Never returns nullptr; zero-byte requests
  /// yield a valid one-past pointer.
  void* Allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t));

  /// Drops every allocation at once. The largest block is retained and
  /// rewound so a steady-state caller (one Reset per flight) stops touching
  /// the global allocator entirely; the rest are returned to it.
  void Reset();

  /// Bytes handed out since construction or the last Reset().
  [[nodiscard]] std::size_t bytes_allocated() const { return bytes_allocated_; }

  /// Blocks currently owned (diagnostic; ≥1 once anything was allocated).
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  /// Makes `cur_` point into a fresh block with at least `bytes` of room.
  void AddBlock(std::size_t bytes);

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t bytes_allocated_ = 0;
};

/// std::allocator-compatible adapter. A null arena falls back to the global
/// allocator, so container types can be arena-parameterized unconditionally
/// and opt in only when a flight provides one. Arena-backed deallocate() is
/// a no-op — memory returns on Arena::Reset().
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (arena_ == nullptr) {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T* p, std::size_t) noexcept {
    if (arena_ == nullptr) ::operator delete(p);
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator<U>& b) {
    return a.arena_ == b.arena();
  }

 private:
  Arena* arena_ = nullptr;
};

}  // namespace pinscope::util
