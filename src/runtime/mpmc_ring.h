// Bounded lock-free MPMC ring (Vyukov-style): the storage half of the
// lock-free request path.
//
// Each cell carries its own sequence number; producers and consumers
// claim positions with a CAS on their respective cursors and hand cells
// to each other purely through the per-cell sequence:
//
//   cell state          seq value            who may touch it next
//   ----------          ---------            ---------------------
//   empty, round r      pos                  producer claiming pos
//   full,  round r      pos + 1              consumer claiming pos
//   freed, round r      pos + capacity       producer claiming pos+capacity
//
// The sequence comparison is done in signed difference space, so cursor
// wraparound is handled for free and a slot can never be claimed twice in
// the same round (the ABA protection: a stale cursor value finds a
// sequence from a later round, diff != 0, and the claim retries or
// reports empty/full). Capacity is rounded up to a power of two so the
// position → cell mapping is a mask, and the two cursors live on their
// own cache lines so producers and consumers don't false-share.
//
// Cells hold std::optional<T>: a value exists only while its cell is full,
// so the ring never default-constructs a T (a serving request carries a
// std::promise, whose default constructor allocates).
//
// This type is intentionally dumb: no close/reopen, no blocking, no depth
// — TryEnqueue/TryDequeue only. BoundedQueue (request_queue.h) layers
// admission control, backpressure parking, and lifecycle on top.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace milr::runtime {

/// Polite spin: tells the core (and a hyperthread sibling) the loop is a
/// wait, not work. Used by spin sites in the lock-free queue.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(_M_X64)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

template <typename T>
class MpmcRing {
  static_assert(std::is_move_constructible_v<T>,
                "values move through the ring");

 public:
  /// Rounds `min_capacity` up to a power of two (floor 2: a 1-slot ring
  /// degenerates the full/empty sequence distinction).
  explicit MpmcRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  /// Claims a slot and moves `item` into it. Returns false (item
  /// untouched) when the ring is full — including the transient case
  /// where the blocking slot's consumer has taken its value but not yet
  /// published the freed sequence; callers that KNOW space exists
  /// (admission-controlled) spin on this.
  bool TryEnqueue(T& item) {
    Cell* cell;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        // Empty this round: claim the position. The CAS may be relaxed —
        // the cell handoff below is what publishes the value.
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // a full lap behind: ring full (or slot mid-free)
      } else {
        pos = head_.load(std::memory_order_relaxed);  // lost the race
      }
    }
    cell->value.emplace(std::move(item));
    // Publish: seq = pos + 1 marks "full, round r"; the release pairs
    // with the consumer's acquire load so the moved value is visible.
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Claims the oldest full slot, hands its value to `sink` as an rvalue,
  /// then frees the slot. The sink runs while the slot is still claimed:
  /// that is how BoundedQueue keeps its depth counter
  /// decrement-before-free — the logical count drops while the physical
  /// slot is still unavailable, so a depth-admitted producer can never
  /// find MORE than `capacity` slots claimed.
  template <typename Sink>
  bool TryDequeue(Sink&& sink) {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty (or producer mid-publish on this slot)
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    sink(std::move(*cell->value));
    cell->value.reset();
    // Free: seq = pos + capacity marks "empty, next round" — the release
    // pairs with a producer's acquire a full lap later.
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    std::optional<T> value;  // engaged exactly while the cell is full
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  /// Producer and consumer cursors on separate cache lines: every
  /// enqueue CASes head_, every dequeue CASes tail_ — sharing a line
  /// would bounce it between the two populations on every operation.
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace milr::runtime
