// Bounded MPMC queue: the admission-control boundary of the serving engine.
//
// Producers are client threads submitting inference requests; consumers are
// the engine's worker pool. The bound is what turns overload into explicit
// backpressure (blocking Push) or load shedding (TryPush + a rejection
// metric) instead of unbounded memory growth — the first thing a serving
// layer needs that the batch experiments never did.
//
// BoundedQueue is a Vyukov-style bounded MPMC ring (mpmc_ring.h) with
// eventcount parking (eventcount.h) for backpressure, blocking pops and
// batch linger. The producer/consumer fast paths take no lock; the
// eventcount mutex exists only for parked threads. The tests hold it to a
// mutex + condition_variable oracle with the same surface
// (tests/mutex_queue_oracle.h).
//
// The contract the layers above depend on:
//   - Push blocks on full, fails only on closed; TryPush sheds on full or
//     closed leaving the item untouched; admission stamps (PushWith) fire
//     at the admission instant, after any backpressure wait.
//   - Pop blocks; returns nullopt only once closed AND drained.
//   - TryPopBatch on an empty queue returns 0 immediately (open or
//     closed); a closed queue never lingers; closed-with-backlog drains.
//   - After Close() returns, no later push succeeds and every push that
//     did succeed is visible to consumers (the drain guarantee Stop()
//     relies on).
//   - size() never undercounts admitted-unconsumed items; DepthRelaxed()
//     is the advisory lock-free read the scheduler scans.
//   - No operation default-constructs a T.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/eventcount.h"
#include "runtime/mpmc_ring.h"

namespace milr::runtime {

/// A Vyukov ring for storage, one packed state word for admission + close,
/// and two eventcounts for parking. The state word is the hot-path trick:
/// bits [0,48) hold the logical depth, bits [48,63) count producers inside
/// admission→publish, bit 63 is the closed flag — so ONE CAS per push
/// checks closed, checks capacity, admits and registers, where three
/// separate atomics would cost three contended RMWs. The invariants each
/// field carries:
///
///   depth    Admission happens by a CAS that refuses to move past the
///            logical capacity, so 0 <= depth <= capacity ALWAYS — no
///            overshoot-and-correct window a concurrent scan could
///            observe. An admitted producer owns one unit of depth until
///            a consumer's decrement. Single pops decrement BETWEEN
///            moving the value out and freeing the ring slot (inside the
///            MpmcRing::TryDequeue sink); batch pops free their slots as
///            they claim and settle the whole batch in one decrement at
///            the end — deferral only ever OVERcounts, so the depth a
///            concurrent scan reads still never exceeds capacity and
///            never undercounts admitted-unconsumed items: size() == 0
///            means every admitted item has been handed to a consumer.
///            (An admitted producer's spin on ring space stays bounded:
///            live units <= capacity <= ring slots, and a slot pending
///            free is mid-instruction in some consumer.)
///
///   pushers  Counts producers inside admission→publish. Close() sets
///            the closed bit and then spins until the pusher field
///            drains; because admission and registration are one CAS,
///            any producer that slips past Close's fetch_or aborts at
///            its CAS (it sees the closed bit) — so when Close()
///            returns, every push that will ever succeed has fully
///            published. That is the drain guarantee: "closed and
///            size()==0" is a stable terminal state, with no admitted
///            item still in flight.
///
///   eventcounts  not_empty_ parks blocking pops and batch lingers;
///            not_full_ parks backpressured pushes. Every notify happens
///            after the condition is visible (ring publish / depth
///            decrement / closed store), which with the eventcount's
///            Dekker protocol rules out lost wakeups.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        ring_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false (and drops `item`) only
  /// if the queue was closed.
  bool Push(T item) {
    return PushWith(std::move(item), [](T&) {});
  }

  /// Push that invokes `on_admit(item)` at the admission instant — after
  /// any backpressure wait — so callers can stamp admission time without
  /// counting the blocked wait as queue residency.
  template <typename AdmitFn>
  bool PushWith(T item, AdmitFn on_admit) {
    for (;;) {
      const PushResult result = TryPushInternal(item, on_admit);
      if (result == PushResult::kPushed) return true;
      if (result == PushResult::kClosed) return false;
      // Full: park until a consumer frees depth (or the queue closes).
      const EventCount::Ticket ticket = not_full_.PrepareWait();
      const std::uint64_t s = state_.load(std::memory_order_seq_cst);
      if ((s & kClosedBit) != 0 || (s & kDepthMask) < capacity_) {
        not_full_.CancelWait();
        continue;
      }
      not_full_.CommitWait(ticket);
    }
  }

  /// Non-blocking admission: returns false when full or closed, leaving
  /// `item` untouched so the caller can shed the load explicitly.
  bool TryPush(T& item) {
    return TryPushInternal(item, [](T&) {}) == PushResult::kPushed;
  }

  /// Blocks until an item is available. Returns nullopt once the queue is
  /// closed *and* drained — consumers finish all admitted work before exit.
  std::optional<T> Pop() {
    std::optional<T> item;
    for (;;) {
      const bool got = ring_.TryDequeue([&](T&& value) {
        item.emplace(std::move(value));
        // Decrement BETWEEN the value move and the slot free: the logical
        // count drops first, so admission (bounded by the depth field)
        // can never outnumber physical slots, and the matched add/sub
        // pairing means the counter can never underflow — which these
        // asserts pin.
        const std::uint64_t prev =
            state_.fetch_sub(1, std::memory_order_seq_cst);
        assert((prev & kDepthMask) >= 1 &&
               "depth underflow: pop without matching push");
        assert((prev & kDepthMask) <= capacity_ &&
               "depth diverged past capacity");
        (void)prev;
      });
      if (got) {
        not_full_.NotifyOne();
        return item;
      }
      std::uint64_t s = state_.load(std::memory_order_seq_cst);
      if ((s & kClosedBit) != 0 && (s & kDepthMask) == 0) {
        return std::nullopt;  // closed AND drained
      }
      const EventCount::Ticket ticket = not_empty_.PrepareWait();
      s = state_.load(std::memory_order_seq_cst);
      if ((s & kClosedBit) != 0 || (s & kDepthMask) != 0) {
        not_empty_.CancelWait();
        continue;  // work (or the closed flag) arrived since the try
      }
      not_empty_.CommitWait(ticket);
    }
  }

  /// Batched pop for the micro-batcher, shaped for shared-pool workers: a
  /// worker holding a scheduler grant must never sleep on one model's
  /// empty queue while other models have backlog, so an empty queue
  /// returns 0 immediately (whether open or closed — closed-with-backlog
  /// still drains). Otherwise appends up to `max_items` to `out`; when
  /// the backlog alone cannot fill the batch and `linger` is positive,
  /// waits up to `linger` for more arrivals before returning — trading a
  /// bounded slice of latency for fuller batches. A closed queue never
  /// lingers: shutdown drains in whatever batch sizes the backlog
  /// provides.
  std::size_t TryPopBatch(std::vector<T>& out, std::size_t max_items,
                          std::chrono::microseconds linger) {
    if (max_items == 0) max_items = 1;
    std::size_t taken = TakeAvailable(out, max_items);
    if (taken == 0) return 0;
    if (taken < max_items && linger.count() > 0 && !closed()) {
      const auto deadline = std::chrono::steady_clock::now() + linger;
      for (;;) {
        if (taken >= max_items) break;
        if (closed()) {
          // A closed queue never lingers; scoop what is there and go.
          taken += TakeAvailable(out, max_items - taken);
          break;
        }
        const EventCount::Ticket ticket = not_empty_.PrepareWait();
        const std::uint64_t s = state_.load(std::memory_order_seq_cst);
        if ((s & kClosedBit) != 0 || (s & kDepthMask) != 0) {
          not_empty_.CancelWait();
          const std::size_t got = TakeAvailable(out, max_items - taken);
          taken += got;
          if (got == 0 &&
              std::chrono::steady_clock::now() >= deadline) {
            break;
          }
          continue;
        }
        if (!not_empty_.CommitWaitUntil(ticket, deadline)) break;
        taken += TakeAvailable(out, max_items - taken);
      }
    }
    return taken;
  }

  /// Stops admission; blocked producers return false, consumers drain the
  /// remaining items and then see nullopt. When Close() returns, every
  /// push that succeeded is visible to consumers and no later push can
  /// succeed.
  void Close() {
    state_.fetch_or(kClosedBit, std::memory_order_seq_cst);
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
    // Wait out producers already inside admission→publish: admission and
    // pusher registration are ONE CAS, so any producer not yet counted
    // here will see the closed bit at its CAS and abort — there is no
    // window where a push is admitted but invisible to this spin. Once
    // the field drains, every successful push is in the ring. Producers
    // never block inside the counted section, so the spin is bounded by
    // a few instructions per producer.
    while ((state_.load(std::memory_order_seq_cst) & kPusherMask) != 0) {
      CpuRelax();
    }
  }

  /// Restart support: re-enables admission after Close(). The owner must
  /// have drained the queue first — reopening over a backlog would revive
  /// requests whose producers were already told "closed".
  void Reopen() {
    state_.fetch_and(~kClosedBit, std::memory_order_seq_cst);
  }

  bool closed() const {
    return (state_.load(std::memory_order_seq_cst) & kClosedBit) != 0;
  }

  /// Exact count of admitted-unconsumed items — the read the drain logic
  /// (ModelRuntime::Drained, shutdown loops) orders against in_flight.
  /// The depth field covers admitted-but-not-yet-ring-published pushes
  /// too, so size() == 0 on a closed queue means every admitted item was
  /// handed to a consumer (see the class comment's depth invariant).
  std::size_t size() const {
    return state_.load(std::memory_order_seq_cst) & kDepthMask;
  }

  /// Relaxed depth for ADVISORY consumers only — the scheduler's backlog
  /// scan reads every co-hosted queue per grant. A scan may see a depth
  /// one mutation stale; the DRR grant it produces was already advisory
  /// (the worker's pop re-checks), so staleness costs at most one wasted
  /// visit. Anything that needs an exact answer ordered against other
  /// state must use size().
  std::size_t DepthRelaxed() const {
    return state_.load(std::memory_order_relaxed) & kDepthMask;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  enum class PushResult { kPushed, kFull, kClosed };

  // state_ layout — see the class comment for the invariants.
  static constexpr std::uint64_t kDepthMask = (std::uint64_t{1} << 48) - 1;
  static constexpr std::uint64_t kPusherUnit = std::uint64_t{1} << 48;
  static constexpr std::uint64_t kPusherMask =
      ((std::uint64_t{1} << 15) - 1) << 48;
  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;

  template <typename AdmitFn>
  PushResult TryPushInternal(T& item, AdmitFn&& on_admit) {
    std::uint64_t s = state_.load(std::memory_order_seq_cst);
    for (;;) {
      if ((s & kClosedBit) != 0) return PushResult::kClosed;
      const std::uint64_t depth = s & kDepthMask;
      assert(depth <= capacity_ && "depth diverged past capacity");
      if (depth >= capacity_) return PushResult::kFull;
      assert((s & kPusherMask) != kPusherMask && "pusher field overflow");
      // One CAS does all of it: fails if the closed bit appeared (we
      // re-test on the reloaded value), refuses to move depth past the
      // logical capacity (no overshoot-and-correct window a concurrent
      // scan could observe), and registers us in the pusher field so
      // Close()'s drain spin waits for our ring publish.
      if (state_.compare_exchange_weak(s, s + 1 + kPusherUnit,
                                       std::memory_order_seq_cst)) {
        break;
      }
    }
    // Admitted: stamp at the admission instant (after any backpressure)...
    on_admit(item);
    // ...then claim a ring slot. Admission bounds live claims to
    // capacity <= ring capacity, so the only way this fails is a slot
    // whose consumer took the value but has not yet freed the cell —
    // imminent by construction, so spin.
    while (!ring_.TryEnqueue(item)) CpuRelax();
    const std::uint64_t prev =
        state_.fetch_sub(kPusherUnit, std::memory_order_seq_cst);
    assert((prev & kPusherMask) != 0 && "pusher field underflow");
    (void)prev;
    not_empty_.NotifyOne();
    return PushResult::kPushed;
  }

  /// Drains up to `want` immediately-available items into `out`. When the
  /// ring looks empty but the depth field says items were admitted, a
  /// producer is between admission and publish — spin briefly for it,
  /// then give up (the caller's batch was always advisory; the item stays
  /// counted in size() so no drain loop concludes early).
  ///
  /// The depth decrement is DEFERRED to one fetch_sub(taken) at the end:
  /// between a slot free and the settle, depth only ever OVERcounts, so
  /// the invariants a concurrent observer relies on survive — depth never
  /// exceeds capacity (admission got stricter, not looser) and never
  /// undercounts admitted-unconsumed items ("size()==0 means drained"
  /// still holds). A producer spinning on ring space during that window
  /// stays bounded: the slots ARE free, it is only the counter lagging.
  std::size_t TakeAvailable(std::vector<T>& out, std::size_t want) {
    // The sink runs while it holds a ring slot. ModelRuntime::ServeSome
    // reserves max_batch up front, so on the serving path this push_back
    // never reallocates inside that window.
    const auto sink = [&out](T&& value) { out.push_back(std::move(value)); };
    std::size_t taken = 0;
    while (taken < want) {
      if (ring_.TryDequeue(sink)) {
        ++taken;
        continue;
      }
      // Depth minus what we already hold but have not settled: if no one
      // ELSE has items in flight, stop — otherwise a producer is between
      // admission and publish, so spin briefly for it.
      if ((state_.load(std::memory_order_seq_cst) & kDepthMask) <= taken) {
        break;
      }
      bool got = false;
      for (int spins = 0; spins < 128 && !got; ++spins) {
        CpuRelax();
        got = ring_.TryDequeue(sink);
      }
      if (!got) break;
      ++taken;
    }
    if (taken > 0) {
      const std::uint64_t prev =
          state_.fetch_sub(taken, std::memory_order_seq_cst);
      assert((prev & kDepthMask) >= taken &&
             "depth underflow: batch pop without matching pushes");
      assert((prev & kDepthMask) <= capacity_ &&
             "depth diverged past capacity");
      (void)prev;
      // One notify per batch, not per item. With several units freed at
      // once, NotifyOne could strand all-but-one parked producer until
      // the next pop; NotifyAll lets every backpressured pusher re-race
      // for the freed capacity.
      if (taken > 1) {
        not_full_.NotifyAll();
      } else {
        not_full_.NotifyOne();
      }
    }
    return taken;
  }

  const std::size_t capacity_;
  MpmcRing<T> ring_;
  /// The packed admission word: depth | pushers | closed (see the class
  /// comment). Everything the push fast path must check or mutate lives
  /// in this one cache line.
  std::atomic<std::uint64_t> state_{0};
  EventCount not_full_;
  EventCount not_empty_;
};

}  // namespace milr::runtime
