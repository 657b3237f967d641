// Litmus-style harnesses for the tricky orderings in the lock-free MPMC
// queue — the cases where a memory-ordering bug hides from ordinary unit
// tests and shows up once every few million interleavings:
//
//   * push vs close      an admission that wins the race against the
//                        closing flag must be drained, never lost (the
//                        pusher-counter handshake in Close).
//   * wraparound ABA     a tiny ring laps its cursors thousands of times
//                        per second; a stale cursor must never claim a
//                        slot twice in one round (per-cell sequences).
//   * batch-pop vs       per-producer FIFO must survive batched claims
//     racing producers   racing concurrent publishes.
//   * depth bounds       the admission counter never over/undershoots,
//                        racing or quiesced (satellite audit).
//
// Each harness is typed over the ring and the mutex oracle
// (tests/mutex_queue_oracle.h) — the oracle passing trivially is the
// point: any behavioral split between the two is a bug in the ring by
// definition. Wall-time and thread count scale from the environment so CI
// can run these as a dedicated multi-second TSan stress step while local
// ctest stays fast:
//
//   MILR_LITMUS_MS       per-harness time budget (default 200)
//   MILR_LITMUS_THREADS  producer/consumer thread count (default 4)
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "mutex_queue_oracle.h"
#include "runtime/request_queue.h"

namespace milr::runtime {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

std::chrono::milliseconds Budget() {
  return std::chrono::milliseconds(EnvInt("MILR_LITMUS_MS", 200));
}

int Threads() { return EnvInt("MILR_LITMUS_THREADS", 4); }

template <typename Queue>
class QueueLitmusTest : public ::testing::Test {};

using QueueTypes = ::testing::Types<BoundedQueue<std::uint64_t>,
                                    MutexQueue<std::uint64_t>>;

struct QueueTypeNames {
  template <typename Queue>
  static std::string GetName(int) {
    return std::is_same_v<Queue, BoundedQueue<std::uint64_t>>
               ? "Ring"
               : "MutexOracle";
  }
};

TYPED_TEST_SUITE(QueueLitmusTest, QueueTypes, QueueTypeNames);

TYPED_TEST(QueueLitmusTest, PushVsCloseAdmittedNeverLost) {
  // Many short rounds, each with Close() landing mid-traffic: whatever a
  // producer was TOLD was admitted must come out of the drain, and
  // whatever was refused must not. The round count (not duration per
  // round) is what probes the race window, so rounds are small and many.
  const auto deadline = Clock::now() + Budget();
  const int producers = Threads();
  int rounds = 0;
  do {
    ++rounds;
    TypeParam queue(8);
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pushers;
    for (int p = 0; p < producers; ++p) {
      pushers.emplace_back([&, p] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < 64; ++i) {
          std::uint64_t v = static_cast<std::uint64_t>(p) * 1000 + i;
          // Alternate blocking and non-blocking admission so both paths
          // race the closing flag.
          const bool ok = (i % 2 == 0) ? queue.TryPush(v)
                                       : queue.Push(v);
          if (ok) admitted.fetch_add(1, std::memory_order_relaxed);
          if (queue.closed()) break;
        }
      });
    }
    std::atomic<std::uint64_t> drained{0};
    std::thread consumer([&] {
      std::vector<std::uint64_t> out;
      for (;;) {
        out.clear();
        const std::size_t n = queue.TryPopBatch(out, 4, 0us);
        drained.fetch_add(n, std::memory_order_relaxed);
        if (n == 0 && queue.closed() && queue.size() == 0) return;
      }
    });
    go.store(true, std::memory_order_release);
    // Close as early as possible — the interesting schedule is Close
    // landing inside a producer's admission window.
    queue.Close();
    for (auto& t : pushers) t.join();
    consumer.join();
    ASSERT_EQ(drained.load(), admitted.load())
        << "round " << rounds << ": admitted item lost (or phantom item "
        << "drained) across Close";
    ASSERT_EQ(queue.size(), 0u);
  } while (Clock::now() < deadline);
}

TYPED_TEST(QueueLitmusTest, WraparoundAbaExactlyOnce) {
  // Capacity 2: the ring's cursors lap every couple of operations, so a
  // few hundred thousand pushes exercise the sequence-number wraparound
  // arithmetic (the ABA protection) orders of magnitude harder than a
  // realistically-sized queue would. Every value must come out exactly
  // once.
  const int producers = std::max(2, Threads() / 2);
  const int consumers = std::max(2, Threads() / 2);
  constexpr std::uint64_t kPerProducer = 20000;
  TypeParam queue(2);
  const auto deadline = Clock::now() + Budget();

  std::vector<std::uint8_t> seen(
      static_cast<std::size_t>(producers) * kPerProducer, 0);
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        if (Clock::now() >= deadline) break;
        if (!queue.Push(static_cast<std::uint64_t>(p) * kPerProducer + i)) {
          break;
        }
        pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      while (auto item = queue.Pop()) {
        // Each slot is written by exactly one consumer if exactly-once
        // holds; TSan would flag the write-write race a duplicate
        // delivery causes, and the value check below catches it too.
        std::uint8_t& slot = seen[static_cast<std::size_t>(*item)];
        ASSERT_EQ(slot, 0) << "value " << *item << " delivered twice "
                           << "(ABA: one slot claimed twice in a round)";
        slot = 1;
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Producers stop at the deadline (or their quota); then close to
  // release the consumers.
  for (int p = 0; p < producers; ++p) threads[static_cast<std::size_t>(p)].join();
  queue.Close();
  for (std::size_t t = static_cast<std::size_t>(producers);
       t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(popped.load(), pushed.load());
  std::uint64_t delivered = 0;
  for (const std::uint8_t s : seen) delivered += s;
  EXPECT_EQ(delivered, pushed.load());
  EXPECT_EQ(queue.size(), 0u);
}

TYPED_TEST(QueueLitmusTest, BatchPopVsRacingProducersKeepsPerProducerOrder) {
  // One consumer batch-pops while producers race their publishes: the
  // consumer must see each producer's items in push order even when a
  // batch claim lands BETWEEN a producer's admission and its ring
  // publish (the mid-publish spin in TakeAvailable).
  const int producers = Threads();
  TypeParam queue(16);
  const auto deadline = Clock::now() + Budget();
  constexpr std::uint64_t kSeqStride = 1u << 20;

  std::vector<std::thread> pushers;
  for (int p = 0; p < producers; ++p) {
    pushers.emplace_back([&, p] {
      std::uint64_t seq = 0;
      while (Clock::now() < deadline) {
        if (!queue.Push(static_cast<std::uint64_t>(p) * kSeqStride +
                        seq)) {
          return;
        }
        ++seq;
      }
    });
  }
  std::vector<std::uint64_t> last_seq(static_cast<std::size_t>(producers),
                                      0);
  std::vector<bool> started(static_cast<std::size_t>(producers), false);
  std::vector<std::uint64_t> out;
  std::uint64_t total = 0;
  for (;;) {
    out.clear();
    const std::size_t n = queue.TryPopBatch(out, 8, 100us);
    for (const std::uint64_t item : out) {
      const auto p = static_cast<std::size_t>(item / kSeqStride);
      const std::uint64_t seq = item % kSeqStride;
      if (started[p]) {
        ASSERT_GT(seq, last_seq[p])
            << "producer " << p << " reordered: saw seq " << seq
            << " after " << last_seq[p];
      }
      started[p] = true;
      last_seq[p] = seq;
      ++total;
    }
    if (n == 0 && queue.closed() && queue.size() == 0) break;
    if (Clock::now() >= deadline) queue.Close();
  }
  for (auto& t : pushers) t.join();
  EXPECT_GT(total, 0u);
}

TYPED_TEST(QueueLitmusTest, DepthBoundedAndSettles) {
  // The satellite audit as a harness: under full producer/consumer chaos
  // the published depth must stay inside [0, capacity] (for the
  // lock-free queue that is the CAS-admission + decrement-before-free
  // pair; size_t wraparound from an underflow would read as a huge
  // value), and after quiescing it must equal the exact item count.
  constexpr std::size_t kCapacity = 16;
  TypeParam queue(kCapacity);
  const auto deadline = Clock::now() + Budget();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> popped{0};

  std::vector<std::thread> threads;
  const int pairs = std::max(2, Threads() / 2);
  for (int t = 0; t < pairs; ++t) {
    threads.emplace_back([&] {
      std::uint64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t item = v++;
        if (queue.TryPush(item)) {
          pushed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    threads.emplace_back([&] {
      std::vector<std::uint64_t> out;
      while (!stop.load(std::memory_order_relaxed)) {
        out.clear();
        popped.fetch_add(queue.TryPopBatch(out, 5, 0us),
                         std::memory_order_relaxed);
      }
    });
  }
  // The scanner thread plays the scheduler: relaxed reads, no lock.
  std::uint64_t scans = 0;
  while (Clock::now() < deadline) {
    const std::size_t depth = queue.DepthRelaxed();
    ASSERT_LE(depth, kCapacity)
        << "depth over/underflowed after " << scans << " scans";
    ++scans;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  // Quiesced: exact accounting and counter agreement.
  EXPECT_EQ(queue.size(), pushed.load() - popped.load());
  EXPECT_EQ(queue.DepthRelaxed(), queue.size());
  EXPECT_GT(scans, 0u);
}

}  // namespace
}  // namespace milr::runtime
