// Differential validation of the lock-free BoundedQueue against the mutex
// oracle (tests/mutex_queue_oracle.h):
//
//   1. Sequential lockstep — a seeded random op script drives BOTH queues
//      one op at a time; every return value, popped item, size, depth and
//      closed flag must match EXACTLY, op for op. Sequentially the two
//      implementations are observationally identical by contract, so any
//      divergence is a bug with a replayable seed.
//   2. Concurrent workloads — the same seeded producer/consumer mix runs
//      on each queue; interleavings differ, so the comparison is the
//      invariants (conservation, per-producer FIFO, exact settle), which
//      must hold for both.
//
// Runs under TSan in CI next to the litmus harnesses.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mutex_queue_oracle.h"
#include "runtime/request_queue.h"

namespace milr::runtime {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------- sequential lockstep

TEST(QueueDifferentialTest, SequentialScriptMatchesOracleExactly) {
  constexpr std::size_t kCapacity = 6;
  constexpr int kOps = 20000;
  MutexQueue<int> oracle(kCapacity);
  BoundedQueue<int> ring(kCapacity);
  std::mt19937 rng(20260808u);
  std::uniform_int_distribution<int> op_dist(0, 99);
  int next_value = 0;

  for (int op = 0; op < kOps; ++op) {
    const int roll = op_dist(rng);
    if (roll < 30) {
      int a = next_value, b = next_value;
      ++next_value;
      ASSERT_EQ(oracle.TryPush(a), ring.TryPush(b)) << "op " << op;
    } else if (roll < 45) {
      // Blocking push, guarded so it cannot actually block: only when
      // space exists or the queue is closed (where it returns false).
      if (oracle.size() < kCapacity || oracle.closed()) {
        const int v = next_value++;
        ASSERT_EQ(oracle.Push(v), ring.Push(v)) << "op " << op;
      }
    } else if (roll < 60) {
      // Blocking pop, guarded the same way.
      if (oracle.size() > 0 || oracle.closed()) {
        const auto a = oracle.Pop();
        const auto b = ring.Pop();
        ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
        if (a.has_value()) {
          ASSERT_EQ(*a, *b) << "op " << op;
        }
      }
    } else if (roll < 85) {
      std::vector<int> a, b;
      const std::size_t want = 1 + static_cast<std::size_t>(roll % 4);
      ASSERT_EQ(oracle.TryPopBatch(a, want, 0us),
                ring.TryPopBatch(b, want, 0us))
          << "op " << op;
      ASSERT_EQ(a, b) << "op " << op;
    } else if (roll < 92) {
      oracle.Close();
      ring.Close();
    } else if (oracle.closed() && oracle.size() == 0) {
      // Reopen only over a drained queue (the documented contract).
      oracle.Reopen();
      ring.Reopen();
    }
    ASSERT_EQ(oracle.size(), ring.size()) << "op " << op;
    ASSERT_EQ(oracle.DepthRelaxed(), ring.DepthRelaxed()) << "op " << op;
    ASSERT_EQ(oracle.closed(), ring.closed()) << "op " << op;
  }
}

// ---------------------------------------------- concurrent invariants

struct WorkloadResult {
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t consumed = 0;
};

/// Runs a seeded producers×consumers mix on one queue type and checks
/// the interleaving-independent invariants inline (per-consumer
/// per-producer FIFO). Returns the totals for the conservation check.
template <typename Queue>
WorkloadResult RunWorkload(const char* name, unsigned seed) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 3000;
  constexpr std::uint64_t kStride = 1u << 20;
  Queue queue(24);
  WorkloadResult result;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      std::mt19937 rng(seed + static_cast<unsigned>(p));
      std::uniform_int_distribution<int> coin(0, 1);
      for (int i = 0; i < kPerProducer; ++i) {
        std::uint64_t item =
            static_cast<std::uint64_t>(p) * kStride +
            static_cast<std::uint64_t>(i);
        if (coin(rng) == 0) {
          if (queue.TryPush(item)) {
            admitted.fetch_add(1, std::memory_order_relaxed);
          } else {
            shed.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          if (queue.Push(item)) {
            admitted.fetch_add(1, std::memory_order_relaxed);
          } else {
            return;  // closed
          }
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937 rng(seed + 1000u + static_cast<unsigned>(c));
      std::uniform_int_distribution<std::size_t> batch(1, 6);
      std::vector<std::uint64_t> out;
      std::vector<std::uint64_t> last(kProducers, 0);
      std::vector<bool> started(kProducers, false);
      for (;;) {
        out.clear();
        const std::size_t n = queue.TryPopBatch(out, batch(rng), 20us);
        for (const std::uint64_t item : out) {
          const auto p = static_cast<std::size_t>(item / kStride);
          const std::uint64_t s = item % kStride;
          if (started[p]) {
            // A consumer's own stream respects each producer's push
            // order — FIFO dequeue means no consumer can see producer
            // p's item k after item k+1.
            EXPECT_GT(s, last[p]) << name;
          }
          started[p] = true;
          last[p] = s;
        }
        consumed.fetch_add(n, std::memory_order_relaxed);
        if (n == 0 && queue.closed() && queue.size() == 0) return;
        if (n == 0) std::this_thread::yield();
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[static_cast<std::size_t>(p)].join();
  }
  queue.Close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(queue.size(), 0u) << name;
  result.admitted = admitted.load();
  result.shed = shed.load();
  result.consumed = consumed.load();
  return result;
}

TEST(QueueDifferentialTest, ConcurrentWorkloadInvariantsHoldOnBothKinds) {
  for (unsigned seed : {7u, 99u, 20260808u}) {
    const WorkloadResult oracle =
        RunWorkload<MutexQueue<std::uint64_t>>("oracle", seed);
    const WorkloadResult ring =
        RunWorkload<BoundedQueue<std::uint64_t>>("ring", seed);
    // Conservation: every admitted item is consumed exactly once, and
    // admitted + shed accounts for every push attempt that returned.
    EXPECT_EQ(oracle.consumed, oracle.admitted) << "oracle seed " << seed;
    EXPECT_EQ(ring.consumed, ring.admitted) << "ring seed " << seed;
    EXPECT_GT(oracle.admitted, 0u) << "oracle seed " << seed;
    EXPECT_GT(ring.admitted, 0u) << "ring seed " << seed;
  }
}

}  // namespace
}  // namespace milr::runtime
