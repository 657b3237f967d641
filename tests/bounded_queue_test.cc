// BoundedQueue contract tests, typed over the lock-free ring and the mutex
// oracle (tests/mutex_queue_oracle.h): every behavior the layers above
// depend on — FIFO order, shedding, TryPopBatch racing Close, Reopen after
// a drain, linger wake-ups, blocking-push backpressure, racing-PopBatch
// conservation and the advisory depth counter's bounds — must hold for
// the ring exactly as it does for the obviously-correct oracle. Runs
// under TSan in CI.
#include <algorithm>
#include <atomic>
#include <chrono>
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

template <typename Queue>
class BoundedQueueTest : public ::testing::Test {};

using QueueTypes = ::testing::Types<BoundedQueue<int>, MutexQueue<int>>;

struct QueueTypeNames {
  template <typename Queue>
  static std::string GetName(int) {
    return std::is_same_v<Queue, BoundedQueue<int>> ? "Ring" : "MutexOracle";
  }
};

TYPED_TEST_SUITE(BoundedQueueTest, QueueTypes, QueueTypeNames);

TYPED_TEST(BoundedQueueTest, FifoOrder) {
  TypeParam queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  for (int i = 0; i < 5; ++i) {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
}

TYPED_TEST(BoundedQueueTest, TryPushShedsWhenFull) {
  TypeParam queue(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(queue.TryPush(a));
  EXPECT_TRUE(queue.TryPush(b));
  EXPECT_FALSE(queue.TryPush(c));
  EXPECT_EQ(queue.size(), 2u);
}

TYPED_TEST(BoundedQueueTest, CloseDrainsThenSignalsConsumers) {
  TypeParam queue(8);
  EXPECT_TRUE(queue.Push(7));
  queue.Close();
  EXPECT_FALSE(queue.Push(8));  // admission stopped
  auto item = queue.Pop();
  ASSERT_TRUE(item.has_value());  // admitted work still drains
  EXPECT_EQ(*item, 7);
  EXPECT_FALSE(queue.Pop().has_value());
}

TYPED_TEST(BoundedQueueTest, BlockedConsumerWakesOnPush) {
  TypeParam queue(4);
  std::atomic<int> got{-1};
  std::thread consumer([&] {
    auto item = queue.Pop();
    got.store(item.value_or(-2));
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(queue.Push(99));
  consumer.join();
  EXPECT_EQ(got.load(), 99);
}

TYPED_TEST(BoundedQueueTest, TryPopBatchEmptyReturnsImmediatelyOpenOrClosed) {
  TypeParam queue(8);
  std::vector<int> out;
  // Open + empty: no linger may be paid (a granted worker must never park
  // on an empty queue).
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.TryPopBatch(out, 4, 200ms), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 100ms);
  queue.Close();
  EXPECT_EQ(queue.TryPopBatch(out, 4, 200ms), 0u);
}

TYPED_TEST(BoundedQueueTest, ClosedQueueDrainsBacklogWithoutLinger) {
  TypeParam queue(8);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(queue.TryPush(v));
  }
  queue.Close();
  std::vector<int> out;
  // Closed-with-backlog still drains, in whatever bites the backlog
  // provides, and never lingers for a fuller batch.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.TryPopBatch(out, 3, 500ms), 3u);
  EXPECT_EQ(queue.TryPopBatch(out, 3, 500ms), 2u);
  EXPECT_EQ(queue.TryPopBatch(out, 3, 500ms), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 400ms);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i);
}

TYPED_TEST(BoundedQueueTest, LingerFillsBatchFromLateArrivals) {
  TypeParam queue(8);
  int v = 0;
  ASSERT_TRUE(queue.TryPush(v));
  std::thread producer([&] {
    std::this_thread::sleep_for(10ms);
    for (int i = 1; i < 4; ++i) {
      int item = i;
      queue.TryPush(item);
    }
  });
  std::vector<int> out;
  // One item is ready; the linger window must pick up the other three.
  EXPECT_EQ(queue.TryPopBatch(out, 4, 2000ms), 4u);
  producer.join();
}

TYPED_TEST(BoundedQueueTest, CloseWakesLingeringConsumer) {
  TypeParam queue(8);
  int v = 0;
  ASSERT_TRUE(queue.TryPush(v));
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    queue.Close();
  });
  std::vector<int> out;
  const auto start = std::chrono::steady_clock::now();
  // The consumer holds a partial batch inside a long linger; Close must
  // cut the wait short instead of letting shutdown eat the full window.
  EXPECT_EQ(queue.TryPopBatch(out, 4, 5000ms), 1u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2500ms);
  closer.join();
}

TYPED_TEST(BoundedQueueTest, ReopenAfterDrainRestoresAdmissionAndDepth) {
  TypeParam queue(4);
  int v = 1;
  ASSERT_TRUE(queue.TryPush(v));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(v));
  std::vector<int> out;
  EXPECT_EQ(queue.TryPopBatch(out, 4, 0us), 1u);  // drain the backlog
  EXPECT_EQ(queue.DepthRelaxed(), 0u);

  queue.Reopen();
  EXPECT_FALSE(queue.closed());
  v = 2;
  EXPECT_TRUE(queue.TryPush(v));
  EXPECT_TRUE(queue.Push(3));
  EXPECT_EQ(queue.DepthRelaxed(), 2u);
  EXPECT_EQ(queue.size(), 2u);
  auto popped = queue.Pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 2);
  EXPECT_EQ(queue.DepthRelaxed(), 1u);
}

TYPED_TEST(BoundedQueueTest, DepthTracksSizeThroughEveryMutation) {
  TypeParam queue(8);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(queue.Push(i));
    EXPECT_EQ(queue.DepthRelaxed(), queue.size());
  }
  std::vector<int> out;
  EXPECT_EQ(queue.TryPopBatch(out, 4, 0us), 4u);
  EXPECT_EQ(queue.DepthRelaxed(), 2u);
  (void)queue.Pop();
  EXPECT_EQ(queue.DepthRelaxed(), 1u);
}

TYPED_TEST(BoundedQueueTest, TryPushShedsAtExactLogicalCapacity) {
  // The lock-free ring rounds its PHYSICAL capacity to a power of two,
  // but admission must honor the LOGICAL capacity the caller configured —
  // the shed point the rejection metrics and the co-hosting memory
  // budgets are calibrated against.
  TypeParam queue(3);
  EXPECT_EQ(queue.capacity(), 3u);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    EXPECT_TRUE(queue.TryPush(v));
  }
  int overflow = 99;
  EXPECT_FALSE(queue.TryPush(overflow));
  EXPECT_EQ(overflow, 99);  // a shed item is left untouched
  EXPECT_EQ(queue.size(), 3u);
}

TYPED_TEST(BoundedQueueTest, PushBlocksOnFullUntilPopFrees) {
  TypeParam queue(2);
  EXPECT_TRUE(queue.Push(0));
  EXPECT_TRUE(queue.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // must block until the pop below
    pushed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(pushed.load(std::memory_order_acquire));
  auto popped = queue.Pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 0);
  producer.join();
  EXPECT_TRUE(pushed.load(std::memory_order_acquire));
  EXPECT_EQ(queue.size(), 2u);
}

TYPED_TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  TypeParam queue(1);
  EXPECT_TRUE(queue.Push(0));
  std::atomic<bool> bounced{false};
  std::thread producer([&] {
    EXPECT_FALSE(queue.Push(1));  // parked on full; Close must bounce it
    bounced.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);
  queue.Close();
  producer.join();
  EXPECT_TRUE(bounced.load(std::memory_order_acquire));
  EXPECT_EQ(queue.size(), 1u);  // the original item drains normally
}

TYPED_TEST(BoundedQueueTest, TryPopBatchRacingCloseLosesNoItems) {
  // Producers block in Push until Close bounces them; consumers drain
  // with TryPopBatch through the closure. Every admitted item must come
  // out exactly once — the Stop() drain guarantee the pool relies on.
  for (int round = 0; round < 20; ++round) {
    TypeParam queue(16);
    std::atomic<int> admitted{0};
    std::atomic<int> popped{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < 3; ++t) {
      producers.emplace_back([&, t] {
        for (int i = 0; i < 200; ++i) {
          if (!queue.Push(t * 1000 + i)) break;  // closed: stop producing
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::vector<std::thread> consumers;
    for (int t = 0; t < 2; ++t) {
      consumers.emplace_back([&] {
        std::vector<int> out;
        for (;;) {
          out.clear();
          const std::size_t n = queue.TryPopBatch(out, 8, 100us);
          popped.fetch_add(static_cast<int>(n),
                           std::memory_order_relaxed);
          // Exit only when closed AND drained. The size() term matters
          // for the lock-free queue: a producer that won admission
          // against the closing flag may still be publishing its item
          // into the ring — size() counts it, a bare "n == 0" poll might
          // miss it and strand the item.
          if (n == 0 && queue.closed() && queue.size() == 0) return;
          if (n == 0) std::this_thread::yield();
        }
      });
    }
    std::this_thread::sleep_for(1ms);
    queue.Close();
    for (auto& t : producers) t.join();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(popped.load(), admitted.load()) << "round " << round;
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.DepthRelaxed(), 0u);
  }
}

TYPED_TEST(BoundedQueueTest, RacingPopBatchConsumersShareTheBacklogExactly) {
  // Several consumers batch-pop one producer stream concurrently: the
  // union of their batches must be the exact item set (no loss, no
  // duplication — the ABA case the ring's per-cell sequences exist for),
  // and each consumer's own stream must be in push order (dequeue order
  // is FIFO; racing consumers interleave BETWEEN each other but a single
  // consumer can never see reordered items).
  constexpr int kItems = 4000;
  constexpr int kConsumers = 3;
  TypeParam queue(32);
  std::vector<std::vector<int>> got(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::vector<int> out;
      for (;;) {
        out.clear();
        const std::size_t n = queue.TryPopBatch(out, 7, 50us);
        got[c].insert(got[c].end(), out.begin(), out.end());
        if (n == 0 && queue.closed() && queue.size() == 0) return;
        if (n == 0) std::this_thread::yield();
      }
    });
  }
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(queue.Push(i));
  }
  queue.Close();
  for (auto& t : consumers) t.join();

  std::vector<int> all;
  for (int c = 0; c < kConsumers; ++c) {
    // Per-consumer monotonicity: a consumer's batches are drained in
    // queue order, so its concatenated stream must be increasing.
    EXPECT_TRUE(std::is_sorted(got[c].begin(), got[c].end()))
        << "consumer " << c << " saw reordered items";
    all.insert(all.end(), got[c].begin(), got[c].end());
  }
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kItems));
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(all[static_cast<std::size_t>(i)], i)
        << "item lost or duplicated";
  }
}

TYPED_TEST(BoundedQueueTest, CloseWhilePoppingHandsOffEveryBlockedConsumer) {
  // Blocking Pop consumers parked on an empty queue: Close must wake all
  // of them into the nullopt exit, and items pushed before Close must
  // each land in exactly one consumer.
  TypeParam queue(8);
  std::atomic<int> received{0};
  std::atomic<int> exited{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.Pop()) {
        received.fetch_add(1, std::memory_order_relaxed);
      }
      exited.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(10ms);  // let consumers park
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Push(i));
  }
  std::this_thread::sleep_for(10ms);
  queue.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(received.load(), 3);
  EXPECT_EQ(exited.load(), 4);
}

TYPED_TEST(BoundedQueueTest, DepthConsistentUnderRacingPushPop) {
  TypeParam queue(32);
  std::atomic<bool> stop{false};
  // A racing reader hammers the relaxed depth like the scheduler scan
  // does; under TSan this is the no-data-race proof, and the bound check
  // pins that the counter never drifts past the logical capacity — for
  // the lock-free queue that is the CAS-admission guarantee (no
  // overshoot-and-correct window), for the mutex queue the under-lock
  // republish.
  std::thread scanner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_LE(queue.DepthRelaxed(), queue.capacity());
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        int v = i;
        queue.TryPush(v);
      }
    });
    workers.emplace_back([&] {
      std::vector<int> out;
      for (int i = 0; i < 5000; ++i) {
        out.clear();
        queue.TryPopBatch(out, 4, 0us);
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scanner.join();
  // Quiesced: the published depth must equal the exact size.
  EXPECT_EQ(queue.DepthRelaxed(), queue.size());
}

// A serving request carries a std::promise, whose default constructor
// allocates; the ring holds values in std::optional cells and pops through
// a move-constructing sink, so no queue operation default-constructs one.
struct CountedItem {
  static inline std::atomic<int> default_constructed{0};
  CountedItem() { default_constructed.fetch_add(1); }
  explicit CountedItem(int v) : value(v) {}
  int value = 0;
};

TEST(RingStorageTest, NoOperationDefaultConstructsAnItem) {
  CountedItem::default_constructed.store(0);
  BoundedQueue<CountedItem> queue(16);
  EXPECT_EQ(CountedItem::default_constructed.load(), 0) << "construction";
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(queue.Push(CountedItem(i)));

  auto popped = queue.Pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->value, 0);
  EXPECT_EQ(CountedItem::default_constructed.load(), 0) << "Pop";

  std::vector<CountedItem> out;
  ASSERT_EQ(queue.TryPopBatch(out, 4, 0us), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i].value, i + 1);
  EXPECT_EQ(CountedItem::default_constructed.load(), 0) << "TryPopBatch";
}

}  // namespace
}  // namespace milr::runtime
