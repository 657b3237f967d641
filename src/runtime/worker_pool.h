// Shared worker pool + deficit-round-robin scheduler for multi-model
// serving.
//
// The PR-1 engine spawned one pool per model, so co-hosting N models cost
// N*cores threads fighting the OS scheduler. Here one pool owns the
// threads and a Scheduler decides which ModelRuntime's queue a free worker
// drains next:
//
//   clients ──Submit──▶ runtime A queue ─┐
//   clients ──Submit──▶ runtime B queue ─┼─▶ Scheduler ─▶ worker pool
//   clients ──Submit──▶ runtime C queue ─┘   (DRR grant)   (ServeSome)
//
// The policy is deficit round-robin over requests: a backlogged runtime
// whose usable credit is spent earns `max_batch * weight` credit (capped),
// a grant spends credit one request per request (grants are capped at one
// micro-batch, but the cursor keeps serving the same runtime while its
// credit covers more — so a weight-2 model takes two consecutive batches
// per round, not one), and an empty queue forfeits its credit. Three
// properties matter for serving:
//   * a saturating model cannot starve a trickle model — its burst is
//     bounded by the credit cap, after which the scan moves on;
//   * micro-batches still form per model — backlog drains in
//     max_batch-sized bites rather than round-robining single requests;
//   * weighted shares hold in both directions — weights below 1 shrink
//     the per-round grant, weights above 1 extend the per-round burst.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/eventcount.h"
#include "support/parallel.h"

namespace milr::runtime {

class ModelRuntime;

/// Default worker-pool size: one thread per hardware core with a floor of
/// 1, via ParallelWorkerCount() so the MILR_THREADS env cap governs the
/// pool and the layers' internal ParallelFor consistently.
inline std::size_t DefaultWorkerThreads() { return ParallelWorkerCount(); }

/// Picks which runtime a free worker serves next (deficit round-robin).
/// All methods are thread-safe. Owned (shared) by ServingHost, which also
/// hands each registered runtime a weak reference for work signalling;
/// workers block in NextWork, submitters signal via NotifyWork, and
/// RemoveModel waits in WaitDrained.
class Scheduler {
 public:
  /// A unit of work handed to a worker: serve up to `quota` requests from
  /// `runtime`. The grant is advisory — the queue may have drained in the
  /// meantime and ServeSome may pop fewer (or zero) requests.
  struct Grant {
    std::shared_ptr<ModelRuntime> runtime;
    std::size_t quota = 0;
  };

  void Register(std::shared_ptr<ModelRuntime> runtime);
  void Deregister(const ModelRuntime* runtime);
  std::vector<std::shared_ptr<ModelRuntime>> runtimes() const;

  /// Blocks until some runtime has backlog (returning a DRR grant) or —
  /// once BeginShutdown has run and every queue is drained — returns
  /// nullopt, the worker-exit signal.
  std::optional<Grant> NextWork();

  /// Wakes a worker: some runtime's queue just gained a request.
  void NotifyWork();

  /// True when any runtime OTHER than `self` has backlog right now (a
  /// relaxed-depth scan, same staleness contract as NextWork's). Workers
  /// consult it to skip batch_linger while peers wait (see
  /// ModelRuntime::ServeSome).
  bool HasPendingOther(const ModelRuntime* self) const;

  /// Settles a finished grant: refunds the deficit credit for the
  /// requests the grant charged but the worker did not actually pop
  /// (another worker raced it to the queue), making the DRR accounting
  /// exact — total credit spent equals total requests served — and wakes
  /// drain waiters. Called by workers after every ServeSome.
  void SettleGrant(const ModelRuntime* runtime, std::size_t unserved);

  /// Stop admission upstream (close the queues) BEFORE calling this;
  /// workers then drain every remaining request and exit.
  void BeginShutdown();
  /// Restart support: lets a freshly started pool's workers block in
  /// NextWork again instead of exiting immediately.
  void EndShutdown();

  /// Blocks until `runtime` has no queued requests and no in-flight batch.
  /// The runtime's queue must already be closed (RemoveModel) so the
  /// condition is stable once reached.
  void WaitDrained(const ModelRuntime* runtime);

 private:
  struct Entry {
    std::shared_ptr<ModelRuntime> runtime;
    double deficit = 0.0;
  };

  /// The one way every scheduler scan reads a runtime's backlog — the
  /// DRR scan, the accrual jump, and HasPendingOther all go through it,
  /// under a single contract: the returned depth never undercounts
  /// admitted-unconsumed work, but may run one mutation stale (and may
  /// count a push still between admission and ring publish). Either
  /// error is benign here — a grant is advisory (the worker's pop
  /// re-checks) and a skipped entry is re-signalled by its producer's
  /// NotifyWork.
  static std::size_t BacklogDepth(const Entry& entry);

  mutable std::mutex mutex_;          // entries_/cursor_/shutdown_/drain state
  EventCount work_ec_;                // workers park in NextWork (lock-free
                                      // notify on the Submit hot path)
  std::condition_variable drain_cv_;  // WaitDrained callers
  std::vector<Entry> entries_;
  std::size_t cursor_ = 0;
  bool shutdown_ = false;
};

struct WorkerPoolConfig {
  /// Pool size; 0 is clamped to one worker. When the pool covers the
  /// hardware cores each worker pins its nested ParallelFor serial (see
  /// WorkerLoop), so the pool itself is the only parallelism.
  std::size_t threads = DefaultWorkerThreads();
};

/// Owns the service threads; policy lives in the Scheduler. Start/Stop are
/// idempotent and restartable: Stop drains (via Scheduler shutdown) and
/// joins, a later Start respawns against the same scheduler.
class WorkerPool {
 public:
  /// `scheduler` must outlive the pool.
  WorkerPool(Scheduler& scheduler, WorkerPoolConfig config);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Start();
  void Stop();

  /// Pool size actually used: config threads clamped to >= 1. Resolved
  /// once (construction) and used both to spawn the pool and to decide
  /// nested-parallelism pinning, so the two can never disagree.
  std::size_t thread_count() const { return threads_; }

  /// True when each worker pins its nested ParallelFor serial because the
  /// pool alone covers the cores (see WorkerLoop).
  bool pins_nested_parallelism() const {
    return threads_ >= ParallelWorkerCount();
  }

 private:
  void WorkerLoop(std::size_t index);

  Scheduler* scheduler_;
  std::size_t threads_;
  std::vector<std::thread> workers_;
};

}  // namespace milr::runtime
