#include "runtime/worker_pool.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/trace.h"
#include "runtime/model_runtime.h"

namespace milr::runtime {

namespace {
/// Floor for ModelRuntimeConfig::weight: a zero/negative weight would earn
/// no credit and starve forever; a tiny positive one merely waits more
/// scans between grants.
constexpr double kMinWeight = 1e-3;
}  // namespace

std::size_t Scheduler::BacklogDepth(const Entry& entry) {
  // Relaxed depth: the scan visits every co-hosted queue per grant, and a
  // locked read would serialize it against all producers. See the header
  // for the exact contract.
  return entry.runtime->QueueDepthRelaxed();
}

void Scheduler::Register(std::shared_ptr<ModelRuntime> runtime) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.push_back(Entry{std::move(runtime), 0.0});
  }
  // Rare path: wake everyone so parked workers pick up the new entry's
  // (possibly pre-queued) backlog.
  work_ec_.NotifyAll();
}

void Scheduler::Deregister(const ModelRuntime* runtime) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].runtime.get() != runtime) continue;
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      if (cursor_ > i) --cursor_;
      break;
    }
  }
  work_ec_.NotifyAll();
}

std::vector<std::shared_ptr<ModelRuntime>> Scheduler::runtimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<ModelRuntime>> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.runtime);
  return out;
}

std::optional<Scheduler::Grant> Scheduler::NextWork() {
  const auto quantum_of = [](const Entry& entry) {
    const auto& config = entry.runtime->config();
    return static_cast<double>(std::max<std::size_t>(1, config.max_batch)) *
           std::max(config.weight, kMinWeight);
  };
  for (;;) {
    // Register as a waiter BEFORE the scan: a NotifyWork landing after
    // this ticket either belongs to a push whose depth the scan below
    // already observes (the eventcount's Dekker handshake orders the
    // producer's depth publish before our backlog reads), or it bumps
    // the epoch so the CommitWait at the bottom returns immediately.
    // Registering after the scan would leave a window where a push +
    // notify slip between scan and park — the classic lost wakeup.
    const EventCount::Ticket ticket = work_ec_.PrepareWait();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        bool any_pending = false;
        const std::size_t count = entries_.size();
        for (std::size_t scanned = 0; scanned < count; ++scanned) {
          if (cursor_ >= entries_.size()) cursor_ = 0;
          Entry& entry = entries_[cursor_];
          const auto advance = [&] {
            cursor_ = (cursor_ + 1) % entries_.size();
          };

          const std::size_t pending = BacklogDepth(entry);
          if (pending == 0) {
            // Classic DRR: an empty queue forfeits its credit, so an idle
            // model cannot bank a burst that would later starve its peers.
            entry.deficit = 0.0;
            advance();
            continue;
          }
          any_pending = true;
          const std::size_t max_batch =
              std::max<std::size_t>(1, entry.runtime->config().max_batch);
          const double quantum = quantum_of(entry);
          if (entry.deficit < 1.0) {
            // Credit lands only when the usable credit is spent: a
            // weight > 1 model then SPENDS one quantum across several
            // consecutive grants (the cursor parks below) instead of
            // being re-credited per visit, which is what makes weights
            // above one actually buy proportional service rather than
            // capping out at one micro-batch per visit.
            entry.deficit = std::min(entry.deficit + quantum,
                                     std::max(2.0 * quantum, 1.0));
          }
          const std::size_t quota = std::min<std::size_t>(
              max_batch, static_cast<std::size_t>(entry.deficit));
          if (quota == 0) {
            advance();
            continue;  // fractional credit accrues across scans
          }
          // Charge the full grant up front; SettleGrant refunds whatever
          // the worker fails to pop (a racing worker got there first), so
          // credit spent always equals requests served — a bursty
          // producer cannot ride an under-charged grant past its weight
          // share.
          entry.deficit -= static_cast<double>(quota);
          // Classic DRR: keep serving this queue while its remaining
          // credit covers another whole request and backlog remains;
          // else move on.
          if (entry.deficit < 1.0 || pending <= quota) advance();
          work_ec_.CancelWait();
          return Grant{entry.runtime, quota};
        }
        if (shutdown_ && !any_pending) {
          work_ec_.CancelWait();
          return std::nullopt;
        }
        if (any_pending) {
          // Every backlogged model's quota truncated to zero this scan
          // (tiny weights make quantum < 1 request), and no new
          // NotifyWork is coming for the already-signalled backlog.
          // Rescanning once per accrual round would hold the mutex for
          // up to 1/quantum sweeps; instead jump every backlogged entry
          // forward by the rounds the closest one still needs — the
          // ratios are identical to scanning that many times, and the
          // next scan is guaranteed to grant.
          double rounds = 0.0;
          for (const Entry& entry : entries_) {
            if (BacklogDepth(entry) == 0) continue;
            const double needed =
                std::ceil((1.0 - entry.deficit) / quantum_of(entry));
            if (rounds == 0.0 || needed < rounds) rounds = needed;
          }
          if (rounds > 0.0) {
            for (Entry& entry : entries_) {
              if (BacklogDepth(entry) == 0) continue;
              const double quantum = quantum_of(entry);
              entry.deficit = std::min(entry.deficit + rounds * quantum,
                                       std::max(2.0 * quantum, 1.0));
            }
          }
          continue;  // rescan under the same ticket — we never slept
        }
        break;  // nothing pending: park outside the lock
      }
    }
    work_ec_.CommitWait(ticket);
  }
}

bool Scheduler::HasPendingOther(const ModelRuntime* self) const {
  // The mutex guards the entries_ vector only; the depth reads go through
  // the same BacklogDepth contract the grant scan uses, so this gets the
  // same may-be-stale, never-undercounting answer.
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry.runtime.get() == self) continue;
    if (BacklogDepth(entry) > 0) return true;
  }
  return false;
}

void Scheduler::NotifyWork() {
  // Lock-free on the submit hot path: when no worker is parked this is
  // one uncontended atomic bump — the old version took the scheduler
  // mutex on EVERY submit, re-serializing producers that the lock-free
  // queue had just unserialized. NotifyOne is enough: a woken worker
  // rescans every queue, and any worker finishing a batch rescans before
  // sleeping, so a single wake-up can never strand backlog. Drain waiters
  // sit on their own cv, so this signal cannot be absorbed by a
  // non-worker.
  work_ec_.NotifyOne();
}

void Scheduler::SettleGrant(const ModelRuntime* runtime,
                            std::size_t unserved) {
  {
    // Taking the mutex here is load-bearing beyond the refund: the
    // drained state (queue size, in_flight) changed outside it, and
    // passing through it ensures a WaitDrained caller is either fully
    // asleep (and gets the notify) or has not yet evaluated its predicate
    // (and sees the new state). Without it the notify could land in the
    // window between predicate check and sleep.
    std::lock_guard<std::mutex> lock(mutex_);
    if (unserved > 0) {
      for (auto& entry : entries_) {
        if (entry.runtime.get() != runtime) continue;
        // A stale refund after the queue emptied is harmless: the next
        // empty-queue scan visit zeroes the deficit anyway.
        entry.deficit += static_cast<double>(unserved);
        break;
      }
    }
  }
  drain_cv_.notify_all();
}

void Scheduler::BeginShutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ec_.NotifyAll();
  drain_cv_.notify_all();
}

void Scheduler::EndShutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  shutdown_ = false;
}

void Scheduler::WaitDrained(const ModelRuntime* runtime) {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] { return runtime->Drained(); });
}

WorkerPool::WorkerPool(Scheduler& scheduler, WorkerPoolConfig config)
    : scheduler_(&scheduler),
      threads_(std::max<std::size_t>(1, config.threads)) {}

WorkerPool::~WorkerPool() { Stop(); }

void WorkerPool::Start() {
  if (!workers_.empty()) return;
  scheduler_->EndShutdown();
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void WorkerPool::Stop() {
  scheduler_->BeginShutdown();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void WorkerPool::WorkerLoop(std::size_t index) {
  obs::Tracer::SetCurrentThreadName("worker_" + std::to_string(index));
  // When the worker pool alone covers the cores, nested ParallelFor inside
  // PredictBatch (stacked im2col, GEMM row blocks, pools) would spawn up to
  // workers × cores transient threads per layer; pin those calls serial.
  // With fewer workers than cores, intra-batch parallelism is the point —
  // leave it enabled and let the batch GEMM fan out.
  std::optional<SerialRegionGuard> serial;
  if (pins_nested_parallelism()) serial.emplace();

  while (auto grant = scheduler_->NextWork()) {
    grant->runtime->metrics().RecordGrant();
    obs::TraceInstantOn(grant->runtime->trace_track(), "grant", "sched",
                        grant->quota);
    std::size_t served = 0;
    try {
      // Scheduler-aware linger: lingering on this model's partial batch
      // is only free when no co-hosted peer is waiting for this thread.
      // Only consult the scheduler when a linger is actually configured —
      // with the default 0 the answer cannot change ServeSome's behavior,
      // and the scan would re-add per-grant scheduler-mutex traffic.
      bool allow_linger = true;
      if (grant->runtime->config().batch_linger.count() != 0 &&
          scheduler_->HasPendingOther(grant->runtime.get())) {
        allow_linger = false;
        grant->runtime->metrics().RecordLingerSkip();
      }
      served = grant->runtime->ServeSome(grant->quota, allow_linger);
    } catch (...) {
      // Serve-path exceptions are routed into request promises inside
      // ServeBatch; anything that still escapes (allocation failure in
      // the pop path) must not exit the thread body — that would
      // std::terminate the whole host. The popped requests' promises
      // break (their clients see broken_promise) and the worker lives on.
    }
    // Unconditional settle: even a zero-pop grant needs its full credit
    // refunded, and it raised/dropped the runtime's in_flight count — a
    // WaitDrained caller that sampled the transient needs the wake-up.
    scheduler_->SettleGrant(grant->runtime.get(), grant->quota - served);
  }
}

}  // namespace milr::runtime
