/// \file parallel.hpp
/// \brief Explicit, standard-library parallelism for bulk verification sweeps.
///
/// Following the HPC house style (parallelism is explicit, portable and
/// standard-based), this is a small fixed thread pool plus a blocking
/// parallel_for. Randomized sweeps pass a task index to the body so each
/// task can derive a deterministic RNG stream — results are identical
/// regardless of thread count.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mineq::util {

/// One PAUSE/YIELD-class hint to the core's pipeline while spinning.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Reusable sense-reversing barrier for a fixed party count.
///
/// arrive_and_wait() publishes every write made before the call to every
/// party that returns from the same round (the generation bump is a
/// release paired with the waiters' acquire loads), so it is both the
/// synchronization and the happens-before edge of a sharded cycle kernel.
/// Waiters spin briefly with cpu_relax() — the dedicated-core rendezvous
/// resolves here without leaving user space — and then fall back to a
/// futex-style std::atomic::wait, so an oversubscribed team (parties
/// beyond the hardware threads, e.g. an 8-thread determinism pin on a
/// 2-core CI box) sleeps in the kernel instead of stealing scheduler
/// quanta from the parties still working toward the barrier.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t parties) : parties_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void arrive_and_wait() noexcept {
    const std::uint64_t generation =
        generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      // Last arriver: reset the arrival count for the next round, then
      // open the barrier. The reset must precede the bump — a fast party
      // can re-enter arrive_and_wait the instant the generation moves.
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_acq_rel);
      generation_.notify_all();
      return;
    }
    std::uint32_t spins = 0;
    while (generation_.load(std::memory_order_acquire) == generation) {
      if (++spins < 1024) {
        cpu_relax();
      } else {
        generation_.wait(generation, std::memory_order_acquire);
      }
    }
  }

 private:
  std::size_t parties_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

/// A fixed-size pool of worker threads executing queued tasks.
///
/// The pool is created once and joined on destruction (RAII); tasks must not
/// throw — exceptions escaping a task terminate the process by design, since
/// the verification sweeps treat any failure as fatal.
class ThreadPool {
 public:
  /// Create \p threads workers. 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Blocks until all queued tasks have finished, then joins the workers.
  ~ThreadPool();

  /// Enqueue a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has completed.
  void wait_idle();

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Persistent-team mode: run fn(worker, n) on n workers and block until
  /// every invocation returns. The caller participates as worker 0; the
  /// other n-1 run on dedicated team threads that are spawned lazily on
  /// first use, kept parked on a condition variable between calls, and
  /// reused verbatim on the next call — per-call cost is one wakeup, not
  /// n-1 thread spawns or queue round-trips, which is what a per-cycle
  /// dispatch needs (see bench_megafabric's dispatch micro-bench).
  ///
  /// The team is independent of the submit() task queue, so run_team can
  /// never deadlock against queued tasks (and vice versa). n <= 1 runs
  /// fn(0, 1) inline. Only one run_team call may be active per pool at a
  /// time; concurrent callers must use distinct pools.
  void run_team(std::size_t n,
                const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();
  void team_member_loop(std::size_t index, std::uint64_t start_epoch);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;

  // Persistent-team state (run_team); disjoint from the task queue above.
  std::vector<std::thread> team_;
  std::mutex team_mutex_;
  std::condition_variable team_wake_;
  std::condition_variable team_done_cv_;
  const std::function<void(std::size_t, std::size_t)>* team_fn_ = nullptr;
  std::size_t team_size_ = 0;   ///< parties of the active call (incl. caller)
  std::uint64_t team_epoch_ = 0;
  std::size_t team_done_ = 0;   ///< team threads finished with this epoch
  bool team_stopping_ = false;
};

/// Run body(i) for i in [begin, end) across \p threads workers
/// (0 = hardware concurrency). Blocks until all iterations complete.
/// Iterations are distributed in contiguous chunks to limit contention.
/// The calling thread is one of the workers, so a call starts
/// threads - 1 threads. The body must not throw: an exception escaping
/// it terminates the process, on any worker.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace mineq::util
