/// \file shard.hpp
/// \brief The megafabric driver: ONE simulation sharded across a worker
/// team, byte-identical to the serial run at any thread count.
///
/// Each cycle runs as a sequence of barrier-separated phases over the
/// CSR-packed FlatWiring. Within a phase every worker owns a contiguous
/// cell (or link) range, and the wiring's perfect-matching property —
/// down_stage(s)[x * r + port] IS the downstream port-slot index, and
/// each downstream buffer has exactly one upstream arc — makes every
/// cross-range handoff single-writer: a worker pushes only into buffers
/// reached through its own cells' arcs, so the hot path needs no locks,
/// no atomics and no mailbox copies. The phase schedule per cycle:
///
///   [credits] deliver     link ranges            barrier
///   eject                 cell ranges            barrier
///   advance s = S-2 .. 0  cell ranges            barrier each
///   serial phase          worker 0 only          barrier
///     (eject-event replay -> workload tick -> inject)
///   [measuring] sample    link ranges            barrier
///   [measuring] reduce    worker 0 only          barrier
///
/// Determinism contract: every order-independent counter accumulates
/// into the worker's ShardWorker::partial and is summed once at the end;
/// every order-SENSITIVE sink (the Welford latency accumulators, the
/// latency histogram, per-SL latency, the wormhole eject observer) is
/// deferred into a per-worker event buffer and replayed by worker 0 in
/// ascending-worker order — which is ascending cell order, i.e. exactly
/// the serial iteration order — so results are byte-identical at 1, 2,
/// 8 or any other thread count.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/observer.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "sim/flit.hpp"
#include "util/parallel.hpp"
#include "workload/spec.hpp"

namespace mineq::sim {

/// One deferred store-and-forward ejection whose statistics are
/// order-sensitive (Welford / histogram adds): replayed by worker 0.
struct SafEjectEvent {
  double latency = 0.0;
  unsigned sl = 0;  ///< service level (0 outside credit runs)
  /// Flow identity for the observability flow recorder (the replay only
  /// reads them when an observer is attached).
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// Per-worker shard state, cache-line aligned so neighbouring workers'
/// hot counters never false-share.
struct alignas(64) ShardWorker {
  /// Order-independent counters accumulated by this worker's kernels and
  /// summed into the core result at the end of the run. Only integer
  /// fields are ever touched here — the statistics accumulators inside
  /// stay empty (order-sensitive adds go through the event buffers).
  SimResult partial;
  /// Busy-link cycles (store-and-forward) or flit hops (wormhole) — the
  /// policy's link_counter() share.
  std::uint64_t link_counter = 0;
  /// Net packets (SAF) or flits (wormhole) this worker added to the pool
  /// through the _unc operations; the driver reconciles the pool-wide
  /// total as total + sum of deltas.
  std::int64_t pool_delta = 0;
  /// Store-and-forward eject replay buffer (cleared every cycle).
  std::vector<SafEjectEvent> saf_events;
  /// Wormhole eject replay buffer (cleared every cycle): ejected flits in
  /// this worker's range order; latency/SL are recomputed from the flit.
  std::vector<Flit> wh_events;
  /// Workload delivery replay buffer (cleared every cycle). Separate
  /// from the statistics buffers because deliveries span warmup too
  /// (closed-loop windows must drain before measurement starts) and are
  /// buffered only when the run's source wants them.
  std::vector<workload::Delivery> wl_events;
  /// Wormhole per-VL buffered-flit partial (sample phase).
  std::vector<std::uint64_t> vl_flits;
  /// This worker's per-cell arbitration scratch (shaped by the policy on
  /// the worker's first cycle).
  CellRequests requests;
  /// This worker's observability sink, or null when no observer is
  /// attached: set by the policy's shard_eject each cycle, so the kernels
  /// never need the worker index threaded through — each kernel reads it
  /// once at entry (sim::kernel_log) and tests that local at every
  /// instrumented site.
  obs::WorkerLog* obs_log = nullptr;
};

/// The contiguous slice of \p total owned by worker \p w of \p n:
/// [total * w / n, total * (w + 1) / n). Empty when total < n for the
/// trailing workers; concatenating the slices in worker order yields
/// [0, total) exactly — the property the replay ordering relies on.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> shard_range(
    std::size_t total, std::size_t w, std::size_t n) noexcept {
  return {total * w / n, total * (w + 1) / n};
}

/// The per-thread team pool behind SimConfig::sim_threads. Thread-local
/// so concurrent sweep workers shard their points over disjoint teams;
/// the team threads are spawned on first sharded run and reused for
/// every subsequent cycle and run on this thread.
inline util::ThreadPool& sim_team_pool() {
  static thread_local util::ThreadPool pool(1);
  return pool;
}

/// The sharded counterpart of run_switched. A Policy implements, in
/// addition to its serial phases:
///   static constexpr bool kShardNeedsDeliver;  // credit harvest phase?
///   void shard_deliver(cycle, w, n);           // credit runs only
///   void shard_eject(cycle, measuring, w, n, ShardWorker&);
///   void shard_advance(s, cycle, measuring, w, n, ShardWorker&);
///   void shard_serial(cycle, measuring, workers);   // worker 0 only:
///       // event replay -> core.workload_tick() -> inject
///   void shard_sample(cycle, w, n, ShardWorker&);   // measured cycles
///   void shard_sample_reduce(cycle, workers);       // worker 0 only
///   void shard_finish(workers);  // sum partials into the core result
/// Thread counts above the cell count are clamped (extra ranges would be
/// empty); threads <= 1 falls back to the serial driver.
///
/// [[gnu::cold]] keeps this driver — and with it the kShard=true kernel
/// instantiations it inlines — out of the serial instantiations' text
/// placement: without it the doubled function count reshuffles the
/// branch-dense serial loops across cache lines (the placement lottery
/// the bench baselines document) for runs that never shard at all.
template <class Policy>
[[gnu::cold]] SimResult run_switched_sharded(FabricCore& core, Policy& policy,
                                             std::size_t threads) {
  threads = std::min<std::size_t>(
      threads, std::max<std::uint32_t>(1, core.cells()));
  if (threads <= 1) return run_switched(core, policy);

  std::vector<ShardWorker> workers(threads);
  util::SpinBarrier barrier(threads);
  const std::uint64_t warmup = core.config().warmup_cycles;
  const std::uint64_t total = core.total_cycles();
  sim_team_pool().run_team(threads, [&](std::size_t w, std::size_t n) {
    ShardWorker& wk = workers[w];
    for (std::uint64_t cycle = 0; cycle < total; ++cycle) {
      const bool measuring = cycle >= warmup;
      if constexpr (Policy::kShardNeedsDeliver) {
        policy.shard_deliver(cycle, w, n);
        barrier.arrive_and_wait();
      }
      policy.shard_eject(cycle, measuring, w, n, wk);
      barrier.arrive_and_wait();
      for (int s = core.stages() - 2; s >= 0; --s) {
        policy.shard_advance(s, cycle, measuring, w, n, wk);
        barrier.arrive_and_wait();
      }
      if (w == 0) policy.shard_serial(cycle, measuring, workers);
      barrier.arrive_and_wait();
      if (measuring) {
        policy.shard_sample(cycle, w, n, wk);
        barrier.arrive_and_wait();
        if (w == 0) policy.shard_sample_reduce(cycle, workers);
        barrier.arrive_and_wait();
      }
    }
  });
  policy.shard_finish(workers);
  core.result.flits_in_flight = policy.buffered_flits();
  core.finalize(policy.link_counter());
  return core.result;
}

}  // namespace mineq::sim
