/// \file policy.hpp
/// \brief The machinery both switching policies share: a CRTP base for
/// the per-run state and seams that store-and-forward (engine.cpp) and
/// wormhole (wormhole.cpp) would otherwise each repeat, one runner per
/// policy instantiation (run_policy), and one dispatcher from a run's
/// configuration to the instantiation that serves it (dispatch_policy).
///
/// A discipline is a class template `Policy<kFaulted, kBinary, kCredits,
/// kMultiPath>` deriving from `PolicyBase<Policy<...>, ...>`. It supplies
/// only the payload-specific kernels:
///
///   template <bool kShard> void eject_impl(cycle, measuring, x0, x1, wk);
///       // logical cells [x0, x1) (the physical cells when unipath)
///   template <bool kShard> void advance_stage_impl(s, cycle, measuring,
///                                                  x0, x1, wk);
///   template <bool kShard> void sample_impl(cycle, w, n, wk);
///   void inject(cycle, measuring);
///   void replay_ejections(ShardWorker&, cycle, measuring);  // worker 0
///   void shard_sample_reduce(cycle, workers);               // worker 0
///   HeadPacket head_packet(std::size_t buffer) const;       // stall traces
///   std::uint32_t port_occupancy(int s, std::size_t port) const;  // probes
///   std::uint64_t buffered_flits() const;
///
/// and the base turns them into the full run_switched /
/// run_switched_sharded policy interface (fabric.hpp, shard.hpp).
///
/// Both disciplines arbitrate a cell in one pass (CellRequests): read
/// each input buffer once, request the out-port its ready head routes
/// to, grant each port the first candidate in round-robin order from the
/// arbiter's pointer that the kernel does not refuse (scan_round_robin),
/// and count the ready buffers that did not move as head-of-line
/// blocked. No candidate loop divides.
///
/// Each kernel visits only the cells whose pass can differ from their
/// last one (ActivitySets, fabric.hpp). The wake rules, one per input a
/// pass reads, are applied at the kernels' push, pop and grant sites:
///   - a pop from a buffer wakes the cell feeding it (wake_parent) this
///     cycle — stage s + 1 runs before stage s, so ejection, advance and
///     the dead-switch drains all count;
///   - a grant wakes the granting cell for the next cycle, and so does a
///     wormhole flit pushed into its lanes;
///   - a store-and-forward packet that becomes a queue's head wakes the
///     cell when it has fully arrived, and a link or ejection port that
///     starts serializing wakes it when the packet is through (wake_at);
///   - a landing credit wakes the cell feeding its buffer.
/// A visited cell that grants nothing is frozen with its pass's stall
/// counts (StallTally::freeze) and sleeps until woken; each set adds its
/// frozen cells' sum to the stall counters once per measured cycle
/// (close_pass), so a skipped cell still counts the heads it blocks.
/// With an observer every cell is visited every cycle.
///
/// The bool axes are compile-time because each one measurably changes
/// the hot loop: kFaulted adds mask probes, kBinary folds the radix to 2
/// (shift/mask instead of divide), kCredits swaps the occupancy probe
/// for the credit handshake, kMultiPath swaps the route lookup for path
/// selection. Observability is NOT an axis: every kernel hoists the
/// observer test into a local at entry (`log`, null when every
/// collector is off), so an obs-off run pays one predicted branch per
/// instrumented site and the collectors stay strictly passive.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_mask.hpp"
#include "multipath/looping.hpp"
#include "obs/observer.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "sim/shard.hpp"

namespace mineq::sim {

/// What every policy constructor receives from the dispatcher.
struct PolicyContext {
  FabricCore& core;
  SimWorkspace& workspace;
  const fault::FaultMask* mask;  ///< non-null exactly on kFaulted runs
  obs::Observer* obs;            ///< null when every collector is off
  const multipath::LoopingSettings* looping;  ///< kLooping multipath only
};

/// Identity of the packet at the head of a buffer, for stall traces.
struct HeadPacket {
  std::uint64_t inject_cycle = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// core.result for serial kernels, the worker's partial for sharded
/// ones — so the kernel bodies read identically.
template <bool kShard>
[[nodiscard]] SimResult& shard_result(FabricCore& core,
                                      [[maybe_unused]] ShardWorker* wk) {
  if constexpr (kShard) {
    return wk->partial;
  } else {
    return core.result;
  }
}

/// The cell-pass scratch: the policy's own \p serial one, the worker's
/// when sharded.
template <bool kShard>
[[nodiscard]] CellRequests& cell_requests(CellRequests& serial,
                                          [[maybe_unused]] ShardWorker* wk) {
  if constexpr (kShard) {
    return wk->requests;
  } else {
    return serial;
  }
}

/// The stall sum of set \p set over the kernel's range: the policy's own
/// (\p serial) when serial, the worker's when sharded.
template <bool kShard>
[[nodiscard]] StallTally& stall_sum(std::vector<StallTally>& serial, int set,
                                    [[maybe_unused]] ShardWorker* wk) {
  if constexpr (kShard) {
    return wk->stall_sums[static_cast<std::size_t>(set)];
  } else {
    return serial[static_cast<std::size_t>(set)];
  }
}

/// The credit return list a kernel's pops go through: the worker's own
/// when sharded.
template <bool kShard>
[[nodiscard]] std::size_t return_list([[maybe_unused]] const ShardWorker* wk) {
  if constexpr (kShard) {
    return wk->index;
  } else {
    return 0;
  }
}

/// The WorkerLog a kernel writes, or null when observability is off:
/// the worker's own sink on sharded runs (shard_eject re-binds it every
/// cycle), log 0 serially. Kernels call this once at entry and test the
/// pointer at each instrumented site.
template <bool kShard>
[[nodiscard]] obs::WorkerLog* kernel_log(obs::Observer* obs,
                                         [[maybe_unused]] ShardWorker* wk) {
  if (obs == nullptr) return nullptr;
  if constexpr (kShard) {
    return wk->obs_log;
  } else {
    return &obs->log(0);
  }
}

/// Feed one completed packet to the workload source: directly when
/// serial, through the worker's replay buffer when sharded.
template <bool kShard>
void hand_delivery(FabricCore& core, [[maybe_unused]] ShardWorker* wk,
                   const workload::Delivery& delivery) {
  if constexpr (kShard) {
    wk->wl_events.push_back(delivery);
  } else {
    core.workload_delivered(delivery);
  }
}

/// Append one trace event to \p log, tagged with its (cycle, phase) sort
/// key. Callers have already checked Observer::traced for the packet.
inline void trace_push(obs::WorkerLog& log, std::uint64_t cycle,
                       std::uint64_t inject_cycle, std::uint32_t src,
                       std::uint32_t dst, obs::TraceEventKind kind,
                       std::uint8_t stage, std::uint8_t cause,
                       std::uint8_t phase) {
  obs::TraceEvent event;
  event.cycle = cycle;
  event.inject_cycle = inject_cycle;
  event.src = src;
  event.dst = dst;
  event.kind = kind;
  event.stage = stage;
  event.cause = cause;
  event.phase = phase;
  log.events.push_back(event);
}

template <class Derived, bool kFaulted, bool kBinary, bool kCredits,
          bool kMultiPath>
class PolicyBase {
  static_assert(!(kMultiPath && (kBinary || kCredits)),
                "multipath instantiations are general-radix and credit-less");

 public:
  // --- The serial-driver interface (run_switched) ----------------------

  /// Eject at the last stage. Eject runs first each cycle, so the credit
  /// ledger's start-of-cycle harvest lives here.
  void eject(std::uint64_t cycle, bool measuring) {
    if constexpr (kCredits) deliver_credits<false>(cycle, 0);
    self().template eject_impl<false>(cycle, measuring, 0, lcells_, nullptr);
  }

  void advance_stage(int s, std::uint64_t cycle, bool measuring) {
    self().template advance_stage_impl<false>(s, cycle, measuring, 0,
                                              core_.cells(), nullptr);
  }

  /// Sample link business and buffer occupancy (measured cycles only).
  void sample(std::uint64_t cycle) {
    self().template sample_impl<false>(cycle, 0, 1, nullptr);
  }

  /// Busy-link cycles (store-and-forward) or flit hops (wormhole).
  [[nodiscard]] std::uint64_t link_counter() const { return link_counter_; }

  // --- The sharded-driver interface (run_switched_sharded) -------------
  // Every kernel runs the SAME code as its serial phase, templated on
  // kShard = true: disjoint word-aligned ranges, per-worker partial
  // counters, and deferred order-sensitive statistics (see shard.hpp for
  // the phase/barrier schedule and the single-writer argument).

  /// Worker \p w first harvests the credits its own pops returned (its
  /// return list: no other worker reads or writes it, so the harvest
  /// needs no phase of its own), then ejects its range.
  void shard_eject(std::uint64_t cycle, bool measuring, std::size_t w,
                   std::size_t n, ShardWorker& wk) {
    if (obs_ != nullptr) wk.obs_log = &obs_->log(w);
    if (!wk.requests.shaped()) {
      wk.requests = requests_;
      wk.stall_sums.assign(stall_sums_.size(), StallTally{});
    }
    if constexpr (kCredits) deliver_credits<true>(cycle, w);
    // Ejection arbitrates per LOGICAL terminal across planes, so the
    // partition is by logical cells; the physical buffers a logical range
    // touches are disjoint per-plane runs.
    const auto [x0, x1] = shard_cells(lcells_, w, n);
    self().template eject_impl<true>(cycle, measuring, x0, x1, &wk);
  }

  void shard_advance(int s, std::uint64_t cycle, bool measuring,
                     std::size_t w, std::size_t n, ShardWorker& wk) {
    const auto [x0, x1] = shard_cells(core_.cells(), w, n);
    self().template advance_stage_impl<true>(s, cycle, measuring, x0, x1,
                                             &wk);
  }

  /// Worker 0's exclusive phase: replay the cycle's deferred ejection
  /// statistics and workload deliveries in ascending-worker
  /// (= ascending-cell = serial) order, then run the cycle tail exactly
  /// as the serial driver does — the workload tick and injection consume
  /// the source's RNG streams in terminal order, so they stay serial by
  /// construction and byte-deterministic at any thread count.
  void shard_serial(std::uint64_t cycle, bool measuring,
                    std::vector<ShardWorker>& workers) {
    for (ShardWorker& wk : workers) {
      self().replay_ejections(wk, cycle, measuring);
      for (const workload::Delivery& delivery : wk.wl_events) {
        core_.workload_delivered(delivery);
      }
      wk.wl_events.clear();
    }
    core_.workload_tick(cycle, measuring);
    self().inject(cycle, measuring);
  }

  void shard_sample(std::uint64_t cycle, std::size_t w, std::size_t n,
                    ShardWorker& wk) {
    self().template sample_impl<true>(cycle, w, n, &wk);
  }

  /// Sum the order-independent partials into the core result — the one
  /// list of per-worker counters.
  void shard_finish(const std::vector<ShardWorker>& workers) {
    SimResult& out = core_.result;
    for (const ShardWorker& wk : workers) {
      const SimResult& p = wk.partial;
      out.flits_delivered += p.flits_delivered;
      out.hol_blocking_cycles += p.hol_blocking_cycles;
      out.credit_stall_cycles += p.credit_stall_cycles;
      out.credit_violations += p.credit_violations;
      out.packets_dropped_faulted += p.packets_dropped_faulted;
      out.flits_dropped_faulted += p.flits_dropped_faulted;
      out.packets_rerouted += p.packets_rerouted;
      out.packets_misdelivered += p.packets_misdelivered;
      out.path_reroutes += p.path_reroutes;
      out.stall_lost_arbitration += p.stall_lost_arbitration;
      out.stall_downstream_full += p.stall_downstream_full;
      out.stall_no_free_lane += p.stall_no_free_lane;
      out.stall_zero_credits += p.stall_zero_credits;
      out.stall_masked_arc += p.stall_masked_arc;
      link_counter_ += wk.link_counter;
      shard_pool_delta_ += wk.pool_delta;
    }
  }

 protected:
  /// \p credit_links / \p credit_capacity shape the credit ledger (one
  /// counter per downstream buffer), \p arb_candidates is the stage
  /// arbiters' candidate-ring size (input buffers per cell), \p
  /// stall_slots the StallCause scratch size (one per buffer the
  /// arbitration can block), \p wake_horizon the farthest a kernel wakes
  /// a cell ahead (ActivitySets::wake_at; 0 when it never does).
  PolicyBase(const PolicyContext& ctx,
             [[maybe_unused]] std::size_t credit_links,
             [[maybe_unused]] std::uint32_t credit_capacity,
             unsigned arb_candidates, std::size_t stall_slots,
             std::uint64_t wake_horizon)
      : core_(ctx.core),
        radix_(static_cast<unsigned>(ctx.core.wiring().radix())),
        length_(ctx.core.config().packet_length),
        obs_(ctx.obs),
        lradix_(radix_),
        lcells_(ctx.core.cells()),
        stall_sums_(static_cast<std::size_t>(ctx.core.stages())) {
    if constexpr (kMultiPath) {
      const Engine& engine = core_.engine();
      lradix_ = static_cast<unsigned>(engine.logical_radix());
      lcells_ = engine.logical_cells();
      planes_ = static_cast<unsigned>(engine.planes());
      // Ejection candidate c of a logical cell is buffer c % per_plane of
      // plane c / per_plane's copy of the cell, per_plane = arb_candidates.
      for (unsigned plane = 0; plane < planes_; ++plane) {
        for (unsigned k = 0; k < arb_candidates; ++k) {
          eject_offset_.push_back(static_cast<std::uint32_t>(
              static_cast<std::size_t>(plane) * lcells_ * arb_candidates +
              k));
        }
      }
      dilation_ = static_cast<unsigned>(engine.dilation());
      path_policy_ = core_.config().path_policy;
      looping_ = ctx.looping;
      free_stage_ = engine.fabric().free_stage().data();
      core_.result.paths_available = engine.fabric().paths_available();
    }
    if constexpr (kFaulted) {
      faulted_ = fault::FaultedWiring(core_.wiring(), *ctx.mask);
    }
    if constexpr (kCredits) {
      credit_config_ = &core_.config().credits;
      service_levels_ = credit_config_->service_levels();
      credit_links_ = credit_links;
      // One return list per worker a sharded run fields (the driver
      // clamps the team to the cell count).
      credits_ = &ctx.workspace.credit_ledger(
          credit_links, credit_capacity, credit_config_->return_latency,
          std::min<std::size_t>(core_.config().sim_threads,
                                std::max<std::uint32_t>(1, core_.cells())));
      links_per_port_ = credit_links / (static_cast<std::size_t>(
                                            core_.stages()) *
                                        core_.ports());
      if (credit_config_->arbitration == ArbitrationPolicy::kWeighted) {
        weighted_.reset(
            static_cast<std::size_t>(core_.stages()) * core_.ports(),
            arb_candidates);
      }
      core_.result.sl_latency.resize(service_levels_);
    }
    if (obs_ != nullptr) stall_cause_.assign(stall_slots, 0);
    // Multipath ejection arbitrates a logical terminal over every plane's
    // buffers, the widest candidate ring a cell pass builds.
    requests_.shape(radix_, planes_ * arb_candidates);
    wakes_ = &ctx.workspace.activity_sets(core_.wiring(), lcells_,
                                          wake_horizon, obs_ != nullptr);
  }

  [[nodiscard]] Derived& self() { return static_cast<Derived&>(*this); }

  /// The radix, folded to the literal 2 in the binary instantiations so
  /// / and % compile to the historic shift/mask code.
  [[nodiscard]] unsigned radix() const noexcept {
    if constexpr (kBinary) {
      return 2U;
    } else {
      return radix_;
    }
  }

  // --- Routing ---------------------------------------------------------

  /// The routing registers of one stage, hoisted out of the kernels'
  /// loops: signed/unsigned TBAA cannot prove the buffer stores don't
  /// alias the Engine's schedule fields, so an Engine::route_port call
  /// per move would reload them.
  struct StageRouting {
    int stage = 0;
    bool ejects = false;  ///< the last stage: out-ports are terminals
    unsigned bit_shift = 0;   // kBinary
    unsigned bit_invert = 0;  // kBinary
    std::uint32_t digit_scale = 1;
    const std::uint32_t* port_of_value = nullptr;
    /// Mask bit index of the stage's first out-arc (FaultMask::arc_index
    /// layout).
    std::size_t arc_base = 0;
    bool free = false;                       // kMultiPath: any port routes
    const std::uint8_t* settings = nullptr;  // kMultiPath kLooping, free
    const std::uint32_t* down = nullptr;     // kMultiPath
  };

  [[nodiscard]] StageRouting stage_routing(int t) const {
    StageRouting sr;
    sr.stage = t;
    sr.ejects = t + 1 == core_.stages();
    if (sr.ejects) return sr;
    const auto st = static_cast<std::size_t>(t);
    const min::DigitSchedule& schedule = core_.engine().digit_schedule();
    sr.arc_base = st * core_.ports();
    if constexpr (kMultiPath) {
      sr.free = free_stage_[st] != 0;
      if (sr.free && path_policy_ == PathPolicy::kLooping) {
        sr.settings = looping_->settings[st].data();
      }
      sr.down = core_.wiring().down_stage(t).data();
    }
    if constexpr (kBinary) {
      sr.bit_shift = static_cast<unsigned>(schedule.digit[st]);
      sr.bit_invert = schedule.port_of_value[st][0];
    } else if (!sr.free) {
      sr.digit_scale = core_.engine().route_digit_scale(t);
      sr.port_of_value = schedule.port_of_value[st].data();
    }
    return sr;
  }

  /// The scheduled out-port for \p dest at interior stage sr.stage (the
  /// first port of its path group on a multipath fabric).
  [[nodiscard]] unsigned scheduled_port(const StageRouting& sr,
                                        std::uint32_t dest) const {
    if constexpr (kBinary) {
      return (((dest >> 1) >> sr.bit_shift) & 1U) ^ sr.bit_invert;
    } else if constexpr (kMultiPath) {
      if (sr.free) return 0;
      return sr.port_of_value[((dest / lradix_) / sr.digit_scale) %
                              lradix_] *
             dilation_;
    } else {
      const unsigned r = radix_;
      return sr.port_of_value[((dest / r) / sr.digit_scale) % r];
    }
  }

  /// Members of the path group at sr.stage (kMultiPath): every port of a
  /// free connection, the dilation group of a forced one.
  [[nodiscard]] unsigned group_size(const StageRouting& sr) const {
    return sr.free ? radix_ : dilation_;
  }

  // --- The arbitration seam (kCredits only varies it) ------------------
  // Round-robin and strict priority keep the core's RoundRobin pointer
  // state — priority filters candidates before the pointer ever moves,
  // so uniform weights degrade to plain round-robin byte for byte —
  // while the weighted policy swaps in the quantum WRR state. Each
  // port's request set is scanned with scan_round_robin from arb_start:
  // the first candidate the kernel does not refuse wins.

  [[nodiscard]] unsigned arb_start(int s, std::size_t out) {
    if constexpr (kCredits) {
      if (credit_config_->arbitration == ArbitrationPolicy::kWeighted) {
        return weighted_.next(arb_index(s, out));
      }
    }
    return core_.arbiter(s, out).next();
  }

  void arb_grant(int s, std::size_t out, unsigned winner,
                 [[maybe_unused]] unsigned vl) {
    if constexpr (kCredits) {
      if (credit_config_->arbitration == ArbitrationPolicy::kWeighted) {
        weighted_.grant(arb_index(s, out), winner,
                        credit_config_->weight(vl));
        return;
      }
    }
    core_.arbiter(s, out).grant(winner);
  }

  [[nodiscard]] std::size_t arb_index(int s, std::size_t out) const {
    return static_cast<std::size_t>(s) * core_.ports() + out;
  }

  /// Ejection arbitrates per terminal: the last stage's port arbiters on
  /// a unipath fabric, a per-logical-terminal pointer over every plane's
  /// buffers on a multipath one.
  [[nodiscard]] unsigned eject_start(std::size_t term) {
    if constexpr (kMultiPath) {
      return core_.eject_arbiter(term).next();
    } else {
      return arb_start(core_.stages() - 1, term);
    }
  }
  void eject_grant(std::size_t term, unsigned winner, unsigned vl) {
    if constexpr (kMultiPath) {
      core_.eject_arbiter(term).grant(winner);
    } else {
      arb_grant(core_.stages() - 1, term, winner, vl);
    }
  }

  /// Buffer offset of ejection candidate \p c from its logical cell's
  /// first buffer (plane 0's copy) — the identity on a unipath fabric.
  [[nodiscard]] std::size_t eject_offset(unsigned c) const {
    if constexpr (kMultiPath) {
      return eject_offset_[c];
    } else {
      return c;
    }
  }

  /// Strict priority: the highest weight class among the requests in
  /// \p set — only a head of that class may win the port this cycle.
  template <class Weight>
  [[nodiscard]] static unsigned top_weight(const std::uint64_t* set,
                                           std::size_t words,
                                           Weight&& weight) {
    unsigned top = 0;
    for_each_member(set, words,
                    [&](unsigned c) { top = std::max(top, weight(c)); });
    return top;
  }

  /// One measured delivery's order-sensitive statistics: the aggregate
  /// latency, the per-SL latency (credit runs) and the flow recorder.
  /// Serial ejection and worker 0's replay both land here.
  void record_delivery(double latency, unsigned sl, std::uint32_t src,
                       std::uint32_t dst) {
    core_.record_packet_delivered(latency);
    if constexpr (kCredits) core_.result.sl_latency[sl].add(latency);
    if (obs_ != nullptr && obs_->flows_on()) [[unlikely]] {
      obs_->record_flow(src, dst, sl, latency);
    }
  }

  /// Close one cell pass: every ready candidate that did not move was
  /// head-of-line blocked; returns their count for the cell's tally.
  /// With an observer, measured cycles attribute each through \p
  /// charge(c) (ascending candidate order, so the stall counters
  /// partition hol_blocking_cycles exactly). Leaves the ready set empty.
  template <class Charge>
  [[nodiscard]] std::uint64_t account_cell(CellRequests& req, bool measuring,
                                           obs::WorkerLog* log,
                                           Charge&& charge) {
    const std::uint64_t blocked = req.blocked();
    if (measuring && log != nullptr) [[unlikely]] {
      req.for_each_blocked(charge);
    }
    req.clear_ready();
    return blocked;
  }

  // --- Wake sets (ActivitySets) ----------------------------------------

  /// End a set's pass over a range: store its frozen cells' updated sum
  /// \p frozen into \p sum, and count this cycle's stalls — the frozen
  /// cells repeat their last pass, and \p awake holds the shares of the
  /// visited cells that granted.
  static void close_pass(StallTally& sum, const StallTally& frozen,
                         const StallTally& awake, bool measuring,
                         SimResult& res) {
    sum = frozen;
    if (measuring) {
      res.hol_blocking_cycles += frozen.hol() + awake.hol();
      res.credit_stall_cycles += frozen.credit() + awake.credit();
    }
  }

  /// The cell of set \p s that owns input port \p port of stage \p s:
  /// the physical cell, or at the last stage of a multipath fabric the
  /// logical cell ejection arbitrates.
  [[nodiscard]] std::uint32_t set_cell(int s, std::size_t port) const {
    const auto cell = static_cast<std::uint32_t>(port / radix());
    if constexpr (kMultiPath) {
      if (s + 1 == core_.stages()) return cell % lcells_;
    }
    return cell;
  }

  /// Harvest returner list \p list's credits landing at \p cycle; each
  /// wakes the cell that sends into its buffer.
  template <bool kShard>
  void deliver_credits(std::uint64_t cycle, std::size_t list) {
    credits_->deliver(cycle, list, [&](std::size_t link) {
      const std::size_t port = link / links_per_port_;
      const auto s = static_cast<int>(port / core_.ports());
      wakes_->template wake_parent<kShard>(
          s, port - static_cast<std::size_t>(s) * core_.ports());
    });
  }

  // --- Stall attribution (observability runs only) ---------------------

  /// Record why the head in StallCause slot \p slot could not move.
  void mark_stall(std::size_t slot, obs::StallCause cause) {
    stall_cause_[slot] = static_cast<std::uint8_t>(cause);
  }

  /// Reset slots [lo, hi) to lost-arbitration (cause 0); the arbitration
  /// scans then overwrite the specific causes they detect.
  void clear_stall_causes(std::size_t lo, std::size_t hi) {
    std::fill(stall_cause_.begin() + static_cast<std::ptrdiff_t>(lo),
              stall_cause_.begin() + static_cast<std::ptrdiff_t>(hi), 0);
  }

  /// One blocked head-cycle's telemetry, called from the cell pass that
  /// counts hol_blocking_cycles so the per-cause counters partition it
  /// exactly: the per-cause SimResult counter, the per-stage probe
  /// counter, and a stall instant for traced packets. \p slot indexes
  /// the StallCause scratch, \p head the buffer whose head is blocked.
  [[gnu::noinline]] void attribute_stall(int s, std::uint64_t cycle,
                                         std::size_t slot,
                       std::size_t head, SimResult& res, obs::WorkerLog& log,
                       std::uint8_t phase) {
    const auto cause = static_cast<obs::StallCause>(stall_cause_[slot]);
    switch (cause) {
      case obs::StallCause::kLostArbitration:
        ++res.stall_lost_arbitration;
        break;
      case obs::StallCause::kDownstreamFull:
        ++res.stall_downstream_full;
        break;
      case obs::StallCause::kNoFreeLane:
        ++res.stall_no_free_lane;
        break;
      case obs::StallCause::kZeroCredits:
        ++res.stall_zero_credits;
        break;
      case obs::StallCause::kMaskedArc:
        ++res.stall_masked_arc;
        break;
    }
    ++log.hol[static_cast<std::size_t>(s)];
    if (obs_->trace_on()) {
      const HeadPacket p = self().head_packet(head);
      if (traced(p.src, p.inject_cycle)) {
        trace_push(log, cycle, p.inject_cycle, p.src, p.dst,
                   obs::TraceEventKind::kStall, static_cast<std::uint8_t>(s),
                   static_cast<std::uint8_t>(cause), phase);
      }
    }
  }

  /// Is this post-warmup packet in the observer's trace sample?
  [[nodiscard]] bool traced(std::uint32_t src,
                            std::uint64_t inject_cycle) const {
    return inject_cycle >= core_.config().warmup_cycles &&
           obs_->traced(src, inject_cycle);
  }

  // --- Trace emission (observability runs only) -------------------------

  /// A measured packet entered the first stage.
  [[gnu::noinline]] void trace_inject(obs::WorkerLog& log,
                                      std::uint64_t cycle, std::uint32_t src,
                                      std::uint32_t dst) {
    if (obs_->traced(src, cycle)) {
      trace_push(log, cycle, cycle, src, dst,
                 obs::TraceEventKind::kPacketBegin, 0, 0, inject_phase());
      trace_push(log, cycle, cycle, src, dst,
                 obs::TraceEventKind::kStageBegin, 0, 0, inject_phase());
    }
  }

  /// A packet's head crossed from stage \p s into stage s + 1.
  [[gnu::noinline]] void trace_stage_cross(obs::WorkerLog& log, int s,
                                           std::uint64_t cycle,
                         std::uint64_t inject_cycle, std::uint32_t src,
                         std::uint32_t dst) {
    if (traced(src, inject_cycle)) {
      trace_push(log, cycle, inject_cycle, src, dst,
                 obs::TraceEventKind::kStageEnd,
                 static_cast<std::uint8_t>(s), 0, advance_phase(s));
      trace_push(log, cycle, inject_cycle, src, dst,
                 obs::TraceEventKind::kStageBegin,
                 static_cast<std::uint8_t>(s + 1), 0, advance_phase(s));
    }
  }

  /// A measured packet was steered off its scheduled arc at \p stage.
  [[gnu::noinline]] void trace_reroute(obs::WorkerLog& log, int stage,
                                       std::uint64_t cycle,
                     std::uint64_t inject_cycle, std::uint32_t src,
                     std::uint32_t dst, std::uint8_t phase) {
    ++log.reroute[static_cast<std::size_t>(stage)];
    if (obs_->traced(src, inject_cycle)) {
      trace_push(log, cycle, inject_cycle, src, dst,
                 obs::TraceEventKind::kReroute,
                 static_cast<std::uint8_t>(stage), 0, phase);
    }
  }

  /// Payload left the last stage: the head closes the last stage slice,
  /// the tail completes the packet (a store-and-forward packet is both).
  [[gnu::noinline]] void trace_eject(obs::WorkerLog& log,
                                     std::uint64_t cycle,
                   std::uint64_t inject_cycle, std::uint32_t src,
                   std::uint32_t dst, bool head, bool tail) {
    if (traced(src, inject_cycle)) {
      if (head) {
        trace_push(log, cycle, inject_cycle, src, dst,
                   obs::TraceEventKind::kStageEnd,
                   static_cast<std::uint8_t>(core_.stages() - 1), 0,
                   kEjectPhase);
      }
      if (tail) {
        trace_push(log, cycle, inject_cycle, src, dst,
                   obs::TraceEventKind::kPacketEnd, 0, 0, kEjectPhase);
      }
    }
  }

  /// Close a probe window when the observer wants one this cycle (serial
  /// sample phase / worker 0's sample reduce): fill the observer's
  /// scratch with the per-(stage, cell) buffered counts and commit.
  void maybe_commit_probe(std::uint64_t cycle) {
    if (obs_ != nullptr && obs_->want_probe(cycle)) [[unlikely]] {
      commit_probe_window(cycle);
    }
  }

  [[gnu::noinline]] void commit_probe_window(std::uint64_t cycle) {
    std::vector<std::uint32_t>& scratch = obs_->occupancy_scratch();
    const unsigned r = radix();
    const int stages = core_.stages();
    const std::uint32_t cells = core_.cells();
    for (int s = 0; s < stages; ++s) {
      for (std::uint32_t x = 0; x < cells; ++x) {
        std::uint32_t occupied = 0;
        for (unsigned slot = 0; slot < r; ++slot) {
          occupied += self().port_occupancy(s, x * r + slot);
        }
        scratch[static_cast<std::size_t>(s) * cells + x] = occupied;
      }
    }
    obs_->commit_probe(cycle);
  }

  // --- Phase ordinals (TraceEvent::phase) ------------------------------
  // The serial sub-phases of one cycle numbered in execution order —
  // eject moves, the per-plane eject HOL scans, then per advance stage s
  // (walked S-2 down to 0) a drain / moves / HOL-scan triple, and
  // injection last — so the sharded (cycle, phase) stable sort
  // reproduces the serial emission order.

  static constexpr std::uint8_t kEjectPhase = 0;
  [[nodiscard]] std::uint8_t eject_stall_phase(unsigned plane) const noexcept {
    return static_cast<std::uint8_t>(1 + plane);
  }
  [[nodiscard]] std::uint8_t advance_base(int s) const noexcept {
    return static_cast<std::uint8_t>(
        1 + planes_ + 3 * static_cast<unsigned>(core_.stages() - 2 - s));
  }
  [[nodiscard]] std::uint8_t drain_phase(int s) const noexcept {
    return advance_base(s);
  }
  [[nodiscard]] std::uint8_t advance_phase(int s) const noexcept {
    return static_cast<std::uint8_t>(advance_base(s) + 1);
  }
  [[nodiscard]] std::uint8_t stall_phase(int s) const noexcept {
    return static_cast<std::uint8_t>(advance_base(s) + 2);
  }
  [[nodiscard]] std::uint8_t inject_phase() const noexcept {
    return static_cast<std::uint8_t>(
        1 + planes_ + 3 * static_cast<unsigned>(core_.stages() - 1));
  }

  FabricCore& core_;
  unsigned radix_;
  std::uint64_t length_;
  obs::Observer* obs_;
  std::uint64_t link_counter_ = 0;
  std::int64_t shard_pool_delta_ = 0;  // sharded runs only
  fault::FaultedWiring faulted_;                     // kFaulted only
  const CreditConfig* credit_config_ = nullptr;      // kCredits only
  CreditLedger* credits_ = nullptr;                  // kCredits only
  WeightedRoundRobin weighted_;                      // kCredits only
  std::size_t service_levels_ = 1;                   // kCredits only
  std::size_t credit_links_ = 0;                     // kCredits only
  std::size_t links_per_port_ = 1;                   // kCredits only
  /// Logical radix and cells per stage: the physical ones on a unipath
  /// fabric.
  unsigned lradix_;
  std::uint32_t lcells_;
  unsigned planes_ = 1;                              // kMultiPath only
  unsigned dilation_ = 1;                            // kMultiPath only
  PathPolicy path_policy_ = PathPolicy::kHash;       // kMultiPath only
  const multipath::LoopingSettings* looping_ = nullptr;  // kMultiPath only
  const std::uint8_t* free_stage_ = nullptr;         // kMultiPath only
  std::vector<std::uint32_t> eject_offset_;          // kMultiPath only
  /// Per-buffer StallCause scratch, written by the arbitration scans and
  /// read by the cell pass's attribution — same writer partition as the
  /// buffers themselves. Empty when observability is off.
  std::vector<std::uint8_t> stall_cause_;
  CellRequests requests_;  ///< serial runs' cell-pass scratch
  ActivitySets* wakes_ = nullptr;
  std::vector<StallTally> stall_sums_;  ///< serial runs' per-set sums
};

/// Run one policy instantiation to completion: serial or sharded by
/// SimConfig::sim_threads, with the observer's payloads harvested into
/// the result. Out of line on purpose: inlining all the instantiations
/// into the dispatcher lets the compiler cross-jump the twin hot loops
/// into shared blocks, costing the binary instantiation measurable time.
/// Static (like dispatch_policy): each policy TU instantiates its own,
/// and internal linkage keeps the instantiations out of per-function
/// sections, where GCC would not split their cold blocks off.
template <class Policy, class... Extra>
#if defined(__GNUC__)
[[gnu::noinline]]
#endif
static SimResult
run_policy(const PolicyContext& ctx, const Extra&... extra) {
  Policy policy(ctx, extra...);
  obs::Observer* obs = ctx.obs;
  if (obs != nullptr) {
    // Closed-loop sources route request->reply latencies into the flow
    // recorder's service channel (null and ignored when flows are off).
    ctx.core.set_service_recorder(obs->flow_recorder());
  }
  const std::size_t threads = ctx.core.config().sim_threads;
  SimResult result = threads > 1
                         ? run_switched_sharded(ctx.core, policy, threads)
                         : run_switched(ctx.core, policy);
  if (obs != nullptr) {
    result.probes = obs->take_probes();
    if (obs->flows_on()) result.flows = obs->flow_summary();
    result.trace = obs->take_trace();
  }
  return result;
}

/// The per-discipline facts the dispatcher needs beyond the policy
/// template itself.
struct DisciplineShape {
  /// Prefix of the dispatcher's error messages ("Engine::run").
  const char* who;
  /// Candidates per input port of an arbiter: 1 for store-and-forward
  /// FIFOs, the lane count for wormhole virtual channels.
  unsigned lanes_per_port;
  /// Buffer slots per port in the discipline's occupancy unit (packets
  /// or flits) — the observer's occupancy normalizer.
  double slots_per_port;
  /// What one slot costs in the payload pool, and what the pool is
  /// called in the budget message.
  std::size_t slot_bytes;
  const char* pool;
};

/// The payload pool budget: each field of the buffer geometry is bounded
/// on its own (SimConfig::validate), but the pool allocates stages *
/// ports * slots-per-port slots up front, and products of in-range fields
/// reach terabytes.
inline constexpr std::uint64_t kMaxPoolBytes = std::uint64_t{1} << 30;

/// From a run configuration (validated here) to the one Policy
/// instantiation that serves it: an absent or all-clear mask takes the
/// unfaulted instantiation (fault support costs the pristine hot loop
/// nothing), radix 2 the folded-radix one, disabled credits the
/// idealized handshake; multipath fabrics have their own general-radix,
/// credit-less pair. Also owns what every run needs before a policy
/// exists: the Observer (constructed up front so its worker-log count
/// matches the shard team the driver will clamp to), the multipath
/// credit rejection and the one-off looping rearrangement. \p extra is
/// forwarded to the policy constructor after the PolicyContext.
template <template <bool, bool, bool, bool> class Policy, class... Extra>
static SimResult dispatch_policy(const Engine& engine, Pattern pattern,
                                 const SimConfig& config,
                                 const fault::FaultMask* mask,
                                 SimWorkspace* workspace,
                                 const DisciplineShape& shape,
                                 const Extra&... extra) {
  config.validate();
  const bool faulted = mask != nullptr && !mask->none();
  if (faulted && !mask->matches(engine.wiring())) {
    throw std::invalid_argument(
        std::string(shape.who) +
        ": fault mask geometry does not match this network");
  }
  if (!faulted) mask = nullptr;
  const min::FlatWiring& wiring = engine.wiring();
  const std::size_t ports =
      static_cast<std::size_t>(wiring.radix()) * wiring.cells_per_stage();
  // Budget the product in floating point: it may overflow 64 bits.
  const double pool_bytes = static_cast<double>(wiring.stages()) *
                            static_cast<double>(ports) *
                            shape.slots_per_port *
                            static_cast<double>(shape.slot_bytes);
  if (pool_bytes > static_cast<double>(kMaxPoolBytes)) {
    std::string message = shape.who;
    message += ": ";
    message += shape.pool;
    message += " of stages (" + std::to_string(wiring.stages());
    message += ") x ports (" + std::to_string(ports);
    message += ") x slots per port (";
    message +=
        std::to_string(static_cast<std::uint64_t>(shape.slots_per_port));
    message += ") x " + std::to_string(shape.slot_bytes);
    message += " B exceeds the ";
    message += std::to_string(kMaxPoolBytes >> 20);
    message += " MiB budget; reduce the buffer geometry";
    throw std::invalid_argument(message);
  }
  SimWorkspace local;
  SimWorkspace& ws = workspace != nullptr ? *workspace : local;
  std::optional<obs::Observer> observer;
  if (config.obs.any()) {
    config.obs.validate(engine.terminals());
    const std::size_t workers =
        config.sim_threads > 1
            ? std::min<std::size_t>(
                  config.sim_threads,
                  std::max<std::uint32_t>(1, wiring.cells_per_stage()))
            : 1;
    observer.emplace(
        config.obs, wiring.stages(), wiring.cells_per_stage(), ports,
        static_cast<std::uint32_t>(engine.terminals()), config.warmup_cycles,
        config.measure_cycles, workers,
        latency_histogram_buckets(config, wiring.stages()),
        config.credits.enabled ? config.credits.service_levels() : 1,
        static_cast<double>(ports) * shape.slots_per_port);
  }
  obs::Observer* obs = observer.has_value() ? &*observer : nullptr;
  const unsigned arbiter_candidates =
      static_cast<unsigned>(engine.radix()) * shape.lanes_per_port;
  if (engine.multipath()) {
    if (config.credits.enabled) {
      throw std::invalid_argument(
          std::string(shape.who) +
          ": credit-based flow control is not supported on multipath "
          "fabrics");
    }
    // The looping rearrangement runs once up front: it configures every
    // free connection for the requested permutation, and the policy then
    // just reads the settings tables.
    std::optional<multipath::LoopingSettings> looping;
    if (config.path_policy == PathPolicy::kLooping) {
      looping = multipath::looping_configure(engine.fabric(),
                                             config.permutation);
    }
    FabricCore core(engine, pattern, config, arbiter_candidates,
                    static_cast<unsigned>(engine.planes()) *
                        arbiter_candidates);
    const PolicyContext ctx{core, ws, mask, obs,
                            looping.has_value() ? &*looping : nullptr};
    return faulted
               ? run_policy<Policy<true, false, false, true>>(ctx, extra...)
               : run_policy<Policy<false, false, false, true>>(ctx,
                                                               extra...);
  }
  FabricCore core(engine, pattern, config, arbiter_candidates);
  const PolicyContext ctx{core, ws, mask, obs, nullptr};
  const bool binary = wiring.radix() == 2;
  const auto unipath = [&]<bool kFaulted>() {
    if (config.credits.enabled) {
      return binary ? run_policy<Policy<kFaulted, true, true, false>>(
                          ctx, extra...)
                    : run_policy<Policy<kFaulted, false, true, false>>(
                          ctx, extra...);
    }
    return binary
               ? run_policy<Policy<kFaulted, true, false, false>>(ctx,
                                                                  extra...)
               : run_policy<Policy<kFaulted, false, false, false>>(ctx,
                                                                   extra...);
  };
  return faulted ? unipath.template operator()<true>()
                 : unipath.template operator()<false>();
}

}  // namespace mineq::sim
