#include "sim/wormhole.hpp"

#include <algorithm>
#include <vector>

#include "sim/multipath_select.hpp"
#include "sim/policy.hpp"

namespace mineq::sim {

namespace {

/// The wormhole discipline as a policy over FabricCore: packets decompose
/// into flits that pipeline through the per-port virtual-channel lanes of
/// a LanePool. The head flit claims an idle downstream lane and advances
/// as soon as it wins output-port arbitration; body and tail flits follow
/// through the reserved lane; the tail releases each lane as it passes.
/// One flit crosses each link per cycle. The bool axes are PolicyBase's
/// (policy.hpp); for this discipline:
///
/// \tparam kFaulted resolves every worm's out-port through the
/// fault::FaultedWiring view when its head is accepted — following the
/// schedule while its arc survives, detouring through the next surviving
/// port otherwise, and marking the lane *dropping* when the switch is
/// dead so the worm (and every flit still following its reservation)
/// drains into the dropped-at-fault counters instead of wedging the
/// buffer.
///
/// \tparam kCredits per-lane credits over a CreditLedger — one credit per
/// downstream lane slot, consumed per flit accepted, returned per flit
/// popped with the configured latency — plus the pluggable output-port
/// arbitration. With a non-empty SL->VL map, worms travel in their fixed
/// virtual lane vl_of_sl(sl) at every hop instead of claiming the first
/// idle lane.
///
/// \tparam kMultiPath terminals are *logical* (the engine's
/// MultiPathWiring view), a head resolves its next out-port by selecting
/// within the fabric's equivalent-path group (free Benes connection,
/// dilation group, injection plane) under the configured PathPolicy, and
/// ejection arbitrates the planes * radix * lanes candidate lanes of each
/// logical terminal.
///
/// With an observer, probe counters count per-flit hops, flow records
/// land at tail ejection, and each blocked lane-cycle is attributed to
/// one StallCause in the scan that counts hol_blocking_cycles.
template <bool kFaulted, bool kBinary, bool kCredits, bool kMultiPath>
class WormholePolicy
    : public PolicyBase<WormholePolicy<kFaulted, kBinary, kCredits,
                                       kMultiPath>,
                        kFaulted, kBinary, kCredits, kMultiPath> {
  using Base = PolicyBase<WormholePolicy<kFaulted, kBinary, kCredits,
                                         kMultiPath>,
                          kFaulted, kBinary, kCredits, kMultiPath>;
  friend Base;
  using Base::core_, Base::radix_, Base::length_, Base::obs_,
      Base::link_counter_, Base::shard_pool_delta_, Base::faulted_,
      Base::credit_config_, Base::credits_, Base::service_levels_,
      Base::credit_links_, Base::lradix_, Base::lcells_, Base::planes_,
      Base::dilation_, Base::path_policy_, Base::looping_, Base::free_stage_,
      Base::requests_, Base::wakes_, Base::stall_sums_;
  using Base::radix, Base::arb_start, Base::arb_grant, Base::eject_start,
      Base::eject_grant, Base::eject_offset, Base::top_weight,
      Base::account_cell, Base::record_delivery,
      Base::close_pass, Base::set_cell, Base::mark_stall,
      Base::clear_stall_causes, Base::attribute_stall, Base::traced,
      Base::maybe_commit_probe, Base::trace_inject, Base::trace_stage_cross,
      Base::trace_reroute, Base::trace_eject, Base::eject_stall_phase,
      Base::drain_phase, Base::advance_phase, Base::stall_phase,
      Base::inject_phase, Base::stage_routing, Base::scheduled_port,
      Base::group_size;
  using StageRouting = typename Base::StageRouting;

 public:
  WormholePolicy(const PolicyContext& ctx, const EjectObserver& observer)
      : Base(ctx, lane_count(ctx.core),
             static_cast<std::uint32_t>(ctx.core.config().lane_depth),
             static_cast<unsigned>(
                 static_cast<std::size_t>(ctx.core.wiring().radix()) *
                 ctx.core.config().lanes),
             lane_count(ctx.core), /*wake_horizon=*/0),
        observer_(observer),
        lanes_(ctx.core.config().lanes),
        pool_(ctx.workspace.lane_pool(lane_count(ctx.core),
                                      ctx.core.config().lane_depth)),
        sources_(ctx.core.terminals()),
        // Physical lane slots: ports per stage (== terminals on a
        // unipath fabric, wider on a multipath one).
        total_flit_slots_(static_cast<double>(ctx.core.stages()) *
                          static_cast<double>(ctx.core.ports()) *
                          static_cast<double>(lanes_) *
                          static_cast<double>(ctx.core.config().lane_depth)) {
    if constexpr (kFaulted) dropping_.assign(lane_count(core_), 0);
    const auto candidates = static_cast<unsigned>(
        planes_ * static_cast<std::size_t>(radix_) * lanes_);
    for (unsigned c = 0; c < candidates; ++c) {
      lane_port_.push_back(
          static_cast<std::uint32_t>(eject_offset(c) / lanes_));
    }
  }

  /// Inject at the first stage: terminal t feeds slot t % r of cell
  /// t / r, at most one flit per cycle. A terminal mid-packet keeps
  /// serializing into the claimed lane; an idle terminal draws the
  /// Bernoulli gate (bursty-OFF terminals skip the attempt) and its head
  /// needs an idle lane or the packet is refused at the source.
  void inject(std::uint64_t cycle, bool measuring) {
    if constexpr (kMultiPath) {
      inject_multipath(cycle, measuring);
      return;
    }
    // Injection is always a serial phase: log 0 is the sink in both
    // drivers, keeping trace bytes thread-count invariant.
    obs::WorkerLog* const log = kernel_log<false>(obs_, nullptr);
    const unsigned r = radix();
    // Every flit pushed wakes its first-stage cell for the next cycle.
    const auto first_stage = wakes_->template pass<false>(0, cycle);
    for (std::uint64_t t = 0; t < core_.terminals(); ++t) {
      SourceState& src = sources_[t];
      if (src.remaining > 0) {
        const std::size_t l =
            lane_index(0, t, static_cast<std::size_t>(src.lane));
        bool room;
        if constexpr (kCredits) {
          room = credits_->available(l);
          if (!room && measuring) {
            ++core_.result.credit_stall_cycles;
            if (log != nullptr) [[unlikely]] ++log->credit[0];
          }
        } else {
          room = pool_.has_space(l);
        }
        if (room) {
          pool_.accept(l, make_flit(src.id, src.dest,
                                    static_cast<std::uint32_t>(t),
                                    src.inject_cycle, src.next_index, length_,
                                    src.sl, src.tag));
          first_stage.wake(set_cell(0, t));
          if constexpr (kCredits) credits_->consume(l);
          ++src.next_index;
          --src.remaining;
          if (measuring) ++core_.result.flits_injected;
        }
        continue;  // the source link is busy with the current packet
      }
      if (!core_.attempt(cycle, static_cast<std::uint32_t>(t))) continue;
      if (measuring) ++core_.result.offered;
      [[maybe_unused]] unsigned sl = 0;
      int lane;
      if constexpr (kCredits) {
        sl = static_cast<unsigned>(t % service_levels_);
        if (!credit_config_->sl_map.empty()) {
          // Fixed virtual lane per service level.
          lane = static_cast<int>(credit_config_->vl_of_sl(sl));
          if (!pool_.idle(lane_index(0, t, static_cast<std::size_t>(lane)))) {
            continue;  // refused at source: its lane is held
          }
        } else {
          lane = pool_.find_idle_lane(lane_index(0, t, 0), lanes_);
          if (lane < 0) continue;  // refused at source
        }
        if (!credits_->available(
                lane_index(0, t, static_cast<std::size_t>(lane)))) {
          if (measuring) {
            ++core_.result.credit_stall_cycles;
            if (log != nullptr) [[unlikely]] ++log->credit[0];
          }
          continue;  // lane free, credits not returned yet
        }
      } else {
        lane = pool_.find_idle_lane(lane_index(0, t, 0), lanes_);
        if (lane < 0) continue;  // refused at source
      }
      const workload::Injection packet =
          core_.draw(cycle, static_cast<std::uint32_t>(t));
      const std::uint32_t dest = packet.dest;
      const std::uint32_t id = next_packet_id_++;
      accept_head<false>(lane_index(0, t, static_cast<std::size_t>(lane)),
                         make_flit(id, dest, static_cast<std::uint32_t>(t),
                                   cycle, 0, length_, sl, packet.tag),
                         0, static_cast<std::uint32_t>(t / r),
                         core_.engine().route_port(0, dest), measuring,
                         nullptr, cycle, inject_phase());
      first_stage.wake(set_cell(0, t));
      if constexpr (kCredits) {
        credits_->consume(lane_index(0, t, static_cast<std::size_t>(lane)));
      }
      core_.commit(cycle, static_cast<std::uint32_t>(t), packet);
      src.dest = dest;
      src.id = id;
      src.inject_cycle = cycle;
      src.next_index = 1;
      src.remaining = length_ - 1;
      src.lane = lane;
      src.sl = sl;
      src.tag = packet.tag;
      if (measuring) {
        ++core_.result.injected;
        ++core_.result.flits_injected;
        if (log != nullptr) [[unlikely]] {
          trace_inject(*log, cycle, static_cast<std::uint32_t>(t), dest);
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t buffered_flits() const {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(pool_.occupied_flits()) +
        shard_pool_delta_);
  }

  /// Worker 0 only: the order-sensitive occupancy adds over pool-wide
  /// totals reconciled from the workers' deltas and per-VL counts.
  void shard_sample_reduce(std::uint64_t cycle,
                           const std::vector<ShardWorker>& workers) {
    std::int64_t delta = 0;
    for (const ShardWorker& wk : workers) delta += wk.pool_delta;
    core_.result.lane_occupancy.add(
        static_cast<double>(
            static_cast<std::int64_t>(pool_.occupied_flits()) + delta) /
        total_flit_slots_);
    if constexpr (kCredits) {
      if (core_.result.vl_occupancy.empty()) {
        core_.result.vl_occupancy.resize(lanes_);
      }
      const double slots_per_vl =
          total_flit_slots_ / static_cast<double>(lanes_);
      for (std::size_t vl = 0; vl < lanes_; ++vl) {
        std::uint64_t flits = 0;
        for (const ShardWorker& wk : workers) flits += wk.vl_flits[vl];
        core_.result.vl_occupancy[vl].add(static_cast<double>(flits) /
                                          slots_per_vl);
      }
    }
    maybe_commit_probe(cycle);
  }

 private:
  /// Per-terminal injection state: the packet currently serializing into
  /// the first stage (flits are materialized on the fly) and the lane
  /// that worm claimed.
  struct SourceState {
    std::uint32_t dest = 0;
    std::uint32_t id = 0;
    std::uint64_t inject_cycle = 0;
    std::size_t next_index = 0;
    std::size_t remaining = 0;
    int lane = -1;
    unsigned sl = 0;  // service level of the serializing packet
    unsigned tag = 0;  // workload tag carried by every flit of the packet
    std::size_t port = 0;  // claimed physical input port (kMultiPath only)
  };

  /// Every physical lane of the fabric (the size of the pool, the credit
  /// ledger and the per-lane scratch arrays).
  [[nodiscard]] static std::size_t lane_count(const FabricCore& core) {
    return static_cast<std::size_t>(core.stages()) * core.ports() *
           core.config().lanes;
  }

  /// Eject at the last stage over logical cells [x0, x1) (the physical
  /// cells on a unipath fabric): one flit per terminal per cycle,
  /// round-robin over the cell's radix * lanes candidate lanes — on a
  /// multipath fabric over the planes * radix * lanes last-stage lanes of
  /// every plane's copy of the cell (a worm may arrive on any arc of its
  /// dilation group and in any plane), with a per-logical-terminal
  /// pointer so no plane starves. A logical cell's candidate lanes live
  /// at the same offset of every plane, so a logical-cell range owns
  /// planes_ disjoint physical runs — still single-writer under
  /// sharding. Ejection links are terminal attachments, not wiring arcs,
  /// so they cannot fault. Sharded (kShard), every order-sensitive sink —
  /// the observer call, the Welford latency adds, the per-SL latency —
  /// defers into the worker's event buffer for the serial-phase replay;
  /// order-independent counters accumulate into the worker's partial.
  template <bool kShard>
  void eject_impl(std::uint64_t cycle, bool measuring, std::uint32_t x0,
                  std::uint32_t x1, ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    CellRequests& req = cell_requests<kShard>(requests_, wk);
    const int last = core_.stages() - 1;
    StallTally& sum = stall_sum<kShard>(stall_sums_, last, wk);
    const auto wake = wakes_->template pass<kShard>(last, cycle);
    // The range's frozen cells, kept local (pool stores could alias the
    // sum), and this pass's visited cells that stay awake.
    StallTally frozen = sum;
    StallTally awake;
    const unsigned r = radix();
    const unsigned lr = kMultiPath ? lradix_ : r;
    const auto per_plane =
        static_cast<unsigned>(static_cast<std::size_t>(r) * lanes_);
    const unsigned candidates = planes_ * per_plane;
    for (std::size_t w = x0 / 64; w * 64 < x1; ++w) {
      for (std::uint64_t cells = wakes_->take(last, w, cycle); cells != 0;
           cells &= cells - 1) {
        const auto x = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(cells)));
        frozen.thaw(wake.tally[x]);
        const std::size_t first = lane_index(last, std::size_t{x} * r, 0);
        for (unsigned c = 0; c < candidates; ++c) {
          const std::size_t l = first + eject_offset(c);
          if (pool_.empty(l)) continue;
          req.set_ready(c);
          req.request(pool_.out_port(l), c);
        }
        if (req.idle()) {  // nothing buffered: nothing moves or blocks
          wake.sleep(x);
          continue;
        }
        // A cell stays awake when it grants — and always when every
        // cell is visited anyway, so observed runs never freeze one.
        bool awake_next = wake.visit_all;
        unsigned port;
        while (req.next_port(port)) {
          const std::size_t term = static_cast<std::size_t>(x) * lr + port;
          // Strict priority: only a worm of the highest ready weight class
          // may win this cycle.
          [[maybe_unused]] unsigned need_weight = 0;
          if constexpr (kCredits) {
            if (credit_config_->arbitration == ArbitrationPolicy::kPriority) {
              need_weight = top_weight(
                  req.set(port), req.words(), [&](unsigned c) {
                    return flit_weight(first + eject_offset(c));
                  });
            }
          }
          const unsigned c = scan_round_robin(
              req.set(port), req.words(), eject_start(term),
              [&]([[maybe_unused]] unsigned c) {
                if constexpr (kCredits) {
                  return credit_config_->arbitration !=
                             ArbitrationPolicy::kPriority ||
                         flit_weight(first + eject_offset(c)) == need_weight;
                }
                return true;
              });
          req.clear_set(port);
          if (c == kNoCandidate) continue;
          const std::size_t l = first + eject_offset(c);
          [[maybe_unused]] unsigned vl = 0;
          if constexpr (kCredits) {
            vl = credit_config_->vl_of_sl(
                static_cast<unsigned>(pool_.front(l).sl));
          }
          const Flit flit = shard_pop<kShard>(l, wk);
          if constexpr (kCredits) {
            credits_->give_back(l, cycle, return_list<kShard>(wk));
          }
          eject_grant(term, c, vl);
          req.moved(c);
          awake_next = true;
          wake.wake_parent(std::size_t{x} * r + lane_port_[c]);
          const bool counted =
              measuring && flit.inject_cycle >= core_.config().warmup_cycles;
          if (counted) ++res.flits_delivered;
          if (log != nullptr) [[unlikely]] {
            trace_flit_eject(*log, measuring, cycle, flit);
          }
          if constexpr (kFaulted) {
            // A detoured worm ejects at whatever terminal the surviving
            // route reached; count the miss.
            if (counted && flit.is_tail() && (flit.dest_terminal / lr) != x) {
              ++res.packets_misdelivered;
            }
          }
          complete_eject<kShard>(flit, static_cast<std::uint32_t>(term), cycle,
                                 counted, wk);
        }
        // Planes own consecutive candidate runs and one stall phase each.
        unsigned plane = 0;
        unsigned plane_end = per_plane;
        const CellTally share = cell_tally(
            account_cell(req, measuring, log,
                         [&](unsigned c) {
                           while (c >= plane_end) {
                             ++plane;
                             plane_end += per_plane;
                           }
                           const std::size_t l =
                               first + eject_offset(c);
                           attribute_stall(last, cycle, l, l, res,
                                           *log,
                                           eject_stall_phase(plane));
                         }),
            0);
        if (awake_next) {
          awake.add(share);
        } else {
          wake.sleep(x);
          frozen.freeze(wake.tally[x], share);
        }
      }
    }
    close_pass(sum, frozen, awake, measuring, res);
  }

  /// Advance stage \p s over cells [x0, x1) in one pass per cell: one
  /// flit per output link per cycle; every non-empty lane requests its
  /// worm's out-port, heads claim an idle downstream lane and body/tail
  /// flits follow the reservation. Safe to shard by cell ranges: a worker
  /// pushes only into stage-(s+1) lanes reached through its own cells'
  /// arcs, and the perfect-matching property makes each of those lanes
  /// single-writer for the whole phase.
  template <bool kShard>
  void advance_stage_impl(int s, std::uint64_t cycle, bool measuring,
                          std::uint32_t x0, std::uint32_t x1,
                          ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    CellRequests& req = cell_requests<kShard>(requests_, wk);
    StallTally& sum = stall_sum<kShard>(stall_sums_, s, wk);
    const auto wake = wakes_->template pass<kShard>(s, cycle);
    // The range's frozen cells, kept local (pool stores could alias the
    // sum), and this pass's visited cells that stay awake.
    StallTally frozen = sum;
    StallTally awake;
    const unsigned r = radix();
    const auto down = core_.wiring().down_stage(s);
    // Where an advancing head resolves its next out-port.
    const StageRouting next = stage_routing(s + 1);
    if constexpr (kFaulted) {
      drain_dropping<kShard>(s, cycle, measuring, x0, x1, wk);
    }
    const auto per_cell =
        static_cast<unsigned>(static_cast<std::size_t>(r) * lanes_);
    if (log != nullptr) [[unlikely]] {
      clear_stall_causes(lane_index(s, std::size_t{x0} * r, 0),
                         lane_index(s, std::size_t{x1} * r, 0));
    }
    std::uint64_t moves = 0;  // flits that left stage s this cycle
    for (std::size_t w = x0 / 64; w * 64 < x1; ++w) {
      for (std::uint64_t cells = wakes_->take(s, w, cycle); cells != 0;
           cells &= cells - 1) {
        const auto x = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(cells)));
        frozen.thaw(wake.tally[x]);
        const std::size_t first = lane_index(s, std::size_t{x} * r, 0);
        for (unsigned c = 0; c < per_cell; ++c) {
          if (pool_.empty(first + c)) continue;
          req.set_ready(c);
          req.request(pool_.out_port(first + c), c);
        }
        if (req.idle()) {  // nothing buffered: nothing moves or blocks
          wake.sleep(x);
          continue;
        }
        // A cell stays awake when it grants — and always when every
        // cell is visited anyway, so observed runs never freeze one.
        bool awake_next = wake.visit_all;
        std::uint32_t credit_stalls = 0;
        unsigned port;
        while (req.next_port(port)) {
          // Strict priority: only a worm of the highest ready weight class
          // may win this cycle.
          [[maybe_unused]] unsigned need_weight = 0;
          if constexpr (kCredits) {
            if (credit_config_->arbitration == ArbitrationPolicy::kPriority) {
              need_weight = top_weight(
                  req.set(port), req.words(),
                  [&](unsigned c) { return flit_weight(first + c); });
            }
          }
          // One packed read gives the child cell and its input slot — the
          // record value r * child + slot IS the downstream port-slot
          // index.
          const std::size_t out = std::size_t{x} * r + port;
          const std::uint32_t record = down[out];
          const std::size_t target_first = lane_index(s + 1, record, 0);
          int down_lane = -1;  // the downstream lane a winning head claims
          const unsigned c = scan_round_robin(
              req.set(port), req.words(), arb_start(s, out), [&](unsigned c) {
                const std::size_t l = first + c;
                if constexpr (kCredits) {
                  if (credit_config_->arbitration ==
                          ArbitrationPolicy::kPriority &&
                      flit_weight(l) != need_weight) {
                    return false;
                  }
                }
                if (pool_.front(l).is_head()) {
                  // The head claims a downstream lane: its fixed virtual
                  // lane when an SL->VL map is configured, the first idle
                  // lane otherwise.
                  bool fixed = false;
                  if constexpr (kCredits) {
                    if (!credit_config_->sl_map.empty()) {
                      fixed = true;
                      down_lane = static_cast<int>(credit_config_->vl_of_sl(
                          static_cast<unsigned>(pool_.front(l).sl)));
                      if (!pool_.idle(target_first +
                                      static_cast<std::size_t>(down_lane))) {
                        down_lane = -1;
                      }
                    }
                  }
                  if (!fixed) {
                    down_lane = pool_.find_idle_lane(target_first, lanes_);
                  }
                  if (down_lane < 0) {
                    if (log != nullptr) [[unlikely]] {
                      mark_stall(l, obs::StallCause::kNoFreeLane);
                    }
                    return false;  // blocked: no (or not its) free lane
                  }
                  if constexpr (kCredits) {
                    if (!credits_->available(
                            target_first +
                            static_cast<std::size_t>(down_lane))) {
                      // Lane is free but its credits have not returned yet.
                      credit_stall(credit_stalls, log, l, s, measuring);
                      return false;
                    }
                  }
                  return true;
                }
                // Body/tail flits follow through the reserved lane.
                const std::size_t down_l =
                    target_first +
                    static_cast<std::size_t>(pool_.downstream(l));
                if constexpr (kCredits) {
                  if (!credits_->available(down_l)) {
                    credit_stall(credit_stalls, log, l, s, measuring);
                    return false;
                  }
                } else {
                  if (!pool_.has_space(down_l)) {
                    if (log != nullptr) [[unlikely]] {
                      mark_stall(l, obs::StallCause::kDownstreamFull);
                    }
                    return false;  // blocked: full
                  }
                }
                return true;
              });
          req.clear_set(port);
          if (c == kNoCandidate) continue;
          const std::size_t l = first + c;
          [[maybe_unused]] unsigned vl = 0;
          if constexpr (kCredits) {
            vl = credit_config_->vl_of_sl(
                static_cast<unsigned>(pool_.front(l).sl));
          }
          if (pool_.front(l).is_head()) {
            const std::size_t down_l =
                target_first + static_cast<std::size_t>(down_lane);
            const Flit flit = shard_pop<kShard>(l, wk);
            if constexpr (kCredits) {
              credits_->give_back(l, cycle, return_list<kShard>(wk));
            }
            if (!flit.is_tail()) pool_.set_downstream(l, down_lane);
            advance_head<kShard>(next, record, down_l, flit, measuring, wk,
                                 cycle, s);
            if constexpr (kCredits) credits_->consume(down_l);
          } else {
            const std::size_t down_l =
                target_first + static_cast<std::size_t>(pool_.downstream(l));
            shard_accept<kShard>(down_l, shard_pop<kShard>(l, wk), wk);
            if constexpr (kCredits) {
              credits_->give_back(l, cycle, return_list<kShard>(wk));
              credits_->consume(down_l);
            }
          }
          arb_grant(s, out, c, vl);
          req.moved(c);
          awake_next = true;
          ++moves;
          // The cell feeding the popped lane sees room now; the child has a
          // flit to move next cycle.
          wake.wake_parent(std::size_t{x} * r + lane_port_[c]);
          wake.wake_child(set_cell(s + 1, record));
        }
        const CellTally share = cell_tally(
            account_cell(req, measuring, log,
                         [&](unsigned c) {
                           attribute_stall(s, cycle, first + c,
                                           first + c, res, *log,
                                           stall_phase(s));
                         }),
            credit_stalls);
        if (awake_next) {
          awake.add(share);
        } else {
          wake.sleep(x);
          frozen.freeze(wake.tally[x], share);
        }
      }
    }
    close_pass(sum, frozen, awake, measuring, res);
    if (measuring) count_hops<kShard>(s, moves, log, wk);
  }

  /// A head flit that won its output port enters lane \p down_l, input
  /// \p record of stage next.stage, and resolves its out-port there: the
  /// schedule (the ejection port at the last stage) on a unipath fabric,
  /// the path policy's pick within its group on a multipath one.
  template <bool kShard>
  void advance_head(const StageRouting& next, std::uint32_t record,
                    std::size_t down_l, const Flit& flit, bool measuring,
                    ShardWorker* wk, std::uint64_t cycle, int s) {
    const unsigned r = radix();
    const std::uint32_t dest = flit.dest_terminal;
    unsigned desired;
    [[maybe_unused]] int reroute_kind = 0;
    if constexpr (kMultiPath) {
      desired = next.ejects
                    ? dest % lradix_
                    : select_next_port(next, record, flit,
                                       scheduled_port(next, dest),
                                       reroute_kind);
    } else {
      desired = next.ejects ? dest % r : scheduled_port(next, dest);
    }
    accept_head<kShard>(down_l, flit, s + 1, record / r, desired, measuring,
                        wk, cycle, advance_phase(s));
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    if (log != nullptr) [[unlikely]] trace_flit_cross(*log, s, cycle, flit);
    if constexpr (kFaulted && kMultiPath) {
      if (reroute_kind == 1 && measuring &&
          flit.inject_cycle >= core_.config().warmup_cycles) {
        ++shard_result<kShard>(core_, wk).path_reroutes;
        if (log != nullptr) [[unlikely]] {
          trace_reroute(*log, s, cycle, flit.inject_cycle,
                        static_cast<std::uint32_t>(flit.src),
                        flit.dest_terminal, advance_phase(s));
        }
      }
    }
  }

  /// The sample kernel. Credit runs audit the conservation invariant
  /// every sampled cycle — per lane, credits held + credit messages in
  /// flight + flits buffered must equal the lane depth exactly — and
  /// sample occupancy per virtual lane so weighted/priority sweeps can
  /// see the VL partition directly. Sharded, the occupancy adds
  /// (order-sensitive Welford updates over the pool-wide totals) are left
  /// to shard_sample_reduce; worker \p w only audits its share of the
  /// lane links and counts per-VL flits into its buffers.
  template <bool kShard>
  void sample_impl([[maybe_unused]] std::uint64_t cycle,
                   [[maybe_unused]] std::size_t w,
                   [[maybe_unused]] std::size_t n,
                   [[maybe_unused]] ShardWorker* wk) {
    if constexpr (!kShard) {
      core_.result.lane_occupancy.add(
          static_cast<double>(pool_.occupied_flits()) / total_flit_slots_);
    }
    if constexpr (kCredits) {
      const std::uint64_t depth = credits_->capacity();
      if constexpr (!kShard) {
        // Sharded runs defer this lazy resize to shard_sample_reduce —
        // a shared-vector write has no place in a parallel phase.
        if (core_.result.vl_occupancy.empty()) {
          core_.result.vl_occupancy.resize(lanes_);
        }
      }
      std::size_t lo = 0;
      std::size_t hi = credit_links_;
      std::vector<std::uint64_t>* vl_flits = &vl_flits_;
      if constexpr (kShard) {
        const auto range = shard_range(credit_links_, w, n);
        lo = range.first;
        hi = range.second;
        vl_flits = &wk->vl_flits;
      }
      SimResult& res = shard_result<kShard>(core_, wk);
      vl_flits->assign(lanes_, 0);
      std::size_t vl = lo % lanes_;  // lane l is virtual lane l % lanes
      for (std::size_t l = lo; l < hi; ++l) {
        const std::uint64_t held = credits_->credits(l);
        if (held > depth ||
            held + credits_->in_flight(l) + pool_.count(l) != depth) {
          ++res.credit_violations;
        }
        (*vl_flits)[vl] += pool_.count(l);
        if (++vl == lanes_) vl = 0;
      }
      if constexpr (!kShard) {
        const double slots_per_vl = total_flit_slots_ /
                                    static_cast<double>(lanes_);
        for (std::size_t vl = 0; vl < lanes_; ++vl) {
          core_.result.vl_occupancy[vl].add(
              static_cast<double>(vl_flits_[vl]) / slots_per_vl);
        }
      }
    }
    if constexpr (!kShard) maybe_commit_probe(cycle);
  }

  /// Worker 0's replay of one worker's deferred ejections, in that
  /// worker's range order.
  void replay_ejections(ShardWorker& wk, std::uint64_t cycle,
                        bool measuring) {
    for (const Flit& flit : wk.wh_events) {
      if (observer_) observer_(flit, cycle);
      if (measuring &&
          flit.inject_cycle >= core_.config().warmup_cycles &&
          flit.is_tail()) {
        record_flit_delivery(flit, cycle);
      }
    }
    wk.wh_events.clear();
  }

  [[nodiscard]] HeadPacket head_packet(std::size_t l) const {
    const Flit& flit = pool_.front(l);
    return {static_cast<std::uint64_t>(flit.inject_cycle),
            static_cast<std::uint32_t>(flit.src), flit.dest_terminal};
  }

  [[nodiscard]] std::uint32_t port_occupancy(int s, std::size_t port) const {
    std::uint32_t flits = 0;
    for (std::size_t ln = 0; ln < lanes_; ++ln) {
      flits += pool_.count(lane_index(s, port, ln));
    }
    return flits;
  }

  /// A flit whose downstream lane is out of credits stays put; the
  /// cell's pass counts it in \p credit_stalls.
  void credit_stall(std::uint32_t& credit_stalls, obs::WorkerLog* log,
                    std::size_t l, int s, bool measuring) {
    ++credit_stalls;
    if (log != nullptr) [[unlikely]] {
      if (measuring) ++log->credit[static_cast<std::size_t>(s)];
      mark_stall(l, obs::StallCause::kZeroCredits);
    }
  }

  /// The tail of every ejection: feed the workload source (tails only,
  /// warmup included — see workload::Delivery) and the order-sensitive
  /// sinks, deferred for worker 0's replay when sharded. Every flit is
  /// deferred if an eject observer watches, else just the tails that
  /// complete a measured delivery. The delivery is built here because
  /// the ejection \p terminal is not derivable from the flit alone on
  /// faulted detours.
  template <bool kShard>
  void complete_eject(const Flit& flit, std::uint32_t terminal,
                      std::uint64_t cycle, bool counted,
                      [[maybe_unused]] ShardWorker* wk) {
    if (flit.is_tail() && core_.wants_deliveries()) {
      hand_delivery<kShard>(
          core_, wk,
          workload::Delivery{static_cast<std::uint32_t>(flit.src),
                             flit.dest_terminal, terminal, flit.inject_cycle,
                             cycle + 1, static_cast<std::uint8_t>(flit.tag),
                             counted});
    }
    if constexpr (kShard) {
      if (observer_ || (counted && flit.is_tail())) {
        wk->wh_events.push_back(flit);
      }
    } else {
      if (observer_) observer_(flit, cycle);
      if (counted && flit.is_tail()) record_flit_delivery(flit, cycle);
    }
  }

  void record_flit_delivery(const Flit& flit, std::uint64_t cycle) {
    record_delivery(static_cast<double>(cycle - flit.inject_cycle + 1),
                    static_cast<unsigned>(flit.sl),
                    static_cast<std::uint32_t>(flit.src), flit.dest_terminal);
  }

  /// A flit left the last stage (observability runs only).
  void trace_flit_eject(obs::WorkerLog& log, bool measuring,
                        std::uint64_t cycle, const Flit& flit) {
    if (measuring) ++log.hops[static_cast<std::size_t>(core_.stages() - 1)];
    trace_eject(log, cycle, flit.inject_cycle,
                static_cast<std::uint32_t>(flit.src), flit.dest_terminal,
                flit.is_head(), flit.is_tail());
  }

  /// A head flit crossed from stage \p s into s + 1.
  void trace_flit_cross(obs::WorkerLog& log, int s, std::uint64_t cycle,
                        const Flit& flit) {
    trace_stage_cross(log, s, cycle, flit.inject_cycle,
                      static_cast<std::uint32_t>(flit.src),
                      flit.dest_terminal);
  }

  /// Pool mutations: uncounted + per-worker delta when sharded (the
  /// occupied_ total would be a shared write on the hot path), the
  /// counted originals — byte-identical codegen — when serial.
  template <bool kShard>
  Flit shard_pop(std::size_t l, [[maybe_unused]] ShardWorker* wk) {
    if constexpr (kShard) {
      --wk->pool_delta;
      return pool_.pop_unc(l);
    } else {
      return pool_.pop(l);
    }
  }

  template <bool kShard>
  void shard_accept(std::size_t l, const Flit& flit,
                    [[maybe_unused]] ShardWorker* wk) {
    if constexpr (kShard) {
      ++wk->pool_delta;
      pool_.accept_unc(l, flit);
    } else {
      pool_.accept(l, flit);
    }
  }

  template <bool kShard>
  void shard_accept_head(std::size_t l, const Flit& head, unsigned out_port,
                         [[maybe_unused]] ShardWorker* wk) {
    if constexpr (kShard) {
      ++wk->pool_delta;
      pool_.accept_head_unc(l, head, out_port);
    } else {
      pool_.accept_head(l, head, out_port);
    }
  }

  /// Add one advance kernel's \p moves flit-hops out of stage \p s to
  /// the link counter (the worker's share when sharded) and, observed,
  /// to the stage's probe counter. Measured cycles only.
  template <bool kShard>
  void count_hops(int s, std::uint64_t moves, obs::WorkerLog* log,
                  [[maybe_unused]] ShardWorker* wk) {
    if constexpr (kShard) {
      wk->link_counter += moves;
    } else {
      link_counter_ += moves;
    }
    if (log != nullptr) [[unlikely]] {
      log->hops[static_cast<std::size_t>(s)] += moves;
    }
  }

  /// Multipath injection: logical terminal t feeds physical input slot
  /// (t % lr) * dilation of its logical cell, choosing a plane per
  /// packet on replicated fabrics (hash of the destination, or the
  /// plane with the emptiest injection lanes) and its first out-port
  /// through select_next_port. A terminal mid-packet keeps serializing
  /// into the claimed lane of the claimed physical port.
  void inject_multipath(std::uint64_t cycle, bool measuring) {
    obs::WorkerLog* const log = kernel_log<false>(obs_, nullptr);
    const unsigned r = radix_;
    const StageRouting first = stage_routing(0);
    const auto first_stage = wakes_->template pass<false>(0, cycle);
    for (std::uint64_t t = 0; t < core_.terminals(); ++t) {
      SourceState& src = sources_[t];
      if (src.remaining > 0) {
        const std::size_t l =
            lane_index(0, src.port, static_cast<std::size_t>(src.lane));
        if (pool_.has_space(l)) {
          pool_.accept(l, make_flit(src.id, src.dest,
                                    static_cast<std::uint32_t>(t),
                                    src.inject_cycle, src.next_index, length_,
                                    src.sl, src.tag));
          first_stage.wake(set_cell(0, src.port));
          ++src.next_index;
          --src.remaining;
          if (measuring) ++core_.result.flits_injected;
        }
        continue;  // the source link is busy with the current packet
      }
      if (!core_.attempt(cycle, static_cast<std::uint32_t>(t))) continue;
      if (measuring) ++core_.result.offered;
      // Drawn before the plane pick (the hashed policy keys on the
      // destination); a refused attempt discards the draw, historically.
      const workload::Injection packet =
          core_.draw(cycle, static_cast<std::uint32_t>(t));
      const std::uint32_t dest = packet.dest;
      const std::uint32_t lcell =
          static_cast<std::uint32_t>(t) / lradix_;
      const unsigned slot =
          (static_cast<unsigned>(t) % lradix_) * dilation_;
      std::size_t port_index = 0;
      int lane = -1;
      if (planes_ == 1) {
        port_index = static_cast<std::size_t>(lcell) * r + slot;
        lane = pool_.find_idle_lane(lane_index(0, port_index, 0), lanes_);
      } else if (path_policy_ == PathPolicy::kAdaptive) {
        std::size_t best = 0;
        for (unsigned plane = 0; plane < planes_; ++plane) {
          const std::size_t candidate =
              (static_cast<std::size_t>(plane) * lcells_ + lcell) * r + slot;
          const int idle =
              pool_.find_idle_lane(lane_index(0, candidate, 0), lanes_);
          if (idle < 0) continue;
          const std::size_t occupancy = port_occupancy(0, candidate);
          if (lane < 0 || occupancy < best) {
            best = occupancy;
            port_index = candidate;
            lane = idle;
          }
        }
      } else {
        const unsigned plane = static_cast<unsigned>(
            path_mix(dest, cycle, t) % planes_);
        port_index =
            (static_cast<std::size_t>(plane) * lcells_ + lcell) * r + slot;
        lane = pool_.find_idle_lane(lane_index(0, port_index, 0), lanes_);
      }
      if (lane < 0) continue;  // refused at source
      const std::uint32_t id = next_packet_id_++;
      const Flit head = make_flit(id, dest, static_cast<std::uint32_t>(t),
                                  cycle, 0, length_, 0, packet.tag);
      int reroute_kind = 0;
      const unsigned desired = select_next_port(
          first, static_cast<std::uint32_t>(port_index), head,
          scheduled_port(first, dest), reroute_kind);
      accept_head<false>(
          lane_index(0, port_index, static_cast<std::size_t>(lane)), head, 0,
          static_cast<std::uint32_t>(port_index / r), desired, measuring,
          nullptr, cycle, inject_phase());
      first_stage.wake(set_cell(0, port_index));
      if constexpr (kFaulted) {
        if (reroute_kind == 1 && measuring &&
            cycle >= core_.config().warmup_cycles) {
          ++core_.result.path_reroutes;
          if (log != nullptr) [[unlikely]] {
            trace_reroute(*log, 0, cycle, cycle,
                          static_cast<std::uint32_t>(t), dest,
                          inject_phase());
          }
        }
      }
      core_.commit(cycle, static_cast<std::uint32_t>(t), packet);
      src.dest = dest;
      src.id = id;
      src.inject_cycle = cycle;
      src.next_index = 1;
      src.remaining = length_ - 1;
      src.lane = lane;
      src.port = port_index;
      src.sl = 0;
      src.tag = packet.tag;
      if (measuring) {
        ++core_.result.injected;
        ++core_.result.flits_injected;
        if (log != nullptr) [[unlikely]] {
          trace_inject(*log, cycle, static_cast<std::uint32_t>(t), dest);
        }
      }
    }
  }

  /// The path-selection seam: the out-port the head entering interior
  /// stage sr.stage on record \p record (cell * r + input slot) will
  /// take, chosen within the equivalent-path group [\p base, \p base +
  /// group_size) by the configured policy. Faulted: a masked choice
  /// re-selects among the surviving group members (\p reroute_kind = 1);
  /// a fully-masked group returns the scheduled base and lets
  /// accept_head run the unipath out-of-group detour (or dead-switch
  /// drop).
  [[nodiscard]] unsigned select_next_port(const StageRouting& sr,
                                          std::uint32_t record,
                                          const Flit& flit, unsigned base,
                                          int& reroute_kind) {
    const unsigned r = radix_;
    const unsigned count = group_size(sr);
    const std::uint32_t y = record / r;
    [[maybe_unused]] const std::size_t row = sr.arc_base + y * r;
    reroute_kind = 0;
    if (path_policy_ == PathPolicy::kAdaptive) {
      // Least-occupancy: the group member whose downstream lanes hold
      // the fewest flits (ties to the lowest port). Masked arcs are not
      // candidates — adaptivity subsumes in-group re-selection.
      int chosen = -1;
      std::size_t best = 0;
      for (unsigned k = 0; k < count; ++k) {
        const unsigned p = base + k;
        if constexpr (kFaulted) {
          if (faulted_.mask().faulted_index(row + p)) continue;
        }
        const std::size_t occupancy =
            port_occupancy(sr.stage + 1, sr.down[y * r + p]);
        if (chosen < 0 || occupancy < best) {
          best = occupancy;
          chosen = static_cast<int>(p);
        }
      }
      if (chosen >= 0) return static_cast<unsigned>(chosen);
      return base;  // whole group masked: accept_head detours or drops
    }
    unsigned desired;
    if (sr.settings != nullptr) {
      desired = sr.settings[static_cast<std::size_t>(y) * lradix_ +
                            record % r];
    } else if (count == 1) {
      desired = base;
    } else {
      desired = base + static_cast<unsigned>(
                           path_mix(flit.dest_terminal, flit.inject_cycle,
                                    static_cast<std::uint64_t>(sr.stage)) %
                           count);
    }
    if constexpr (kFaulted) {
      if (faulted_.mask().faulted_index(row + desired)) {
        const int member = surviving_group_member(faulted_.mask(), row, base,
                                                  count, desired);
        if (member >= 0) {
          reroute_kind = 1;
          return static_cast<unsigned>(member);
        }
      }
    }
    return desired;
  }

  [[nodiscard]] std::size_t lane_index(int s, std::size_t port_index,
                                       std::size_t lane) const {
    return (static_cast<std::size_t>(s) * core_.ports() + port_index) *
               lanes_ +
           lane;
  }

  /// Weight class of the worm at the head of lane \p l (kCredits only).
  [[nodiscard]] unsigned flit_weight(std::size_t l) const {
    return credit_config_->weight(credit_config_->vl_of_sl(
        static_cast<unsigned>(pool_.front(l).sl)));
  }

  /// Accept \p head into lane \p l of cell \p y at stage \p s with the
  /// caller-resolved scheduled out-port \p desired (callers hoist the
  /// schedule reads per stage). Unfaulted: the port is taken as is.
  /// Faulted interior stages route through the FaultedWiring view —
  /// scheduled port, next surviving port (counted as a reroute), or a
  /// dead switch, which puts the lane in dropping mode so the worm
  /// drains into the fault counters. Last-stage out-ports are ejection
  /// ports and cannot fault.
  template <bool kShard>
  void accept_head(std::size_t l, const Flit& head, int s, std::uint32_t y,
                   unsigned desired, [[maybe_unused]] bool measuring,
                   [[maybe_unused]] ShardWorker* wk,
                   [[maybe_unused]] std::uint64_t cycle,
                   [[maybe_unused]] std::uint8_t phase) {
    if constexpr (kFaulted) {
      if (s + 1 < core_.stages()) {
        const int port = faulted_.usable_port(s, y, desired);
        if (port < 0) {
          // Dead switch: park the worm in dropping mode; drain_dropping
          // discards it (and its following flits) next cycle.
          shard_accept_head<kShard>(l, head, 0, wk);
          dropping_[l] = 1;
          return;
        }
        if (static_cast<unsigned>(port) != desired && measuring &&
            head.inject_cycle >= core_.config().warmup_cycles) {
          ++shard_result<kShard>(core_, wk).packets_rerouted;
          // Charged to the stage whose out-port detoured (the one the
          // head just entered); the trace event carries the same stage.
          if (obs::WorkerLog* log = kernel_log<kShard>(obs_, wk)) {
            trace_reroute(*log, s, cycle, head.inject_cycle,
                          static_cast<std::uint32_t>(head.src),
                          head.dest_terminal, phase);
          }
        }
        shard_accept_head<kShard>(l, head, static_cast<unsigned>(port), wk);
        return;
      }
    }
    shard_accept_head<kShard>(l, head, desired, wk);
  }

  /// Discard every buffered flit of the dropping-mode lanes of cells
  /// [x0, x1) of stage \p s. Popping the tail resets the lane to idle
  /// (via LanePool) and ends dropping mode; until then, flits still
  /// following the worm's reservation keep arriving and are drained on
  /// their next turn. Dropping flags for a lane are set by the upstream
  /// arc's owner in an earlier (barriered) phase and cleared here by the
  /// lane's owner, so sharding never races on them.
  template <bool kShard>
  void drain_dropping(int s, [[maybe_unused]] std::uint64_t cycle,
                      bool measuring, std::uint32_t x0, std::uint32_t x1,
                      ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    const std::size_t first = lane_index(s, 0, 0);
    const std::size_t lo = first + static_cast<std::size_t>(x0) * radix() *
                                       lanes_;
    const std::size_t hi = first + static_cast<std::size_t>(x1) * radix() *
                                       lanes_;
    for (std::size_t l = lo; l < hi; ++l) {
      if (dropping_[l] == 0) continue;
      while (!pool_.empty(l)) {
        const Flit flit = shard_pop<kShard>(l, wk);
        // Every pop wakes the sender. (Here its grant already did: each
        // flit it pushes into a dropping lane drains before its next
        // pass.)
        wakes_->template wake_parent<kShard>(s, (l - first) / lanes_);
        // A drained flit returns its credit like any other pop, so the
        // ledger closes exactly even across dead switches.
        if constexpr (kCredits) {
          credits_->give_back(l, cycle, return_list<kShard>(wk));
        }
        if (measuring && flit.inject_cycle >= core_.config().warmup_cycles) {
          ++res.flits_dropped_faulted;
          if (flit.is_head()) ++res.packets_dropped_faulted;
          if (log != nullptr && flit.is_head() &&
              obs_->traced(static_cast<std::uint32_t>(flit.src),
                           flit.inject_cycle)) {
            const std::uint8_t phase = drain_phase(s);
            const auto src = static_cast<std::uint32_t>(flit.src);
            trace_push(*log, cycle, flit.inject_cycle, src,
                       flit.dest_terminal, obs::TraceEventKind::kStageEnd,
                       static_cast<std::uint8_t>(s), 0, phase);
            trace_push(*log, cycle, flit.inject_cycle, src,
                       flit.dest_terminal, obs::TraceEventKind::kDrop,
                       static_cast<std::uint8_t>(s), 0, phase);
            trace_push(*log, cycle, flit.inject_cycle, src,
                       flit.dest_terminal, obs::TraceEventKind::kPacketEnd,
                       0, 0, phase);
          }
        }
        if (flit.is_tail()) dropping_[l] = 0;
      }
    }
  }

  const EjectObserver& observer_;
  std::size_t lanes_;
  LanePool& pool_;
  std::vector<SourceState> sources_;
  std::uint32_t next_packet_id_ = 0;
  double total_flit_slots_;
  /// Input port of ejection candidate c, relative to its logical cell's
  /// first port (advance candidates are the plane-0 prefix).
  std::vector<std::uint32_t> lane_port_;
  std::vector<std::uint8_t> dropping_;   // kFaulted only
  std::vector<std::uint64_t> vl_flits_;  // kCredits only (scratch)
};

}  // namespace

SimResult WormholeSimulator::run(Pattern pattern,
                                 const SimConfig& config) const {
  return run(pattern, config, EjectObserver());
}

SimResult WormholeSimulator::run(Pattern pattern, const SimConfig& config,
                                 const EjectObserver& observer) const {
  return run(pattern, config, observer, nullptr, nullptr);
}

SimResult WormholeSimulator::run(Pattern pattern, const SimConfig& config,
                                 const EjectObserver& observer,
                                 const fault::FaultMask* mask,
                                 SimWorkspace* workspace) const {
  return dispatch_policy<WormholePolicy>(
      engine_, pattern, config, mask, workspace,
      DisciplineShape{"WormholeSimulator::run",
                      static_cast<unsigned>(config.lanes),
                      static_cast<double>(config.lanes) *
                          static_cast<double>(config.lane_depth),
                      sizeof(Flit), "wormhole lane pool"},
      observer);
}

}  // namespace mineq::sim
