#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/multipath_select.hpp"
#include "sim/policy.hpp"
#include "sim/wormhole.hpp"
#include "util/bitops.hpp"

namespace mineq::sim {

std::string switching_mode_name(SwitchingMode mode) {
  switch (mode) {
    case SwitchingMode::kStoreAndForward:
      return "saf";
    case SwitchingMode::kWormhole:
      return "wormhole";
  }
  throw std::invalid_argument("switching_mode_name: unknown mode");
}

SwitchingMode parse_switching_mode(std::string_view name) {
  if (name == "saf" || name == "store-and-forward") {
    return SwitchingMode::kStoreAndForward;
  }
  if (name == "wormhole") return SwitchingMode::kWormhole;
  throw std::invalid_argument("parse_switching_mode: unknown mode \"" +
                              std::string(name) + '"');
}

std::string arbitration_policy_name(ArbitrationPolicy policy) {
  switch (policy) {
    case ArbitrationPolicy::kRoundRobin:
      return "rr";
    case ArbitrationPolicy::kWeighted:
      return "weighted";
    case ArbitrationPolicy::kPriority:
      return "priority";
  }
  throw std::invalid_argument("arbitration_policy_name: unknown policy");
}

ArbitrationPolicy parse_arbitration_policy(std::string_view name) {
  if (name == "rr" || name == "round-robin") {
    return ArbitrationPolicy::kRoundRobin;
  }
  if (name == "weighted") return ArbitrationPolicy::kWeighted;
  if (name == "priority") return ArbitrationPolicy::kPriority;
  throw std::invalid_argument(
      "parse_arbitration_policy: unknown policy \"" + std::string(name) +
      "\" (expected rr, weighted or priority)");
}

const std::vector<PathPolicy>& all_path_policies() {
  static const std::vector<PathPolicy> policies = {
      PathPolicy::kHash, PathPolicy::kAdaptive, PathPolicy::kLooping};
  return policies;
}

std::string path_policy_name(PathPolicy policy) {
  switch (policy) {
    case PathPolicy::kHash:
      return "hash";
    case PathPolicy::kAdaptive:
      return "adaptive";
    case PathPolicy::kLooping:
      return "looping";
  }
  throw std::invalid_argument("path_policy_name: unknown policy");
}

PathPolicy parse_path_policy(std::string_view name) {
  for (const PathPolicy policy : all_path_policies()) {
    if (path_policy_name(policy) == name) return policy;
  }
  std::string valid;
  for (const PathPolicy policy : all_path_policies()) {
    if (!valid.empty()) valid += ", ";
    valid += path_policy_name(policy);
  }
  throw std::invalid_argument("parse_path_policy: unknown policy \"" +
                              std::string(name) + "\" (valid: " + valid +
                              ')');
}

std::size_t latency_histogram_buckets(const SimConfig& config,
                                      int stages) noexcept {
  if (config.latency_histogram_buckets > 0) {
    return config.latency_histogram_buckets;
  }
  // Auto-scale: 1-cycle buckets covering ~64 full-traversal serialization
  // delays, clamped to the run length (a delivered latency can never
  // exceed total cycles plus the tail's serialization) and to
  // [1024, 65536] — the floor keeps every historic config's histogram
  // shape (and therefore its pinned quantiles) exactly as it was.
  std::uint64_t want = 64ULL * static_cast<std::uint64_t>(stages) *
                       static_cast<std::uint64_t>(config.packet_length);
  const std::uint64_t total = config.warmup_cycles + config.measure_cycles;
  if (want > total + 2) want = total + 2;
  if (want < 1024) want = 1024;
  if (want > 65536) want = 65536;
  return static_cast<std::size_t>(want);
}

void CreditConfig::validate(SwitchingMode mode, std::size_t lanes) const {
  if (!enabled) return;  // disabled leaves the remaining fields inert
  // The in-flight ring allocates latency slots per link; cap it well
  // above any physically meaningful round-trip.
  constexpr std::uint64_t kMaxReturnLatency = 4096;
  if (return_latency > kMaxReturnLatency) {
    throw std::invalid_argument(
        "CreditConfig: return_latency must be <= " +
        std::to_string(kMaxReturnLatency) + ", got " +
        std::to_string(return_latency));
  }
  // Flit::sl is a 6-bit field; 64 service levels / weight classes.
  constexpr std::size_t kMaxServiceLevels = 64;
  if (sl_map.size() > kMaxServiceLevels) {
    throw std::invalid_argument(
        "CreditConfig: at most " + std::to_string(kMaxServiceLevels) +
        " service levels, got " + std::to_string(sl_map.size()));
  }
  if (weights.size() > kMaxServiceLevels) {
    throw std::invalid_argument(
        "CreditConfig: at most " + std::to_string(kMaxServiceLevels) +
        " VL weights, got " + std::to_string(weights.size()));
  }
  for (const unsigned w : weights) {
    if (w == 0 || w > (1U << 20)) {
      throw std::invalid_argument(
          "CreditConfig: weights must be within [1, 2^20], got " +
          std::to_string(w));
    }
  }
  for (const unsigned vl : sl_map) {
    if (mode == SwitchingMode::kWormhole && vl >= lanes) {
      throw std::invalid_argument(
          "CreditConfig: sl_map entry " + std::to_string(vl) +
          " names a virtual lane but the config has only " +
          std::to_string(lanes) + " lanes");
    }
    if (vl >= kMaxServiceLevels) {
      throw std::invalid_argument(
          "CreditConfig: sl_map entry " + std::to_string(vl) +
          " exceeds the VL/weight-class bound of " +
          std::to_string(kMaxServiceLevels - 1));
    }
  }
}

void SimConfig::validate() const {
  if (!std::isfinite(injection_rate) || injection_rate < 0.0 ||
      injection_rate > 1.0) {
    throw std::invalid_argument(
        "SimConfig: injection_rate must be finite and within [0, 1], got " +
        std::to_string(injection_rate));
  }
  if (packet_length == 0) {
    throw std::invalid_argument(
        "SimConfig: packet_length must be positive (a packet has at least "
        "one flit)");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument(
        "SimConfig: queue_capacity must be positive (store-and-forward "
        "FIFOs need at least one packet slot)");
  }
  if (lanes == 0) {
    throw std::invalid_argument(
        "SimConfig: lanes must be positive (wormhole ports need at least "
        "one virtual channel)");
  }
  if (lane_depth == 0) {
    throw std::invalid_argument(
        "SimConfig: lane_depth must be positive (a lane buffers at least "
        "one flit)");
  }
  if (sim_threads == 0) {
    throw std::invalid_argument(
        "SimConfig: sim_threads must be positive (1 = serial; > 1 shards "
        "the simulation across a worker team)");
  }
  if (sim_threads > kMaxSimThreads) {
    throw std::invalid_argument(
        "SimConfig: sim_threads must be <= " +
        std::to_string(kMaxSimThreads) + ", got " +
        std::to_string(sim_threads) +
        " (the sharded driver clamps to the cell count, but a team this "
        "large is surely a typo)");
  }
  burst.validate();
  credits.validate(mode, lanes);
  workload.validate();
}

namespace {

/// The all-pairs schedule budget: recovering or verifying a schedule
/// visits every (source, sink) pair, O(cells^2 * stages), which past
/// ~4096 cells stops being seconds and becomes an apparent hang (radix 2
/// wants stages <= 13, radix 8 stages <= 5, radix 16 stages <= 4).
constexpr std::uint32_t kMaxDigitScheduleCells = 4096;

/// radix^schedule.digit[s] per stage.
std::vector<std::uint32_t> digit_scales(const min::DigitSchedule& schedule,
                                        int radix) {
  std::vector<std::uint32_t> scales;
  scales.reserve(schedule.digit.size());
  for (const int digit : schedule.digit) {
    std::uint32_t scale = 1;
    for (int i = 0; i < digit; ++i) scale *= static_cast<std::uint32_t>(radix);
    scales.push_back(scale);
  }
  return scales;
}

}  // namespace

Engine::Engine(const min::MIDigraph& network,
               const min::DigitSchedule& schedule)
    : wiring_(min::FlatWiring::from_digraph(network)) {
  finish_unipath(&schedule, /*verify=*/true);
}

Engine::Engine(const min::MIDigraph& network)
    : wiring_(min::FlatWiring::from_digraph(network)) {
  finish_unipath(nullptr, /*verify=*/false);
}

Engine::Engine(const min::KaryMIDigraph& network)
    : wiring_(min::FlatWiring::from_kary(network)) {
  // A construction-attached closed-form schedule (the built-in
  // omega/flip/baseline kinds) is the construction's contract, pinned
  // against min::verify_digit_schedule at small sizes in the tests, so
  // it is shape-checked only and skips the budget.
  finish_unipath(network.schedule() ? &*network.schedule() : nullptr,
                 /*verify=*/false);
}

void Engine::finish_unipath(const min::DigitSchedule* given, bool verify) {
  const int radix = wiring_.radix();
  if ((given == nullptr || verify) &&
      wiring_.cells_per_stage() > kMaxDigitScheduleCells) {
    throw std::invalid_argument(
        "Engine: radix-" + std::to_string(radix) + " fabric with " +
        std::to_string(wiring_.cells_per_stage()) +
        " cells per stage exceeds the digit-schedule recovery budget (" +
        std::to_string(kMaxDigitScheduleCells) +
        " cells; recovering or verifying a schedule visits every "
        "source-sink pair); reduce stages or radix, or build an omega, "
        "flip or baseline fabric through min::build_kary_network, which "
        "attaches its closed-form schedule and skips recovery");
  }
  if (given != nullptr) {
    min::check_schedule_shape(*given, wiring_.stages(), radix,
                              "Engine: schedule");
    if (verify && !min::verify_digit_schedule(wiring_, *given)) {
      throw std::invalid_argument("Engine: schedule does not route network");
    }
    digit_schedule_ = *given;
  } else {
    auto schedule = min::find_digit_schedule(wiring_);
    if (!schedule.has_value()) {
      throw std::invalid_argument(
          "Engine: network has no destination-digit schedule");
    }
    digit_schedule_ = std::move(*schedule);
  }
  digit_scale_ = digit_scales(digit_schedule_, radix);
  terminals_ = static_cast<std::uint64_t>(radix) * wiring_.cells_per_stage();
  address_digits_ = wiring_.stages();
  logical_radix_ = radix;
  logical_cells_ = wiring_.cells_per_stage();
}

Engine::Engine(min::MultiPathWiring fabric)
    : wiring_(fabric.wiring()), fabric_(std::move(fabric)) {
  digit_schedule_ = fabric_->schedule();
  free_stage_ = fabric_->free_stage();
  terminals_ = fabric_->logical_terminals();
  address_digits_ = fabric_->logical_stages();
  logical_radix_ = fabric_->logical_radix();
  logical_cells_ = fabric_->logical_cells();
  planes_ = fabric_->planes();
  dilation_ = fabric_->dilation();
  // Digit scales in the *logical* radix (identity placeholders at free
  // connections scale by digit 0, harmlessly — route_group checks the
  // free flag first).
  digit_scale_ = digit_scales(digit_schedule_, logical_radix_);
}

const min::MultiPathWiring& Engine::fabric() const {
  if (!fabric_.has_value()) {
    throw std::logic_error(
        "Engine::fabric: this engine was not built from a MultiPathWiring");
  }
  return *fabric_;
}

unsigned Engine::route_port_general(int stage,
                                    std::uint32_t dest_terminal) const {
  const int stages = wiring_.stages();
  if (stage < 0 || stage >= stages) {
    throw std::invalid_argument("Engine::route_port: stage out of range");
  }
  const auto radix = static_cast<unsigned>(wiring_.radix());
  if (stage + 1 == stages) return dest_terminal % radix;
  const std::uint32_t dest_cell = dest_terminal / radix;
  const unsigned value =
      (dest_cell / digit_scale_[static_cast<std::size_t>(stage)]) % radix;
  return digit_schedule_
      .port_of_value[static_cast<std::size_t>(stage)][value];
}

namespace {

/// The store-and-forward discipline as a policy over FabricCore: packets
/// move as units between fixed-capacity per-port FIFOs (PacketRing), a
/// packet of L flits serializes over each link for L cycles, and a packet
/// must have fully arrived (arrival_complete) before it may advance. The
/// bool axes are PolicyBase's (policy.hpp); for this discipline:
///
/// \tparam kFaulted masked arcs accept nothing, packets reroute via the
/// next surviving port, and dead switches drain their queues into
/// packets_dropped_faulted.
///
/// \tparam kCredits link-level credits over a CreditLedger — one credit
/// per downstream FIFO slot, consumed per push, returned per pop with the
/// configured latency — plus the pluggable output-port arbitration
/// (round-robin / quantum-weighted / strict-priority over the SL->VL
/// classes packets carry). The false instantiation keeps the idealized
/// handshake (senders probe downstream FIFO occupancy directly).
///
/// \tparam kMultiPath routes *logical* destination addresses over a
/// MultiPathWiring's physical fabric — every hop selects within the
/// engine's route_group by the configured PathPolicy (deterministic
/// hash, least-occupancy adaptive, or looping-precomputed Benes
/// settings), injection picks a plane on replicated fabrics, and
/// ejection arbitrates per logical terminal across planes * radix
/// physical buffers. Faulted multipath runs re-select within the
/// surviving group members first (path_reroutes) before falling back to
/// the unipath out-of-group detour (packets_rerouted).
///
/// With an observer, every HOL-blocked head-cycle is attributed to
/// exactly one StallCause in the same scan that counts
/// hol_blocking_cycles, so the per-cause counters always sum to it.
template <bool kFaulted, bool kBinary, bool kCredits, bool kMultiPath>
class StoreAndForwardPolicy
    : public PolicyBase<
          StoreAndForwardPolicy<kFaulted, kBinary, kCredits, kMultiPath>,
          kFaulted, kBinary, kCredits, kMultiPath> {
  using Base =
      PolicyBase<StoreAndForwardPolicy<kFaulted, kBinary, kCredits,
                                       kMultiPath>,
                 kFaulted, kBinary, kCredits, kMultiPath>;
  friend Base;
  using Base::core_, Base::radix_, Base::length_, Base::obs_,
      Base::link_counter_, Base::shard_pool_delta_, Base::faulted_,
      Base::credit_config_, Base::credits_, Base::service_levels_,
      Base::credit_links_, Base::lradix_, Base::lcells_, Base::planes_,
      Base::dilation_, Base::path_policy_, Base::looping_, Base::free_stage_,
      Base::stall_cause_;
  using Base::radix, Base::arb_candidate, Base::arb_grant,
      Base::record_delivery, Base::mark_stall, Base::clear_stall_causes,
      Base::attribute_stall, Base::traced, Base::maybe_commit_probe,
      Base::trace_inject, Base::trace_stage_cross, Base::trace_reroute,
      Base::trace_eject, Base::eject_stall_phase, Base::drain_phase,
      Base::advance_phase, Base::stall_phase;

 public:
  explicit StoreAndForwardPolicy(const PolicyContext& ctx)
      : Base(ctx,
             static_cast<std::size_t>(ctx.core.stages()) * ctx.core.ports(),
             static_cast<std::uint32_t>(ctx.core.config().queue_capacity),
             static_cast<unsigned>(ctx.core.wiring().radix()),
             ctx.core.ports()),
        queues_(ctx.workspace.packet_ring(
            static_cast<std::size_t>(ctx.core.stages()) * ctx.core.ports(),
            ctx.core.config().queue_capacity)),
        link_busy_until_(
            static_cast<std::size_t>(ctx.core.stages() - 1) *
                ctx.core.ports(),
            0),
        source_busy_until_(ctx.core.terminals(), 0),
        eject_busy_until_(ctx.core.ports(), 0),
        queue_moved_(ctx.core.ports(), 0),
        total_packet_slots_(
            static_cast<double>(ctx.core.stages()) *
            static_cast<double>(ctx.core.ports()) *
            static_cast<double>(ctx.core.config().queue_capacity)) {
    if constexpr (kFaulted) {
      dead_cells_.resize(static_cast<std::size_t>(core_.stages() - 1));
      for (int s = 0; s + 1 < core_.stages(); ++s) {
        for (std::uint32_t x = 0; x < core_.cells(); ++x) {
          if (faulted_.dead_switch(s, x)) {
            dead_cells_[static_cast<std::size_t>(s)].push_back(x);
          }
        }
      }
    }
  }

  /// Inject at the first stage: terminal t feeds slot t % r of cell
  /// t / r. A terminal whose source declines (bursty-OFF, gate miss,
  /// closed window, no due trace record) makes no attempt at all.
  void inject(std::uint64_t cycle, bool measuring) {
    if constexpr (kMultiPath) {
      inject_multipath(cycle, measuring);
      return;
    }
    // Injection is always a serial phase: log 0 is the sink in both
    // drivers, keeping trace bytes thread-count invariant.
    obs::WorkerLog* const log = kernel_log<false>(obs_, nullptr);
    for (std::uint64_t t = 0; t < core_.terminals(); ++t) {
      if (!core_.attempt(cycle, static_cast<std::uint32_t>(t))) continue;
      if (source_busy_until_[t] > cycle) continue;  // still serializing
      if (measuring) ++core_.result.offered;
      const std::size_t q = queue_index(0, t);
      if constexpr (kCredits) {
        // The terminal's injection link runs the same credit handshake
        // as the internal links: no credit, no attempt consumed.
        if (!credits_->available(q)) {
          if (measuring) {
            ++core_.result.credit_stall_cycles;
            if (log != nullptr) [[unlikely]] ++log->credit[0];
          }
          continue;
        }
      } else {
        if (queues_.full(q)) continue;  // dropped at source
      }
      const workload::Injection packet =
          core_.draw(cycle, static_cast<std::uint32_t>(t));
      const std::uint32_t dest = packet.dest;
      const auto src = static_cast<std::uint32_t>(t);
      if constexpr (kCredits) {
        queues_.push(q, dest, src, cycle, cycle + length_,
                     static_cast<unsigned>(t % service_levels_), packet.tag);
        credits_->consume(q);
      } else {
        queues_.push(q, dest, src, cycle, cycle + length_, 0, packet.tag);
      }
      core_.commit(cycle, static_cast<std::uint32_t>(t), packet);
      source_busy_until_[t] = cycle + length_;
      if (measuring) {
        ++core_.result.injected;
        core_.result.flits_injected += length_;
        if (log != nullptr) [[unlikely]] trace_inject(*log, cycle, src, dest);
      }
    }
  }

  [[nodiscard]] std::uint64_t buffered_flits() const {
    // Sharded kernels bypass the pool-wide counter (it would be a data
    // race); shard_finish folds the per-worker deltas back in here.
    // Serial runs keep the delta at 0.
    return static_cast<std::uint64_t>(
               static_cast<std::int64_t>(queues_.total_packets()) +
               shard_pool_delta_) *
           length_;
  }

  /// Worker 0 adds the pool-occupancy samples (they need the pool-wide
  /// total, which sharded runs carry as counter + per-worker deltas).
  void shard_sample_reduce(std::uint64_t cycle,
                           const std::vector<ShardWorker>& workers) {
    std::int64_t delta = 0;
    for (const ShardWorker& wk : workers) delta += wk.pool_delta;
    const double packets = static_cast<double>(
        static_cast<std::int64_t>(queues_.total_packets()) + delta);
    core_.result.lane_occupancy.add(packets / total_packet_slots_);
    if constexpr (kCredits) {
      if (core_.result.vl_occupancy.empty()) {
        core_.result.vl_occupancy.resize(1);
      }
      core_.result.vl_occupancy[0].add(packets / total_packet_slots_);
    }
    maybe_commit_probe(cycle);
  }

 private:
  /// Eject at the last stage over cells [\p x0, \p x1): each terminal
  /// link (cell x, port d % r) carries one packet per packet_length
  /// cycles, arbitrated between the r input slots. Ejection consumes no
  /// credits (terminals always sink), but popping returns the slot's
  /// credit upstream. The serial instantiation (kShard = false) runs the
  /// full range and mutates the core result directly; the sharded one
  /// accumulates order-independent counters into \p wk's partial and
  /// defers the order-sensitive latency adds into its event buffer for
  /// worker 0 to replay in range order. Every structure touched is owned
  /// by the range: last-stage queues, eject pacing, arbiters and
  /// queue_moved_ slots all index by (cell, port).
  template <bool kShard>
  void eject_impl(std::uint64_t cycle, bool measuring, std::uint32_t x0,
                  std::uint32_t x1, [[maybe_unused]] ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    const int last = core_.stages() - 1;
    const unsigned r = radix();
    std::fill(queue_moved_.begin() + static_cast<std::size_t>(x0) * r,
              queue_moved_.begin() + static_cast<std::size_t>(x1) * r, 0);
    if (log != nullptr) [[unlikely]] {
      clear_stall_causes(static_cast<std::size_t>(x0) * r,
                         static_cast<std::size_t>(x1) * r);
    }
    for (std::uint32_t x = x0; x < x1; ++x) {
      for (unsigned port = 0; port < r; ++port) {
        if (eject_busy_until_[x * r + port] > cycle) continue;
        // Strict priority scans the ready candidates first: only a
        // head of the highest ready weight class may win this cycle.
        [[maybe_unused]] unsigned need_weight = 0;
        if constexpr (kCredits) {
          if (credit_config_->arbitration == ArbitrationPolicy::kPriority) {
            for (unsigned slot = 0; slot < r; ++slot) {
              const std::size_t q = queue_index(last, x * r + slot);
              if (queues_.empty(q) || queues_.front_arrival(q) > cycle ||
                  (queues_.front_dest(q) % r) != port) {
                continue;
              }
              need_weight = std::max(need_weight, front_weight(q));
            }
          }
        }
        for (unsigned probe = 0; probe < r; ++probe) {
          const unsigned slot = arb_candidate(last, x * r + port, probe);
          const std::size_t q = queue_index(last, x * r + slot);
          if (queues_.empty(q)) continue;
          if (queues_.front_arrival(q) > cycle) continue;
          if ((queues_.front_dest(q) % r) != port) continue;
          [[maybe_unused]] unsigned vl = 0;
          if constexpr (kCredits) {
            vl = credit_config_->vl_of_sl(queues_.front_sl(q));
            if (credit_config_->arbitration ==
                    ArbitrationPolicy::kPriority &&
                credit_config_->weight(vl) != need_weight) {
              continue;
            }
          }
          const std::uint32_t dest = queues_.front_dest(q);
          const std::uint64_t inject_cycle = queues_.front_inject(q);
          const std::uint32_t src = queues_.front_src(q);
          const unsigned tag = queues_.front_tag(q);
          [[maybe_unused]] unsigned sl = 0;
          if constexpr (kCredits) sl = queues_.front_sl(q);
          shard_pop<kShard>(q, wk);
          if constexpr (kCredits) credits_->give_back(q, cycle);
          eject_busy_until_[x * r + port] = cycle + length_;
          arb_grant(last, x * r + port, slot, vl);
          queue_moved_[x * r + slot] = 1;
          if (core_.wants_deliveries()) {
            // Every delivery feeds the source, warmup included (see
            // workload::Delivery); eject_cycle counts the serialization
            // tail so reply latencies match the packet-latency clock.
            hand_delivery<kShard>(
                core_, wk,
                workload::Delivery{
                    src, dest, x * r + port, inject_cycle, cycle + length_,
                    static_cast<std::uint8_t>(tag),
                    measuring &&
                        inject_cycle >= core_.config().warmup_cycles});
          }
          if (log != nullptr) [[unlikely]] {
            if (measuring) log->hops[static_cast<std::size_t>(last)] += length_;
            trace_eject(*log, cycle, inject_cycle, src, dest, true, true);
          }
          if (measuring && inject_cycle >= core_.config().warmup_cycles) {
            res.flits_delivered += length_;
            const double latency =
                static_cast<double>(cycle - inject_cycle + length_);
            if constexpr (kShard) {
              wk->saf_events.push_back(SafEjectEvent{latency, sl, src, dest});
            } else {
              record_delivery(latency, sl, src, dest);
            }
            if constexpr (kFaulted) {
              // A detoured packet ejects at whatever terminal the
              // surviving route reached; count the miss.
              if ((dest / r) != x) ++res.packets_misdelivered;
            }
          }
          break;
        }
      }
    }
    if (measuring) {
      account_blocking(last, cycle, static_cast<std::size_t>(x0) * r,
                       static_cast<std::size_t>(x1) * r, res, log,
                       eject_stall_phase(0));
    }
  }

  /// Advance stage \p s over cells [\p x0, \p x1): round-robin between
  /// the r input slots per output port, honoring link serialization and
  /// downstream FIFO capacity. Safe to run on disjoint ranges
  /// concurrently: a cell pops only its own stage-s queues and pushes
  /// only through its own down-arcs, and the perfect matching makes each
  /// stage-(s+1) queue reachable from exactly one upstream cell —
  /// single-writer without locks. Credit handshakes stay range-local too
  /// (consume/available index the pushed target, give_back the popped
  /// queue). The routing-schedule reads (and, faulted, the mask probes)
  /// are hoisted to per-stage registers: signed/unsigned TBAA cannot
  /// prove the queue stores below don't alias the Engine's schedule
  /// fields, so an Engine::route_port call in the probe loop would reload
  /// them per probe.
  template <bool kShard>
  void advance_stage_impl(int s, std::uint64_t cycle, bool measuring,
                          std::uint32_t x0, std::uint32_t x1,
                          [[maybe_unused]] ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    const unsigned r = radix();
    const auto down = core_.wiring().down_stage(s);
    const std::size_t link_base =
        static_cast<std::size_t>(s) * core_.ports();
    // Per-stage routing constants (interior stages only — the last
    // stage ejects, in eject()).
    unsigned bit_shift = 0;
    unsigned bit_invert = 0;
    std::uint32_t digit_scale = 1;
    const std::uint32_t* port_of_value = nullptr;
    if constexpr (kBinary) {
      const min::DigitSchedule& schedule = core_.engine().digit_schedule();
      bit_shift = static_cast<unsigned>(
          schedule.digit[static_cast<std::size_t>(s)]);
      bit_invert = schedule.port_of_value[static_cast<std::size_t>(s)][0];
    } else {
      digit_scale = core_.engine().route_digit_scale(s);
      port_of_value = core_.engine()
                          .digit_schedule()
                          .port_of_value[static_cast<std::size_t>(s)]
                          .data();
    }
    // Faulted: arc bit index = stage base + the record's array offset
    // (FaultMask::arc_index's layout), computed with the policy's folded
    // radix so binary instantiations keep shift indexing.
    [[maybe_unused]] std::size_t arc_base = 0;
    [[maybe_unused]] const fault::FaultMask* mask = nullptr;
    if constexpr (kFaulted) {
      drain_dead_switches<kShard>(s, cycle, measuring, x0, x1, wk);
      arc_base = static_cast<std::size_t>(s) * core_.ports();
      mask = &faulted_.mask();
    }
    std::fill(queue_moved_.begin() + static_cast<std::size_t>(x0) * r,
              queue_moved_.begin() + static_cast<std::size_t>(x1) * r, 0);
    if (log != nullptr) [[unlikely]] {
      clear_stall_causes(static_cast<std::size_t>(x0) * r,
                         static_cast<std::size_t>(x1) * r);
    }
    for (std::uint32_t x = x0; x < x1; ++x) {
      for (unsigned port = 0; port < r; ++port) {
        if constexpr (kFaulted) {
          if (mask->faulted_index(arc_base + x * r + port)) {
            continue;  // dead link
          }
        }
        if (link_busy_until_[link_base + x * r + port] > cycle) {
          continue;  // still serializing the previous packet
        }
        // Strict priority scans the ready candidates first: only a
        // head of the highest weight class routed here may win.
        [[maybe_unused]] unsigned need_weight = 0;
        if constexpr (kCredits) {
          if (credit_config_->arbitration == ArbitrationPolicy::kPriority) {
            for (unsigned slot = 0; slot < r; ++slot) {
              const std::size_t q = queue_index(s, x * r + slot);
              if (queues_.empty(q) || queues_.front_arrival(q) > cycle) {
                continue;
              }
              const std::uint32_t dest = queues_.front_dest(q);
              unsigned desired;
              if constexpr (kBinary) {
                desired = (((dest >> 1) >> bit_shift) & 1U) ^ bit_invert;
              } else {
                desired = port_of_value[((dest / r) / digit_scale) % r];
              }
              if constexpr (kFaulted) {
                if (usable_port(mask, arc_base + x * r, desired) !=
                    static_cast<int>(port)) {
                  continue;
                }
              } else {
                if (desired != port) continue;
              }
              need_weight = std::max(need_weight, front_weight(q));
            }
          }
        }
        for (unsigned probe = 0; probe < r; ++probe) {
          const unsigned slot = arb_candidate(s, x * r + port, probe);
          const std::size_t q = queue_index(s, x * r + slot);
          if (queues_.empty(q)) continue;
          if (queues_.front_arrival(q) > cycle) continue;
          const std::uint32_t dest = queues_.front_dest(q);
          unsigned desired;
          if constexpr (kBinary) {
            desired = (((dest >> 1) >> bit_shift) & 1U) ^ bit_invert;
          } else {
            desired = port_of_value[((dest / r) / digit_scale) % r];
          }
          if constexpr (kFaulted) {
            // Degraded-mode adaptive routing: follow the schedule while
            // its arc survives, detour through the next surviving port
            // otherwise (the FaultedWiring::usable_port scan, with the
            // folded radix).
            if (usable_port(mask, arc_base + x * r, desired) !=
                static_cast<int>(port)) {
              continue;
            }
          } else {
            if (desired != port) continue;
          }
          [[maybe_unused]] unsigned vl = 0;
          if constexpr (kCredits) {
            vl = credit_config_->vl_of_sl(queues_.front_sl(q));
            if (credit_config_->arbitration ==
                    ArbitrationPolicy::kPriority &&
                credit_config_->weight(vl) != need_weight) {
              continue;
            }
          }
          // One packed read gives the child cell and its input slot —
          // and the record value r * child + slot IS the downstream
          // port-slot index (the identity the packing was chosen for).
          const std::uint32_t record = down[x * r + port];
          const std::size_t target = queue_index(s + 1, record);
          if constexpr (kCredits) {
            // Credit handshake in place of the occupancy probe. Every
            // candidate at this output port sends into the same
            // downstream FIFO, so zero credits stalls the port outright
            // (conservation guarantees credits <= free slots; the push
            // below can never overflow).
            if (!credits_->available(target)) {
              if (measuring) ++res.credit_stall_cycles;
              if (log != nullptr) [[unlikely]] {
                mark_stall(x * r + slot, obs::StallCause::kZeroCredits);
                if (measuring) ++log->credit[static_cast<std::size_t>(s)];
              }
              break;
            }
          } else {
            if (queues_.full(target)) {
              if (log != nullptr) [[unlikely]] {
                mark_stall(x * r + slot, obs::StallCause::kDownstreamFull);
              }
              continue;
            }
          }
          const std::uint64_t inject_cycle = queues_.front_inject(q);
          const std::uint32_t src = queues_.front_src(q);
          const unsigned tag = queues_.front_tag(q);
          if constexpr (kCredits) {
            shard_push<kShard>(target, dest, src, inject_cycle,
                               cycle + length_, queues_.front_sl(q), tag, wk);
            credits_->consume(target);
            shard_pop<kShard>(q, wk);
            credits_->give_back(q, cycle);
          } else {
            shard_push<kShard>(target, dest, src, inject_cycle,
                               cycle + length_, 0, tag, wk);
            shard_pop<kShard>(q, wk);
          }
          queue_moved_[x * r + slot] = 1;
          link_busy_until_[link_base + x * r + port] = cycle + length_;
          arb_grant(s, x * r + port, slot, vl);
          if (log != nullptr) [[unlikely]] {
            if (measuring) log->hops[static_cast<std::size_t>(s)] += length_;
            trace_stage_cross(*log, s, cycle, inject_cycle, src, dest);
          }
          if constexpr (kFaulted) {
            if (port != desired && measuring &&
                inject_cycle >= core_.config().warmup_cycles) {
              ++res.packets_rerouted;
              if (log != nullptr) [[unlikely]] {
                trace_reroute(*log, s, cycle, inject_cycle, src, dest,
                              advance_phase(s));
              }
            }
          }
          break;
        }
      }
    }
    if (measuring) {
      if constexpr (kFaulted) {
        if (log != nullptr) [[unlikely]] {
          refine_masked_arc_stalls(s, cycle, static_cast<std::size_t>(x0) * r,
                                   static_cast<std::size_t>(x1) * r, mask,
                                   arc_base, bit_shift, bit_invert,
                                   digit_scale, port_of_value);
        }
      }
      account_blocking(s, cycle, static_cast<std::size_t>(x0) * r,
                       static_cast<std::size_t>(x1) * r, res, log,
                       stall_phase(s));
    }
  }

  /// The sample kernel: worker \p w of \p n audits its share of the
  /// link-pacing array and (credit runs) the per-link conservation
  /// invariant — per FIFO, credits held + credit messages in flight +
  /// packets buffered must equal the capacity exactly, and credits may
  /// never exceed it. Violations are counted, not thrown — a sweep
  /// reports them as data. The pool-occupancy series — which needs the
  /// pool-wide total — is added by the serial instantiation here and by
  /// worker 0's sample reduce in sharded runs.
  template <bool kShard>
  void sample_impl(std::uint64_t cycle, std::size_t w, std::size_t n,
                   [[maybe_unused]] ShardWorker* wk) {
    [[maybe_unused]] SimResult& res = shard_result<kShard>(core_, wk);
    const auto [l0, l1] = shard_range(link_busy_until_.size(), w, n);
    std::uint64_t busy = 0;
    for (std::size_t i = l0; i < l1; ++i) {
      if (link_busy_until_[i] > cycle) ++busy;
    }
    if constexpr (kShard) {
      wk->link_counter += busy;
    } else {
      link_counter_ += busy;
      core_.result.lane_occupancy.add(
          static_cast<double>(queues_.total_packets()) / total_packet_slots_);
    }
    if constexpr (kCredits) {
      const auto [q0, q1] = shard_range(credit_links_, w, n);
      const std::uint64_t capacity = credits_->capacity();
      for (std::size_t q = q0; q < q1; ++q) {
        const std::uint64_t held = credits_->credits(q);
        if (held > capacity ||
            held + credits_->in_flight(q) + queues_.count(q) != capacity) {
          ++res.credit_violations;
        }
      }
      if constexpr (!kShard) {
        // Store-and-forward has one physical buffer per link, so the
        // per-VL view collapses to a single lane-0 occupancy series.
        if (core_.result.vl_occupancy.empty()) {
          core_.result.vl_occupancy.resize(1);
        }
        core_.result.vl_occupancy[0].add(
            static_cast<double>(queues_.total_packets()) /
            total_packet_slots_);
      }
    }
    if constexpr (!kShard) maybe_commit_probe(cycle);
  }

  /// Worker 0's replay of one worker's deferred ejection statistics.
  void replay_ejections(ShardWorker& wk, std::uint64_t /*cycle*/,
                        bool /*measuring*/) {
    for (const SafEjectEvent& event : wk.saf_events) {
      record_delivery(event.latency, event.sl, event.src, event.dst);
    }
    wk.saf_events.clear();
  }

  [[nodiscard]] HeadPacket head_packet(std::size_t q) const {
    return {queues_.front_inject(q), queues_.front_src(q),
            queues_.front_dest(q)};
  }

  [[nodiscard]] std::uint32_t port_occupancy(int s, std::size_t port) const {
    return queues_.count(queue_index(s, port));
  }

  /// Pool ops that keep the shared total (serial) or a per-worker delta
  /// (sharded) — queue state is identical either way.
  template <bool kShard>
  void shard_pop(std::size_t q, [[maybe_unused]] ShardWorker* wk) {
    if constexpr (kShard) {
      queues_.pop_unc(q);
      --wk->pool_delta;
    } else {
      queues_.pop(q);
    }
  }
  template <bool kShard>
  void shard_push(std::size_t q, std::uint32_t dest, std::uint32_t src,
                  std::uint64_t inject_cycle, std::uint64_t arrival,
                  unsigned sl, unsigned tag, [[maybe_unused]] ShardWorker* wk) {
    if constexpr (kShard) {
      queues_.push_unc(q, dest, src, inject_cycle, arrival, sl, tag);
      ++wk->pool_delta;
    } else {
      queues_.push(q, dest, src, inject_cycle, arrival, sl, tag);
    }
  }

  /// Multipath ejection over logical cells [\p lx0, \p lx1): logical
  /// terminal lx * lr + j arbitrates over the planes * radix physical
  /// last-stage buffers of its logical cell (a packet may arrive on any
  /// arc of its dilation group and in any plane), per-terminal
  /// round-robin so no plane starves.
  template <bool kShard>
  void eject_multipath_impl(std::uint64_t cycle, bool measuring,
                            std::uint32_t lx0, std::uint32_t lx1,
                            [[maybe_unused]] ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    const int last = core_.stages() - 1;
    const unsigned r = radix_;
    const unsigned candidates = planes_ * r;
    // A logical-cell range touches one contiguous physical run per plane
    // (cells plane * lcells + [lx0, lx1)); clear and account exactly
    // those — disjoint across workers, and the full array at full range.
    for (unsigned plane = 0; plane < planes_; ++plane) {
      const std::size_t run =
          (static_cast<std::size_t>(plane) * lcells_) * r;
      std::fill(queue_moved_.begin() + run + static_cast<std::size_t>(lx0) * r,
                queue_moved_.begin() + run + static_cast<std::size_t>(lx1) * r,
                0);
      if (log != nullptr) [[unlikely]] {
        clear_stall_causes(run + static_cast<std::size_t>(lx0) * r,
                           run + static_cast<std::size_t>(lx1) * r);
      }
    }
    for (std::uint32_t lx = lx0; lx < lx1; ++lx) {
      for (unsigned j = 0; j < lradix_; ++j) {
        const std::size_t term =
            static_cast<std::size_t>(lx) * lradix_ + j;
        if (eject_busy_until_[term] > cycle) continue;
        RoundRobin& arb = core_.eject_arbiter(term);
        for (unsigned probe = 0; probe < candidates; ++probe) {
          const unsigned c = arb.candidate(probe);
          const std::uint32_t cell = (c / r) * lcells_ + lx;
          const unsigned slot = c % r;
          const std::size_t port_index =
              static_cast<std::size_t>(cell) * r + slot;
          const std::size_t q = queue_index(last, port_index);
          if (queues_.empty(q)) continue;
          if (queues_.front_arrival(q) > cycle) continue;
          const std::uint32_t dest = queues_.front_dest(q);
          if (dest % lradix_ != j) continue;
          const std::uint64_t inject_cycle = queues_.front_inject(q);
          const std::uint32_t src = queues_.front_src(q);
          const unsigned tag = queues_.front_tag(q);
          shard_pop<kShard>(q, wk);
          eject_busy_until_[term] = cycle + length_;
          arb.grant(c);
          queue_moved_[port_index] = 1;
          if (core_.wants_deliveries()) {
            hand_delivery<kShard>(
                core_, wk,
                workload::Delivery{
                    src, dest, static_cast<std::uint32_t>(term),
                    inject_cycle, cycle + length_,
                    static_cast<std::uint8_t>(tag),
                    measuring &&
                        inject_cycle >= core_.config().warmup_cycles});
          }
          if (log != nullptr) [[unlikely]] {
            if (measuring) log->hops[static_cast<std::size_t>(last)] += length_;
            trace_eject(*log, cycle, inject_cycle, src, dest, true, true);
          }
          if (measuring && inject_cycle >= core_.config().warmup_cycles) {
            res.flits_delivered += length_;
            const double latency =
                static_cast<double>(cycle - inject_cycle + length_);
            if constexpr (kShard) {
              wk->saf_events.push_back(SafEjectEvent{latency, 0, src, dest});
            } else {
              record_delivery(latency, 0, src, dest);
            }
            if constexpr (kFaulted) {
              if ((dest / lradix_) != lx) {
                ++res.packets_misdelivered;
              }
            }
          }
          break;
        }
      }
    }
    if (measuring) {
      for (unsigned plane = 0; plane < planes_; ++plane) {
        const std::size_t run =
            (static_cast<std::size_t>(plane) * lcells_) * r;
        account_blocking(last, cycle, run + static_cast<std::size_t>(lx0) * r,
                         run + static_cast<std::size_t>(lx1) * r, res, log,
                         eject_stall_phase(plane));
      }
    }
  }

  /// Multipath advancement: each head packet resolves one physical
  /// out-port by selecting within the engine's equivalent-path group
  /// (select_multipath_port); the rest of the hop — arbitration, link
  /// serialization, downstream capacity — matches the unipath loop.
  template <bool kShard>
  void advance_stage_multipath_impl(int s, std::uint64_t cycle,
                                    bool measuring, std::uint32_t x0,
                                    std::uint32_t x1,
                                    [[maybe_unused]] ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    const unsigned r = radix_;
    const auto down = core_.wiring().down_stage(s);
    const std::size_t link_base =
        static_cast<std::size_t>(s) * core_.ports();
    // Per-stage routing constants: the free flag, the forced-group
    // schedule reads, and the looping settings row (free stages of a
    // kLooping run only).
    const bool free = free_stage_[static_cast<std::size_t>(s)] != 0;
    std::uint32_t digit_scale = 1;
    const std::uint32_t* port_of_value = nullptr;
    if (!free) {
      digit_scale = core_.engine().route_digit_scale(s);
      port_of_value = core_.engine()
                          .digit_schedule()
                          .port_of_value[static_cast<std::size_t>(s)]
                          .data();
    }
    const std::uint8_t* settings =
        (free && path_policy_ == PathPolicy::kLooping)
            ? looping_->settings[static_cast<std::size_t>(s)].data()
            : nullptr;
    [[maybe_unused]] std::size_t arc_base = 0;
    [[maybe_unused]] const fault::FaultMask* mask = nullptr;
    if constexpr (kFaulted) {
      drain_dead_switches<kShard>(s, cycle, measuring, x0, x1, wk);
      arc_base = static_cast<std::size_t>(s) * core_.ports();
      mask = &faulted_.mask();
    }
    std::fill(queue_moved_.begin() + static_cast<std::size_t>(x0) * r,
              queue_moved_.begin() + static_cast<std::size_t>(x1) * r, 0);
    if (log != nullptr) [[unlikely]] {
      clear_stall_causes(static_cast<std::size_t>(x0) * r,
                         static_cast<std::size_t>(x1) * r);
    }
    for (std::uint32_t x = x0; x < x1; ++x) {
      for (unsigned port = 0; port < r; ++port) {
        if constexpr (kFaulted) {
          if (mask->faulted_index(arc_base + x * r + port)) {
            continue;  // dead link
          }
        }
        if (link_busy_until_[link_base + x * r + port] > cycle) {
          continue;  // still serializing the previous packet
        }
        for (unsigned probe = 0; probe < r; ++probe) {
          const unsigned slot = arb_candidate(s, x * r + port, probe);
          const std::size_t q = queue_index(s, x * r + slot);
          if (queues_.empty(q)) continue;
          if (queues_.front_arrival(q) > cycle) continue;
          const std::uint32_t dest = queues_.front_dest(q);
          unsigned base = 0;
          unsigned count = r;
          if (!free) {
            base = port_of_value[((dest / lradix_) / digit_scale) % lradix_] *
                   dilation_;
            count = dilation_;
          }
          int reroute_kind = 0;
          const int chosen = select_multipath_port(
              s, x, slot, dest, queues_.front_inject(q), base, count,
              settings, down.data(), mask, arc_base, reroute_kind);
          if (chosen != static_cast<int>(port)) continue;
          const std::uint32_t record = down[x * r + port];
          const std::size_t target = queue_index(s + 1, record);
          if (queues_.full(target)) {
            if (log != nullptr) [[unlikely]] {
              mark_stall(x * r + slot, obs::StallCause::kDownstreamFull);
            }
            continue;
          }
          const std::uint64_t inject_cycle = queues_.front_inject(q);
          const std::uint32_t src = queues_.front_src(q);
          shard_push<kShard>(target, dest, src, inject_cycle, cycle + length_,
                             0, queues_.front_tag(q), wk);
          shard_pop<kShard>(q, wk);
          queue_moved_[x * r + slot] = 1;
          link_busy_until_[link_base + x * r + port] = cycle + length_;
          arb_grant(s, x * r + port, slot, 0);
          if (log != nullptr) [[unlikely]] {
            if (measuring) log->hops[static_cast<std::size_t>(s)] += length_;
            trace_stage_cross(*log, s, cycle, inject_cycle, src, dest);
          }
          if constexpr (kFaulted) {
            if (measuring && inject_cycle >= core_.config().warmup_cycles) {
              if (reroute_kind == 1) ++res.path_reroutes;
              if (reroute_kind == 2) ++res.packets_rerouted;
              if (reroute_kind != 0 && log != nullptr) {
                trace_reroute(*log, s, cycle, inject_cycle, src, dest,
                              advance_phase(s));
              }
            }
          }
          break;
        }
      }
    }
    if (measuring) {
      if constexpr (kFaulted) {
        if (log != nullptr) [[unlikely]] {
          refine_masked_group_stalls(s, cycle,
                                     static_cast<std::size_t>(x0) * r,
                                     static_cast<std::size_t>(x1) * r, mask,
                                     arc_base, free, digit_scale,
                                     port_of_value);
        }
      }
      account_blocking(s, cycle, static_cast<std::size_t>(x0) * r,
                       static_cast<std::size_t>(x1) * r, res, log,
                       stall_phase(s));
    }
  }

  /// Multipath injection: logical terminal t feeds physical input slot
  /// (t % lr) * dilation of its logical cell, choosing a plane by the
  /// path policy on replicated fabrics (hash of the destination, or the
  /// emptiest injection FIFO).
  void inject_multipath(std::uint64_t cycle, bool measuring) {
    obs::WorkerLog* const log = kernel_log<false>(obs_, nullptr);
    const unsigned r = radix_;
    for (std::uint64_t t = 0; t < core_.terminals(); ++t) {
      if (!core_.attempt(cycle, static_cast<std::uint32_t>(t))) continue;
      if (source_busy_until_[t] > cycle) continue;  // still serializing
      if (measuring) ++core_.result.offered;
      const std::uint32_t lcell =
          static_cast<std::uint32_t>(t) / lradix_;
      const unsigned slot =
          (static_cast<unsigned>(t) % lradix_) * dilation_;
      // Drawn before the plane pick (the hashed policy keys on the
      // destination); a refused attempt discards the draw, historically.
      const workload::Injection packet =
          core_.draw(cycle, static_cast<std::uint32_t>(t));
      const std::uint32_t dest = packet.dest;
      std::size_t q = 0;
      bool accepted = false;
      if (planes_ == 1) {
        q = queue_index(0, static_cast<std::size_t>(lcell) * r + slot);
        accepted = !queues_.full(q);
      } else if (path_policy_ == PathPolicy::kAdaptive) {
        std::uint32_t best = 0;
        for (unsigned plane = 0; plane < planes_; ++plane) {
          const std::size_t candidate = queue_index(
              0, (static_cast<std::size_t>(plane) * lcells_ + lcell) * r +
                     slot);
          if (queues_.full(candidate)) continue;
          if (!accepted || queues_.count(candidate) < best) {
            best = queues_.count(candidate);
            q = candidate;
            accepted = true;
          }
        }
      } else {
        const unsigned plane = static_cast<unsigned>(
            path_mix(dest, cycle, t) % planes_);
        q = queue_index(
            0, (static_cast<std::size_t>(plane) * lcells_ + lcell) * r +
                   slot);
        accepted = !queues_.full(q);
      }
      if (!accepted) continue;  // dropped at source
      const auto src = static_cast<std::uint32_t>(t);
      queues_.push(q, dest, src, cycle, cycle + length_, 0, packet.tag);
      core_.commit(cycle, static_cast<std::uint32_t>(t), packet);
      source_busy_until_[t] = cycle + length_;
      if (measuring) {
        ++core_.result.injected;
        core_.result.flits_injected += length_;
        if (log != nullptr) [[unlikely]] trace_inject(*log, cycle, src, dest);
      }
    }
  }

  /// The path-selection seam: the physical out-port the head packet at
  /// (cell \p x, input slot \p slot) of stage \p s takes, chosen within
  /// the equivalent-path group [\p base, \p base + \p count) by the
  /// configured policy. Faulted: a masked choice re-selects among the
  /// surviving group members (\p reroute_kind = 1); a fully-masked group
  /// falls back to the unipath out-of-group detour (\p reroute_kind =
  /// 2); -1 means the switch is dead (no surviving out-arc at all).
  [[nodiscard]] int select_multipath_port(
      int s, std::uint32_t x, unsigned slot, std::uint32_t dest,
      std::uint64_t inject_cycle, unsigned base, unsigned count,
      const std::uint8_t* settings, const std::uint32_t* down,
      [[maybe_unused]] const fault::FaultMask* mask,
      [[maybe_unused]] std::size_t arc_base, int& reroute_kind) {
    const unsigned r = radix_;
    reroute_kind = 0;
    if (path_policy_ == PathPolicy::kAdaptive) {
      // Least-occupancy: the group member with the emptiest downstream
      // FIFO (ties to the lowest port). Masked arcs are simply not
      // candidates — adaptivity subsumes in-group re-selection.
      int chosen = -1;
      std::uint32_t best = 0;
      for (unsigned k = 0; k < count; ++k) {
        const unsigned p = base + k;
        if constexpr (kFaulted) {
          if (mask->faulted_index(arc_base + x * r + p)) continue;
        }
        const std::uint32_t occupancy =
            queues_.count(queue_index(s + 1, down[x * r + p]));
        if (chosen < 0 || occupancy < best) {
          best = occupancy;
          chosen = static_cast<int>(p);
        }
      }
      if (chosen >= 0) return chosen;
    } else {
      unsigned desired;
      if (settings != nullptr) {
        desired = settings[static_cast<std::size_t>(x) * lradix_ + slot];
      } else if (count == 1) {
        desired = base;
      } else {
        desired = base + static_cast<unsigned>(
                             path_mix(dest, inject_cycle,
                                      static_cast<std::uint64_t>(s)) %
                             count);
      }
      if constexpr (kFaulted) {
        if (mask->faulted_index(arc_base + x * r + desired)) {
          const int member = surviving_group_member(*mask, arc_base + x * r,
                                                    base, count, desired);
          if (member >= 0) {
            reroute_kind = 1;
            return member;
          }
        } else {
          return static_cast<int>(desired);
        }
      } else {
        return static_cast<int>(desired);
      }
    }
    // Whole group masked: out-of-group detour through any surviving
    // port, exactly the unipath degraded mode.
    if constexpr (kFaulted) {
      const int port = usable_port(mask, arc_base + x * r, base);
      if (port >= 0) reroute_kind = 2;
      return port;
    }
    return static_cast<int>(base);
  }

  [[nodiscard]] std::size_t queue_index(int s, std::size_t i) const {
    return static_cast<std::size_t>(s) * core_.ports() + i;
  }

  /// Weight class of the packet at the head of queue \p q (kCredits
  /// only: resolves SL -> VL -> weight through the config tables).
  [[nodiscard]] unsigned front_weight(std::size_t q) const {
    return credit_config_->weight(
        credit_config_->vl_of_sl(queues_.front_sl(q)));
  }

  /// fault::FaultedWiring::usable_port with the policy's folded radix:
  /// \p arc_row is the mask bit index of the switch's port-0 out-arc
  /// (FaultMask::arc_index layout). Returns the scheduled port while its
  /// arc survives, else the next surviving port, else -1.
  [[nodiscard]] int usable_port(const fault::FaultMask* mask,
                                std::size_t arc_row,
                                unsigned desired) const {
    if (!mask->faulted_index(arc_row + desired)) {
      return static_cast<int>(desired);
    }
    const unsigned r = radix();
    unsigned port = desired;
    for (unsigned step = 1; step < r; ++step) {
      ++port;
      if (port >= r) port -= r;
      if (!mask->faulted_index(arc_row + port)) {
        return static_cast<int>(port);
      }
    }
    return -1;
  }

  /// Discard every fully-arrived packet queued at a dead switch of stage
  /// \p s whose cell falls in [x0, x1) (all out-arcs masked: no degraded
  /// route exists). Flits still serializing in stay buffered until their
  /// arrival completes.
  template <bool kShard>
  void drain_dead_switches(int s, std::uint64_t cycle, bool measuring,
                           std::uint32_t x0, std::uint32_t x1,
                           ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    const unsigned r = radix();
    for (const std::uint32_t x : dead_cells_[static_cast<std::size_t>(s)]) {
      if (x < x0 || x >= x1) continue;
      for (unsigned slot = 0; slot < r; ++slot) {
        const std::size_t q = queue_index(s, x * r + slot);
        while (!queues_.empty(q) && queues_.front_arrival(q) <= cycle) {
          const std::uint64_t inject_cycle = queues_.front_inject(q);
          if (log != nullptr) [[unlikely]] {
            const std::uint32_t src = queues_.front_src(q);
            if (traced(src, inject_cycle)) {
              const std::uint32_t dest = queues_.front_dest(q);
              const std::uint8_t phase = drain_phase(s);
              trace_push(*log, cycle, inject_cycle, src, dest,
                         obs::TraceEventKind::kDrop,
                         static_cast<std::uint8_t>(s), 0, phase);
              trace_push(*log, cycle, inject_cycle, src, dest,
                         obs::TraceEventKind::kStageEnd,
                         static_cast<std::uint8_t>(s), 0, phase);
              trace_push(*log, cycle, inject_cycle, src, dest,
                         obs::TraceEventKind::kPacketEnd, 0, 0, phase);
            }
          }
          shard_pop<kShard>(q, wk);
          // A drained slot returns its credit like any other pop, so
          // the ledger closes exactly even across dead switches.
          if constexpr (kCredits) credits_->give_back(q, cycle);
          if (measuring && inject_cycle >= core_.config().warmup_cycles) {
            ++res.packets_dropped_faulted;
            res.flits_dropped_faulted += length_;
          }
        }
      }
    }
  }

  /// Head-of-line blocking: a fully-arrived head in [p0, p1) that did
  /// not move. The port range always matches the caller's writer
  /// partition of queue_moved_, so sharded totals equal the serial scan.
  /// With an observer (\p log non-null) the same scan charges each
  /// blocked head to its recorded StallCause. The loop is unswitched by
  /// hand: a call inside the plain scan would force its loop invariants
  /// out of registers.
  void account_blocking(int s, std::uint64_t cycle, std::size_t p0,
                        std::size_t p1, SimResult& res, obs::WorkerLog* log,
                        std::uint8_t phase) {
    const auto blocked = [&](std::size_t i) {
      const std::size_t q = queue_index(s, i);
      return !queues_.empty(q) && queues_.front_arrival(q) <= cycle &&
             queue_moved_[i] == 0;
    };
    if (log == nullptr) [[likely]] {
      for (std::size_t i = p0; i < p1; ++i) {
        if (blocked(i)) ++res.hol_blocking_cycles;
      }
      return;
    }
    for (std::size_t i = p0; i < p1; ++i) {
      if (blocked(i)) {
        ++res.hol_blocking_cycles;
        attribute_stall(s, cycle, i, queue_index(s, i), res, *log, phase);
      }
    }
  }

  /// Observability && kFaulted: re-attribute still-unexplained blocked
  /// heads whose scheduled arc is fault-masked — they stall waiting on
  /// detour capacity, which is a fault symptom, not plain congestion.
  /// Runs just before account_blocking with the stage's hoisted routing
  /// registers.
  void refine_masked_arc_stalls(int s, std::uint64_t cycle, std::size_t p0,
                                std::size_t p1, const fault::FaultMask* mask,
                                std::size_t arc_base, unsigned bit_shift,
                                unsigned bit_invert, std::uint32_t digit_scale,
                                const std::uint32_t* port_of_value) {
    const unsigned r = radix();
    for (std::size_t i = p0; i < p1; ++i) {
      if (queue_moved_[i] != 0 || stall_cause_[i] != 0) continue;
      const std::size_t q = queue_index(s, i);
      if (queues_.empty(q) || queues_.front_arrival(q) > cycle) continue;
      const std::uint32_t dest = queues_.front_dest(q);
      unsigned desired;
      if constexpr (kBinary) {
        desired = (((dest >> 1) >> bit_shift) & 1U) ^ bit_invert;
      } else {
        desired = port_of_value[((dest / r) / digit_scale) % r];
      }
      if (mask->faulted_index(arc_base + (i / r) * r + desired)) {
        mark_stall(i, obs::StallCause::kMaskedArc);
      }
    }
  }

  /// The multipath counterpart: masked-arc only when the head's entire
  /// equivalent-path group is masked (a surviving member would have been
  /// a normal candidate — that is congestion, not a fault stall).
  void refine_masked_group_stalls(int s, std::uint64_t cycle, std::size_t p0,
                                  std::size_t p1, const fault::FaultMask* mask,
                                  std::size_t arc_base, bool free,
                                  std::uint32_t digit_scale,
                                  const std::uint32_t* port_of_value) {
    const unsigned r = radix_;
    for (std::size_t i = p0; i < p1; ++i) {
      if (queue_moved_[i] != 0 || stall_cause_[i] != 0) continue;
      const std::size_t q = queue_index(s, i);
      if (queues_.empty(q) || queues_.front_arrival(q) > cycle) continue;
      unsigned base = 0;
      unsigned count = r;
      if (!free) {
        const std::uint32_t dest = queues_.front_dest(q);
        base = port_of_value[((dest / lradix_) / digit_scale) % lradix_] *
               dilation_;
        count = dilation_;
      }
      bool all_masked = true;
      for (unsigned k = 0; k < count; ++k) {
        if (!mask->faulted_index(arc_base + (i / r) * r + base + k)) {
          all_masked = false;
          break;
        }
      }
      if (all_masked) mark_stall(i, obs::StallCause::kMaskedArc);
    }
  }

  PacketRing& queues_;
  std::vector<std::uint64_t> link_busy_until_;
  std::vector<std::uint64_t> source_busy_until_;
  std::vector<std::uint64_t> eject_busy_until_;
  std::vector<std::uint8_t> queue_moved_;
  double total_packet_slots_;
  std::vector<std::vector<std::uint32_t>> dead_cells_;  // kFaulted only
};

}  // namespace

SimResult Engine::run(Pattern pattern, const SimConfig& config,
                      const fault::FaultMask* mask,
                      SimWorkspace* workspace) const {
  if (config.mode == SwitchingMode::kWormhole) {
    return WormholeSimulator(*this).run(pattern, config, EjectObserver(),
                                        mask, workspace);
  }
  return dispatch_policy<StoreAndForwardPolicy>(
      *this, pattern, config, mask, workspace,
      DisciplineShape{"Engine::run", 1,
                      static_cast<double>(config.queue_capacity)});
}


}  // namespace mineq::sim
