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
  const auto bound = [](const char* field, std::size_t value,
                        std::size_t max) {
    if (value > max) {
      throw std::invalid_argument(std::string("SimConfig: ") + field +
                                  " must be <= " + std::to_string(max) +
                                  ", got " + std::to_string(value));
    }
  };
  bound("lanes", lanes, kMaxLanes);
  bound("lane_depth", lane_depth, kMaxLaneDepth);
  bound("queue_capacity", queue_capacity, kMaxQueueCapacity);
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
/// must have fully arrived (arrival_complete) before it may advance. A
/// packet's out-port at each stage is resolved once, when it is pushed
/// into that stage's FIFO (the route byte, see route()), so arbitration
/// only reads it. The bool axes are PolicyBase's (policy.hpp); for this
/// discipline:
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
/// exactly one StallCause in the same pass that counts
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
      Base::stall_cause_, Base::requests_;
  using Base::radix, Base::arb_start, Base::arb_grant, Base::eject_start,
      Base::eject_grant, Base::eject_offset, Base::top_weight,
      Base::account_cell, Base::record_delivery,
      Base::mark_stall, Base::clear_stall_causes, Base::attribute_stall,
      Base::traced, Base::maybe_commit_probe, Base::trace_inject,
      Base::trace_stage_cross, Base::trace_reroute, Base::trace_eject,
      Base::eject_stall_phase, Base::drain_phase, Base::advance_phase,
      Base::stall_phase, Base::stage_routing, Base::scheduled_port,
      Base::group_size;
  using StageRouting = typename Base::StageRouting;

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
    const StageRouting first = stage_routing(0);
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
      const unsigned routed = route(first, t, dest, cycle);
      if constexpr (kCredits) {
        queues_.push(q, dest, src, cycle, cycle + length_, routed,
                     static_cast<unsigned>(t % service_levels_), packet.tag);
        credits_->consume(q);
      } else {
        queues_.push(q, dest, src, cycle, cycle + length_, routed, 0,
                     packet.tag);
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
  // A queued packet's route byte (PacketRing::front_route): its out-port
  // at the queue's stage — the ejection port at the last stage — in the
  // low six bits, resolved once when the packet is pushed: the schedule,
  // the fault detour and the static path policies cannot change while it
  // waits. The top two bits keep a fault-degraded choice's reroute kind
  // for the move to count. Adaptive multipath packets store their path
  // group's first port instead and pick the member when they compete.
  static constexpr unsigned kPortBits = 0x3F;
  static constexpr unsigned kKindShift = 6;
  static constexpr unsigned kInGroup = 1;  ///< counted in path_reroutes
  static constexpr unsigned kDetour = 2;   ///< counted in packets_rerouted

  /// Route byte of out-port \p port (-1: dead switch, never competes)
  /// reached with reroute kind \p kind.
  [[nodiscard]] static unsigned pack_route(int port, unsigned kind) {
    return port < 0 ? 0 : static_cast<unsigned>(port) | kind << kKindShift;
  }

  /// The route byte of a packet for \p dest, injected at \p inject_cycle,
  /// entering input \p port (cell * r + slot) of stage sr.stage. Unipath:
  /// the scheduled port while its arc survives, else the next surviving
  /// port (kDetour). Multipath: select_multipath_port's choice. A dead
  /// switch has no route; its packets drain before they could compete.
  [[nodiscard]] unsigned route(const StageRouting& sr, std::size_t port,
                               std::uint32_t dest,
                               std::uint64_t inject_cycle) const {
    const unsigned r = radix();
    if constexpr (kMultiPath) {
      if (sr.ejects) return dest % lradix_;
      const unsigned base = scheduled_port(sr, dest);
      if (path_policy_ == PathPolicy::kAdaptive) return base;
      int kind = 0;
      const int chosen = select_multipath_port(
          sr, static_cast<std::uint32_t>(port / r),
          static_cast<unsigned>(port % r), dest, inject_cycle, base, kind);
      return pack_route(chosen, static_cast<unsigned>(kind));
    } else {
      if (sr.ejects) return dest % r;
      const unsigned desired = scheduled_port(sr, dest);
      if constexpr (kFaulted) {
        const int chosen = usable_port(sr.arc_base + (port - port % r),
                                       desired);
        return pack_route(chosen, static_cast<unsigned>(chosen) == desired
                                      ? 0
                                      : kDetour);
      }
      return desired;
    }
  }

  /// The route in force for the ready head of queue \p q at input slot
  /// \p slot of cell \p x, stage sr.stage: the stored route byte, or for
  /// the adaptive policy the group member whose downstream FIFO is
  /// emptiest right now.
  [[nodiscard]] unsigned head_route(const StageRouting& sr, std::uint32_t x,
                                    unsigned slot, std::size_t q) const {
    const unsigned routed = queues_.front_route(q);
    if constexpr (kMultiPath) {
      if (path_policy_ == PathPolicy::kAdaptive && !sr.ejects) {
        int kind = 0;
        const int chosen =
            select_multipath_port(sr, x, slot, queues_.front_dest(q),
                                  queues_.front_inject(q), routed, kind);
        return pack_route(chosen, static_cast<unsigned>(kind));
      }
    }
    return routed;
  }

  /// Eject at the last stage over logical cells [\p x0, \p x1) (the
  /// physical cells on a unipath fabric): each terminal link carries one
  /// packet per packet_length cycles, arbitrated over the cell's input
  /// buffers — on a multipath fabric over the planes * radix last-stage
  /// buffers of every plane's copy of the cell (a packet may arrive on
  /// any arc of its dilation group and in any plane), with one
  /// round-robin pointer per logical terminal so no plane starves.
  /// Ejection consumes no credits (terminals always sink), but popping
  /// returns the slot's credit upstream. The serial instantiation
  /// (kShard = false) runs the full range and mutates the core result
  /// directly; the sharded one accumulates order-independent counters
  /// into \p wk's partial and defers the order-sensitive latency adds
  /// into its event buffer for worker 0 to replay in range order. Every
  /// structure touched is owned by the range: last-stage queues, eject
  /// pacing and arbiters all index by (logical cell, port).
  template <bool kShard>
  void eject_impl(std::uint64_t cycle, bool measuring, std::uint32_t x0,
                  std::uint32_t x1, [[maybe_unused]] ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    CellRequests& req = cell_requests<kShard>(requests_, wk);
    const int last = core_.stages() - 1;
    const unsigned r = radix();
    const unsigned lr = kMultiPath ? lradix_ : r;
    const unsigned candidates = planes_ * r;
    if (log != nullptr) [[unlikely]] {
      for (unsigned plane = 0; plane < planes_; ++plane) {
        const std::size_t run = static_cast<std::size_t>(plane) * lcells_ * r;
        clear_stall_causes(run + static_cast<std::size_t>(x0) * r,
                           run + static_cast<std::size_t>(x1) * r);
      }
    }
    for (std::uint32_t x = x0; x < x1; ++x) {
      const std::size_t first = static_cast<std::size_t>(x) * r;
      for (unsigned c = 0; c < candidates; ++c) {
        const std::size_t q = queue_index(last, first + eject_offset(c));
        if (queues_.empty(q) || queues_.front_arrival(q) > cycle) continue;
        req.set_ready(c);
        req.request(queues_.front_route(q), c);
      }
      if (req.idle()) continue;  // nothing ready: nothing moves or blocks
      unsigned port;
      while (req.next_port(port)) {
        const std::size_t term = static_cast<std::size_t>(x) * lr + port;
        if (eject_busy_until_[term] > cycle) {
          req.clear_set(port);
          continue;
        }
        [[maybe_unused]] unsigned need_weight = 0;
        if constexpr (kCredits) {
          if (credit_config_->arbitration == ArbitrationPolicy::kPriority) {
            need_weight = top_weight(
                req.set(port), req.words(), [&](unsigned c) {
                  return front_weight(
                      queue_index(last, first + eject_offset(c)));
                });
          }
        }
        const unsigned c = scan_round_robin(
            req.set(port), req.words(), eject_start(term),
            [&]([[maybe_unused]] unsigned c) {
              if constexpr (kCredits) {
                return credit_config_->arbitration !=
                           ArbitrationPolicy::kPriority ||
                       front_weight(queue_index(
                           last, first + eject_offset(c))) == need_weight;
              }
              return true;
            });
        req.clear_set(port);
        if (c == kNoCandidate) continue;
        const std::size_t q = queue_index(last, first + eject_offset(c));
        const std::uint32_t dest = queues_.front_dest(q);
        const std::uint64_t inject_cycle = queues_.front_inject(q);
        const std::uint32_t src = queues_.front_src(q);
        const unsigned tag = queues_.front_tag(q);
        [[maybe_unused]] unsigned sl = 0;
        [[maybe_unused]] unsigned vl = 0;
        if constexpr (kCredits) {
          sl = queues_.front_sl(q);
          vl = credit_config_->vl_of_sl(sl);
        }
        shard_pop<kShard>(q, wk);
        if constexpr (kCredits) credits_->give_back(q, cycle);
        eject_busy_until_[term] = cycle + length_;
        eject_grant(term, c, vl);
        req.moved(c);
        // The buffer's next packet may eject through a later port.
        if (!queues_.empty(q) && queues_.front_arrival(q) <= cycle &&
            queues_.front_route(q) > port) {
          req.request(queues_.front_route(q), c);
        }
        if (core_.wants_deliveries()) {
          // Every delivery feeds the source, warmup included (see
          // workload::Delivery); eject_cycle counts the serialization
          // tail so reply latencies match the packet-latency clock.
          hand_delivery<kShard>(
              core_, wk,
              workload::Delivery{
                  src, dest, static_cast<std::uint32_t>(term), inject_cycle,
                  cycle + length_, static_cast<std::uint8_t>(tag),
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
            if ((dest / lr) != x) ++res.packets_misdelivered;
          }
        }
      }
      // Planes own consecutive candidate runs and one stall phase each.
      unsigned plane = 0;
      unsigned plane_end = r;
      account_cell(req, measuring, res, log, [&](unsigned c) {
        while (c >= plane_end) {
          ++plane;
          plane_end += r;
        }
        const std::size_t i = first + eject_offset(c);
        attribute_stall(last, cycle, i, queue_index(last, i), res, *log,
                        eject_stall_phase(plane));
      });
    }
  }

  /// Advance stage \p s over cells [\p x0, \p x1) in one pass per cell:
  /// each ready head requests its out-port, and each port grants the
  /// first request in round-robin order that link serialization,
  /// downstream capacity (or credits) and strict priority let through.
  /// A FIFO whose head moved may send its next packet through a later
  /// port in the same cycle. Safe to run on disjoint ranges concurrently:
  /// a cell pops only its own stage-s queues and pushes only through its
  /// own down-arcs, and the perfect matching makes each stage-(s+1) queue
  /// reachable from exactly one upstream cell — single-writer without
  /// locks. Credit handshakes stay range-local too (consume/available
  /// index the pushed target, give_back the popped queue).
  template <bool kShard>
  void advance_stage_impl(int s, std::uint64_t cycle, bool measuring,
                          std::uint32_t x0, std::uint32_t x1,
                          [[maybe_unused]] ShardWorker* wk) {
    SimResult& res = shard_result<kShard>(core_, wk);
    obs::WorkerLog* const log = kernel_log<kShard>(obs_, wk);
    CellRequests& req = cell_requests<kShard>(requests_, wk);
    const unsigned r = radix();
    const auto down = core_.wiring().down_stage(s);
    const std::size_t link_base =
        static_cast<std::size_t>(s) * core_.ports();
    const StageRouting here = stage_routing(s);
    const StageRouting next = stage_routing(s + 1);
    if constexpr (kFaulted) {
      drain_dead_switches<kShard>(s, cycle, measuring, x0, x1, wk);
    }
    if (log != nullptr) [[unlikely]] {
      clear_stall_causes(static_cast<std::size_t>(x0) * r,
                         static_cast<std::size_t>(x1) * r);
    }
    for (std::uint32_t x = x0; x < x1; ++x) {
      const std::size_t first = static_cast<std::size_t>(x) * r;
      for (unsigned slot = 0; slot < r; ++slot) {
        const std::size_t q = queue_index(s, first + slot);
        if (queues_.empty(q) || queues_.front_arrival(q) > cycle) continue;
        req.set_ready(slot);
        req.request(head_route(here, x, slot, q) & kPortBits, slot);
      }
      if (req.idle()) continue;  // nothing ready: nothing moves or blocks
      unsigned port;
      while (req.next_port(port)) {
        const std::size_t link = link_base + first + port;
        if (link_busy_until_[link] > cycle) {
          req.clear_set(port);
          continue;  // still serializing the previous packet
        }
        [[maybe_unused]] unsigned need_weight = 0;
        if constexpr (kCredits) {
          if (credit_config_->arbitration == ArbitrationPolicy::kPriority) {
            need_weight = top_weight(req.set(port), req.words(),
                                     [&](unsigned c) {
                                       return front_weight(
                                           queue_index(s, first + c));
                                     });
          }
        }
        // One packed read gives the child cell and its input slot — and
        // the record value r * child + slot IS the downstream port-slot
        // index (the identity the packing was chosen for).
        const std::uint32_t record = down[first + port];
        const std::size_t target = queue_index(s + 1, record);
        bool stalled = false;
        const unsigned c = scan_round_robin(
            req.set(port), req.words(), arb_start(s, first + port),
            [&](unsigned c) {
              if constexpr (kCredits) {
                if (credit_config_->arbitration ==
                        ArbitrationPolicy::kPriority &&
                    front_weight(queue_index(s, first + c)) != need_weight) {
                  return false;
                }
                // Credit handshake in place of the occupancy probe. Every
                // candidate at this output port sends into the same
                // downstream FIFO, so zero credits stalls the port
                // outright (conservation guarantees credits <= free
                // slots; the push can never overflow).
                if (!credits_->available(target)) {
                  if (measuring) ++res.credit_stall_cycles;
                  if (log != nullptr) [[unlikely]] {
                    mark_stall(first + c, obs::StallCause::kZeroCredits);
                    if (measuring) ++log->credit[static_cast<std::size_t>(s)];
                  }
                  stalled = true;
                }
              } else {
                if (queues_.full(target)) {
                  if (log != nullptr) [[unlikely]] {
                    mark_stall(first + c, obs::StallCause::kDownstreamFull);
                  }
                  return false;
                }
              }
              return true;
            });
        [[maybe_unused]] const std::uint64_t requesters = req.set(port)[0];
        req.clear_set(port);
        if (c == kNoCandidate || stalled) continue;
        const std::size_t q = queue_index(s, first + c);
        const std::uint32_t dest = queues_.front_dest(q);
        const std::uint64_t inject_cycle = queues_.front_inject(q);
        const std::uint32_t src = queues_.front_src(q);
        const unsigned tag = queues_.front_tag(q);
        [[maybe_unused]] const unsigned kind =
            head_route(here, x, c, q) >> kKindShift;
        [[maybe_unused]] unsigned vl = 0;
        if constexpr (kCredits) {
          vl = credit_config_->vl_of_sl(queues_.front_sl(q));
          shard_push<kShard>(target, dest, src, inject_cycle,
                             cycle + length_,
                             route(next, record, dest, inject_cycle),
                             queues_.front_sl(q), tag, wk);
          credits_->consume(target);
          shard_pop<kShard>(q, wk);
          credits_->give_back(q, cycle);
        } else {
          shard_push<kShard>(target, dest, src, inject_cycle,
                             cycle + length_,
                             route(next, record, dest, inject_cycle), 0, tag,
                             wk);
          shard_pop<kShard>(q, wk);
        }
        req.moved(c);
        link_busy_until_[link] = cycle + length_;
        arb_grant(s, first + port, c, vl);
        if (log != nullptr) [[unlikely]] {
          if (measuring) log->hops[static_cast<std::size_t>(s)] += length_;
          trace_stage_cross(*log, s, cycle, inject_cycle, src, dest);
        }
        if constexpr (kFaulted) {
          if (kind != 0 && measuring &&
              inject_cycle >= core_.config().warmup_cycles) {
            if (kind == kInGroup) ++res.path_reroutes;
            if (kind == kDetour) ++res.packets_rerouted;
            if (log != nullptr) [[unlikely]] {
              trace_reroute(*log, s, cycle, inject_cycle, src, dest,
                            advance_phase(s));
            }
          }
        }
        if constexpr (kMultiPath) {
          // The push made this port's FIFO fuller: the adaptive heads
          // that lost it may now prefer a later member of their group.
          if (path_policy_ == PathPolicy::kAdaptive) {
            const std::uint64_t losers =
                requesters & ~(std::uint64_t{1} << c);
            for_each_member(&losers, 1, [&](unsigned slot) {
              request_later(req, here, x, slot, port);
            });
          }
        }
        // The FIFO's next packet may leave through a later port.
        if (!queues_.empty(q) && queues_.front_arrival(q) <= cycle) {
          request_later(req, here, x, c, port);
        }
      }
      account_cell(req, measuring, res, log, [&](unsigned c) {
        const std::size_t i = first + c;
        const std::size_t q = queue_index(s, i);
        if constexpr (kFaulted) {
          // A head routed around a masked arc (unipath: its scheduled
          // arc; multipath: its whole path group) stalls on a fault
          // symptom, not plain congestion.
          if (stall_cause_[i] == 0 &&
              head_route(here, x, c, q) >> kKindShift == kDetour) {
            mark_stall(i, obs::StallCause::kMaskedArc);
          }
        }
        attribute_stall(s, cycle, i, q, res, *log, stall_phase(s));
      });
    }
  }

  /// Re-request input \p slot of cell \p x for its head's port if that
  /// port is still to be served this cycle (above \p served).
  void request_later(CellRequests& req, const StageRouting& here,
                     std::uint32_t x, unsigned slot, unsigned served) const {
    const unsigned port =
        head_route(here, x, slot,
                   queue_index(here.stage, x * radix() + slot)) &
        kPortBits;
    if (port > served) req.request(port, slot);
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
                  unsigned routed, unsigned sl, unsigned tag,
                  [[maybe_unused]] ShardWorker* wk) {
    if constexpr (kShard) {
      queues_.push_unc(q, dest, src, inject_cycle, arrival, routed, sl, tag);
      ++wk->pool_delta;
    } else {
      queues_.push(q, dest, src, inject_cycle, arrival, routed, sl, tag);
    }
  }

  /// Multipath injection: logical terminal t feeds physical input slot
  /// (t % lr) * dilation of its logical cell, choosing a plane by the
  /// path policy on replicated fabrics (hash of the destination, or the
  /// emptiest injection FIFO).
  void inject_multipath(std::uint64_t cycle, bool measuring) {
    obs::WorkerLog* const log = kernel_log<false>(obs_, nullptr);
    const unsigned r = radix_;
    const StageRouting first = stage_routing(0);
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
      std::size_t port = 0;
      bool accepted = false;
      if (planes_ == 1) {
        port = static_cast<std::size_t>(lcell) * r + slot;
        accepted = !queues_.full(queue_index(0, port));
      } else if (path_policy_ == PathPolicy::kAdaptive) {
        std::uint32_t best = 0;
        for (unsigned plane = 0; plane < planes_; ++plane) {
          const std::size_t candidate =
              (static_cast<std::size_t>(plane) * lcells_ + lcell) * r + slot;
          const std::size_t q = queue_index(0, candidate);
          if (queues_.full(q)) continue;
          if (!accepted || queues_.count(q) < best) {
            best = queues_.count(q);
            port = candidate;
            accepted = true;
          }
        }
      } else {
        const unsigned plane = static_cast<unsigned>(
            path_mix(dest, cycle, t) % planes_);
        port = (static_cast<std::size_t>(plane) * lcells_ + lcell) * r + slot;
        accepted = !queues_.full(queue_index(0, port));
      }
      if (!accepted) continue;  // dropped at source
      const auto src = static_cast<std::uint32_t>(t);
      queues_.push(queue_index(0, port), dest, src, cycle, cycle + length_,
                   route(first, port, dest, cycle), 0, packet.tag);
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
  /// (cell \p x, input slot \p slot) of stage sr.stage takes, chosen
  /// within the equivalent-path group [\p base, \p base + count) — count
  /// is the dilation at a forced stage, the radix at a free one — by the
  /// configured policy. Faulted: a masked choice re-selects among the
  /// surviving group members (\p reroute_kind = 1); a fully-masked group
  /// falls back to the unipath out-of-group detour (\p reroute_kind =
  /// 2); -1 means the switch is dead (no surviving out-arc at all).
  [[nodiscard]] int select_multipath_port(const StageRouting& sr,
                                          std::uint32_t x, unsigned slot,
                                          std::uint32_t dest,
                                          std::uint64_t inject_cycle,
                                          unsigned base,
                                          int& reroute_kind) const {
    const unsigned r = radix_;
    const unsigned count = group_size(sr);
    [[maybe_unused]] const std::size_t row = sr.arc_base + x * r;
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
          if (faulted_.mask().faulted_index(row + p)) continue;
        }
        const std::uint32_t occupancy =
            queues_.count(queue_index(sr.stage + 1, sr.down[x * r + p]));
        if (chosen < 0 || occupancy < best) {
          best = occupancy;
          chosen = static_cast<int>(p);
        }
      }
      if (chosen >= 0) return chosen;
    } else {
      unsigned desired;
      if (sr.settings != nullptr) {
        desired = sr.settings[static_cast<std::size_t>(x) * lradix_ + slot];
      } else if (count == 1) {
        desired = base;
      } else {
        desired = base + static_cast<unsigned>(
                             path_mix(dest, inject_cycle,
                                      static_cast<std::uint64_t>(sr.stage)) %
                             count);
      }
      if constexpr (kFaulted) {
        if (faulted_.mask().faulted_index(row + desired)) {
          const int member = surviving_group_member(faulted_.mask(), row,
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
      const int port = usable_port(row, base);
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
  [[nodiscard]] int usable_port(std::size_t arc_row, unsigned desired) const {
    const fault::FaultMask& mask = faulted_.mask();
    if (!mask.faulted_index(arc_row + desired)) {
      return static_cast<int>(desired);
    }
    const unsigned r = radix();
    unsigned port = desired;
    for (unsigned step = 1; step < r; ++step) {
      ++port;
      if (port >= r) port -= r;
      if (!mask.faulted_index(arc_row + port)) {
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

  PacketRing& queues_;
  std::vector<std::uint64_t> link_busy_until_;
  std::vector<std::uint64_t> source_busy_until_;
  std::vector<std::uint64_t> eject_busy_until_;
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
