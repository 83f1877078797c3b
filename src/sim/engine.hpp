/// \file engine.hpp
/// \brief Cycle-level simulation over an MI-digraph, in two switching
/// disciplines, at any switch radix.
///
/// The paper's networks are communication fabrics for parallel machines;
/// this engine exercises the constructed topologies end-to-end. Model:
/// input-buffered r x r switches, one flit per link per cycle,
/// destination-digit routing (one min::DigitSchedule at every radix; at
/// r = 2 it reads destination bits), round-robin arbitration on
/// output-port conflicts,
/// Bernoulli injection per terminal (optionally modulated by the
/// two-state bursty on/off process). Everything is deterministic given
/// the seed.
///
/// Both switching disciplines are policies over one shared substrate
/// (FabricCore, fabric.hpp): the stage-packed min::FlatWiring IR, the
/// round-robin arbiters, struct-of-arrays payload pools and the SimResult
/// reporting are common; only the per-switch advancement rule differs:
///  - store-and-forward: packets move as units; a packet of L flits
///    occupies its link for L cycles per hop and must be fully received
///    before it can advance (engine.cpp);
///  - wormhole: packets are decomposed into head/body/tail flits that
///    pipeline across stages through multi-lane (virtual-channel) input
///    buffers (wormhole.cpp, flit.hpp).
///
/// Each policy is additionally instantiated per "is the radix 2" so the
/// historic binary hot loops keep their shift/mask code generation (and
/// stay byte- and speed-identical to the pre-k-ary engine) while the
/// general instantiation divides by the runtime radix.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_mask.hpp"
#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/mi_digraph.hpp"
#include "min/routing.hpp"
#include "multipath/multipath_wiring.hpp"
#include "obs/flow.hpp"
#include "obs/obs.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"
#include "sim/traffic.hpp"
#include "workload/spec.hpp"

namespace mineq::sim {

class SimWorkspace;  // fabric.hpp: reusable cross-run payload-pool arena

/// How packets traverse a switch.
enum class SwitchingMode : std::uint8_t {
  kStoreAndForward,  ///< whole packets hop between per-port FIFOs
  kWormhole,         ///< flits pipeline through multi-lane buffers
};

/// Short token for CLIs and CSV columns ("saf", "wormhole").
[[nodiscard]] std::string switching_mode_name(SwitchingMode mode);

/// Inverse of switching_mode_name (also accepts "store-and-forward").
/// \throws std::invalid_argument on an unknown name.
[[nodiscard]] SwitchingMode parse_switching_mode(std::string_view name);

/// How contending senders share an output port in a credit-mode run
/// (credits disabled always arbitrates round-robin, the historic seam).
enum class ArbitrationPolicy : std::uint8_t {
  kRoundRobin,  ///< rotating priority, the historic grant sequence
  kWeighted,    ///< quantum WRR: the winner keeps top priority for
                ///< weight[vl] consecutive grants before rotating on
  kPriority,    ///< strict: highest weight[vl] among ready candidates
                ///< wins (rotating tie-break); low VLs can starve
};

/// Short token for CLIs and CSV columns ("rr", "weighted", "priority").
[[nodiscard]] std::string arbitration_policy_name(ArbitrationPolicy policy);

/// Inverse of arbitration_policy_name (also accepts "round-robin").
/// \throws std::invalid_argument on an unknown name.
[[nodiscard]] ArbitrationPolicy parse_arbitration_policy(
    std::string_view name);

/// How a packet chooses among the equivalent paths of a multipath fabric
/// (unipath fabrics have nothing to choose; the policy is ignored).
enum class PathPolicy : std::uint8_t {
  kHash,      ///< deterministic spread: hash(dest, inject cycle, stage)
  kAdaptive,  ///< least-occupancy: the emptiest downstream buffer wins
  kLooping,   ///< looping-precomputed permutation routes (Benes +
              ///< SimConfig::permutation only): provably conflict-free
};

/// All path policies, in declaration order.
[[nodiscard]] const std::vector<PathPolicy>& all_path_policies();

/// Short token for CLIs and CSV columns ("hash", "adaptive", "looping").
[[nodiscard]] std::string path_policy_name(PathPolicy policy);

/// Inverse of path_policy_name. The rejection message enumerates the
/// valid tokens.
/// \throws std::invalid_argument on an unknown name.
[[nodiscard]] PathPolicy parse_path_policy(std::string_view name);

/// Link-level credit flow control + virtual-lane arbitration parameters
/// (InfiniBand-style). When enabled, every downstream buffer (a
/// store-and-forward port FIFO, a wormhole lane) grants its capacity in
/// credits up front; a sender consumes one credit per unit it pushes and
/// stalls at zero instead of probing downstream occupancy, and each pop
/// schedules the credit back to the sender return_latency cycles later.
/// Packets carry a service level sl = terminal % service_levels();
/// sl_map maps it to the virtual lane the packet contends (and, for
/// wormhole, travels) on, and weights[vl] parameterizes the kWeighted /
/// kPriority arbiters. With return_latency 0, uniform weights,
/// kRoundRobin and an empty sl_map the credit handshake is provably
/// equivalent to the direct occupancy probes (the eject -> advance ->
/// inject phase order means every downstream pop lands before its
/// upstream probe), and the runs are byte-identical to credits disabled.
struct CreditConfig {
  bool enabled = false;
  /// Cycles a returned credit spends in flight back to the sender.
  std::uint64_t return_latency = 0;
  ArbitrationPolicy arbitration = ArbitrationPolicy::kRoundRobin;
  /// Per-VL arbitration weight; empty = uniform (1). Shorter than the
  /// lane count broadcasts its last entry to the remaining VLs.
  std::vector<unsigned> weights;
  /// Service level -> virtual lane. Empty = one service level pinned to
  /// VL 0 (wormhole worms keep the historic any-idle-lane choice).
  std::vector<unsigned> sl_map;

  /// Service levels packets are tagged with (sl_map entries, or 1).
  [[nodiscard]] std::size_t service_levels() const noexcept {
    return sl_map.empty() ? std::size_t{1} : sl_map.size();
  }
  /// The virtual lane service level \p sl contends on.
  [[nodiscard]] unsigned vl_of_sl(std::size_t sl) const {
    return sl_map.empty() ? 0U : sl_map[sl];
  }
  /// The arbitration weight of virtual lane \p vl (>= 1).
  [[nodiscard]] unsigned weight(std::size_t vl) const noexcept {
    if (weights.empty()) return 1U;
    return weights[vl < weights.size() ? vl : weights.size() - 1];
  }

  /// Reject unusable parameters (only checked when enabled): weights
  /// must be positive, return_latency bounded (the in-flight ring is
  /// allocated per link), sl_map entries must name an existing lane for
  /// \p mode == kWormhole with \p lanes lanes, and at most 64 service
  /// levels fit the flit's sl field.
  /// \throws std::invalid_argument
  void validate(SwitchingMode mode, std::size_t lanes) const;
};

/// Simulation parameters.
struct SimConfig {
  double injection_rate = 0.5;    ///< packets per terminal per cycle
  std::size_t queue_capacity = 4; ///< store-and-forward: per-port FIFO depth
                                  ///< (packets)
  std::uint64_t warmup_cycles = 200;   ///< excluded from latency stats
  std::uint64_t measure_cycles = 2000; ///< measured portion of the run
  std::uint64_t seed = 1;
  SwitchingMode mode = SwitchingMode::kStoreAndForward;
  std::size_t packet_length = 1; ///< flits per packet (both disciplines)
  std::size_t lanes = 1;         ///< wormhole: virtual channels per input port
  std::size_t lane_depth = 4;    ///< wormhole: flits buffered per lane
  /// Two-state Markov on/off probabilities for Pattern::kBursty (other
  /// patterns ignore it); defaults reproduce mean burst 8 / idle 24.
  BurstParams burst;
  /// Link-level credit flow control + VL arbitration; disabled by
  /// default, which dispatches to the historic occupancy-probe policy
  /// instantiations byte for byte.
  CreditConfig credits;
  /// Path selection on multipath fabrics (ignored by unipath engines).
  PathPolicy path_policy = PathPolicy::kHash;
  /// The terminal permutation the kLooping policy realizes (size must be
  /// the logical terminal count). Also consumed as the traffic pattern
  /// when the pattern is Pattern::kPermutation. Ignored otherwise.
  std::vector<std::uint32_t> permutation;
  /// Worker threads sharding THIS simulation (megafabric mode): each
  /// cycle's phases run as range kernels over per-worker cell slices with
  /// barrier handoffs. Results are byte-identical at every value — 1
  /// dispatches to the historic serial policy instantiations, > 1 to the
  /// sharded driver. Thread counts above the stage's cell count are
  /// clamped (extra workers would own empty ranges). Distinct from the
  /// sweep-level thread count: exp::run_sweep divides its own pool by
  /// this value so sweep x sim threads never oversubscribes.
  std::size_t sim_threads = 1;
  /// Observability collectors (obs/obs.hpp). All-defaults means "off":
  /// no Observer is built and every instrumented site's branch stays
  /// untaken — byte for byte the historic results, pinned by the golden
  /// tests. Enabling any collector is passive: simulation results are
  /// bit-identical either way; the run additionally carries
  /// probes/flows/trace payloads and the stall-cause split of
  /// hol_blocking_cycles.
  obs::ObsConfig obs;
  /// The workload driving injection (workload/spec.hpp): the open-loop
  /// synthetic patterns (the default — byte-identical to the historic
  /// hardwired engine), closed-loop request–reply clients, or trace
  /// replay; any of them optionally recording accepted injections back
  /// into the trace format.
  workload::Spec workload;
  /// Latency-histogram bucket count (1-cycle buckets); 0 auto-scales
  /// from the fabric depth: clamp(64 * stages * packet_length, 1024,
  /// 65536), never more than the run is long. Runs whose latencies fit
  /// the historic fixed 1024-bucket ceiling keep identical quantiles;
  /// deeper runs stop clamping p99 at the overflow edge (check
  /// SimResult::latency_overflow_fraction()).
  std::size_t latency_histogram_buckets = 0;

  /// Upper bound on SimConfig::sim_threads (a sanity cap, far above any
  /// real core count — NOT tied to hardware_concurrency, so deterministic
  /// thread-count pins run anywhere).
  static constexpr std::size_t kMaxSimThreads = 256;
  /// Upper bounds on the buffer geometry. A cell arbitrates at most
  /// radix * lanes <= 64 * 64 candidate lanes, and the pools allocate
  /// stages * ports * lanes * depth slots up front, so a typo here must
  /// fail by name instead of in the allocator.
  static constexpr std::size_t kMaxLanes = 64;
  static constexpr std::size_t kMaxLaneDepth = 1024;
  static constexpr std::size_t kMaxQueueCapacity = 1024;

  /// Reject unusable parameters up front, with a message naming the
  /// offending field and value: lanes, lane_depth, packet_length and
  /// queue_capacity must be positive and lanes, lane_depth and
  /// queue_capacity at most kMaxLanes, kMaxLaneDepth and
  /// kMaxQueueCapacity (regardless of mode, so a config is valid or not
  /// independently of the discipline that runs it),
  /// injection_rate must be finite and within [0, 1], the burst
  /// probabilities must be within (0, 1], sim_threads must be within
  /// [1, kMaxSimThreads], an enabled credit config must pass
  /// CreditConfig::validate against this mode and lane count, and the
  /// workload spec must pass workload::Spec::validate.
  /// Called by both simulators and by exp::run_sweep before any work
  /// starts.
  /// \throws std::invalid_argument
  void validate() const;
};

/// Aggregate results of one run.
struct SimResult {
  std::uint64_t offered = 0;    ///< injection attempts during measurement
  std::uint64_t injected = 0;   ///< packets accepted into the first stage
  std::uint64_t delivered = 0;  ///< packets ejected at the last stage
  RunningStats latency;         ///< cycles from injection to tail delivery
  /// Latency distribution, 1-cycle buckets; use
  /// latency_histogram.quantile(0.99) for tail latency. FabricCore
  /// re-shapes this per run (SimConfig::latency_histogram_buckets /
  /// latency_histogram_buckets()); check latency_overflow_fraction() to
  /// see whether tail quantiles clamped at the covered range.
  Histogram latency_histogram{1.0, 1024};
  /// delivered / (measure_cycles * terminals): normalized throughput.
  double throughput = 0.0;
  /// injected / offered: acceptance at the first-stage buffers (0 when
  /// nothing was offered, so idle points never report nan or a vacuous
  /// 1.0).
  double acceptance = 0.0;
  /// offered / (measure_cycles * terminals): the injection-attempt rate
  /// the workload ACTUALLY presented. Open-loop sources track the
  /// configured rate; a closed-loop client at its window suppresses the
  /// attempt entirely, so this field dropping below the configured rate
  /// (with window_stall_cycles > 0) is the self-throttling signature.
  double offered_rate_effective = 0.0;

  // Workload-source counters (nonzero only for closed-loop runs; see
  // workload::ClosedLoopSource).
  /// (terminal, cycle) pairs where a client passed its injection gate
  /// but sat at its outstanding-request window (measured cycles).
  std::uint64_t window_stall_cycles = 0;
  /// Request/reply packets that could not complete their exchange
  /// (faulted misdeliveries of tagged packets).
  std::uint64_t reply_orphans = 0;
  /// Request→reply end-to-end latency per completed exchange: reply
  /// ejection cycle minus the ORIGINAL request's injection cycle
  /// (measured exchanges only).
  RunningStats reply_latency;
  /// reply_latency distribution; quantile(0.99) is the sweep's
  /// reply_latency_p99 column.
  Histogram reply_latency_histogram{1.0, 1024};
  /// Every accepted injection of the run in trace format, captured when
  /// SimConfig::workload.record is set (workload::write_trace
  /// serializes it; replaying it through a TraceSource reproduces the
  /// run's delivered/latency counters exactly).
  std::vector<workload::TraceRecord> workload_trace;

  // Flit-level counters (a store-and-forward packet counts as
  // packet_length flits moving as one unit).
  std::uint64_t flits_injected = 0;  ///< flits accepted during measurement
  std::uint64_t flits_delivered = 0; ///< flits ejected during measurement
  /// Flits still buffered in the network when the run ended (whole run;
  /// with warmup_cycles == 0, flits_injected == flits_delivered +
  /// flits_in_flight exactly).
  std::uint64_t flits_in_flight = 0;
  /// (buffer, cycle) pairs where a buffered head flit / packet was ready
  /// to advance but did not (lost arbitration, downstream full, or no
  /// free downstream lane).
  std::uint64_t hol_blocking_cycles = 0;
  /// Inter-stage flit-hops / (links * measure_cycles), in [0, 1].
  double link_utilization = 0.0;
  /// Per-measured-cycle occupied fraction of all buffer flit slots.
  RunningStats lane_occupancy;

  // Credit flow-control counters (nonzero only with
  // SimConfig::credits.enabled; see CreditConfig).
  /// Events where a ready sender could not advance solely for lack of
  /// downstream credits: one per (output port, cycle) for
  /// store-and-forward and per (source terminal, cycle) at injection,
  /// one per blocked candidate per cycle for wormhole.
  std::uint64_t credit_stall_cycles = 0;
  /// Conservation-invariant failures sampled per measured cycle:
  /// credits + in-flight returns + occupancy must equal capacity on
  /// every link, every cycle. Always 0; pinned by the credit tests.
  std::uint64_t credit_violations = 0;
  /// Per-virtual-lane occupied fraction per measured cycle (wormhole
  /// credit runs; size lanes, empty otherwise).
  std::vector<RunningStats> vl_occupancy;
  /// Per-service-level delivery latency (credit runs; size
  /// CreditConfig::service_levels(), empty otherwise).
  std::vector<RunningStats> sl_latency;

  // Fault-injection counters (nonzero only when a FaultMask is active;
  // all gated like `delivered`: measured cycles, packets injected after
  // warmup). A dropped packet left the network, so conservation reads
  // injected == delivered + dropped + in flight — and exactly, at flit
  // granularity with warmup_cycles == 0: flits_injected ==
  // flits_delivered + flits_in_flight + flits_dropped_faulted.
  /// Packets discarded at a switch whose surviving out-arcs are all
  /// masked (no degraded route exists).
  std::uint64_t packets_dropped_faulted = 0;
  /// Surviving-port detours taken because the scheduled out-arc was
  /// masked (one count per detour event, so a packet detoured twice
  /// counts twice).
  std::uint64_t packets_rerouted = 0;
  /// Packets ejected at the wrong terminal. A banyan has unique paths,
  /// so a detoured packet cannot reach its original destination; it
  /// still ejects somewhere (and counts as delivered — it left the
  /// network), and this counter says how many of those deliveries
  /// missed. delivered - packets_misdelivered is the correctly-delivered
  /// count the sweep reports as delivered_fraction.
  std::uint64_t packets_misdelivered = 0;
  /// Flits discarded by faulted drops (packet_length per store-and-
  /// forward drop; per-flit for wormhole worms).
  std::uint64_t flits_dropped_faulted = 0;

  // Multipath counters (meaningful on MultiPathWiring engines; a unipath
  // run reports paths_available == 1 and path_reroutes == 0).
  /// Distinct router-usable paths per (source, destination) pair of the
  /// pristine fabric (min::MultiPathWiring::paths_available()).
  std::uint64_t paths_available = 1;
  /// Fault-degraded path re-selections: events where a packet's chosen
  /// arc was masked but a surviving arc of the same equivalent-path
  /// group carried it instead (no detour, no misdelivery risk). Distinct
  /// from packets_rerouted, which counts out-of-group detours.
  std::uint64_t path_reroutes = 0;

  // Observability outputs (populated only when SimConfig::obs enables a
  // collector; all-zero / empty otherwise). The stall counters split
  // hol_blocking_cycles by cause: every blocked (buffer, cycle) pair is
  // attributed to exactly one StallCause in the same accounting scan
  // that increments hol_blocking_cycles, so the five counters sum to it
  // exactly — congestion (lost arbitration, downstream full, no free
  // lane), flow control (zero credits) and faults (masked arc) become
  // distinguishable.
  std::uint64_t stall_lost_arbitration = 0;
  std::uint64_t stall_downstream_full = 0;
  std::uint64_t stall_no_free_lane = 0;
  std::uint64_t stall_zero_credits = 0;
  std::uint64_t stall_masked_arc = 0;
  /// Per-stage time series + occupancy heatmap (probe_stride > 0).
  obs::ProbeSeries probes;
  /// Per-(source, destination) and per-SL latency summary (flow_stats).
  obs::FlowSummary flows;
  /// Sampled packet events in serial emission order (trace_sample > 0);
  /// serialize with obs::trace_json.
  std::vector<obs::TraceEvent> trace;

  /// Sum of the five stall-cause counters; equals hol_blocking_cycles on
  /// every obs-enabled run (asserted by tests and the CI sweep smoke).
  [[nodiscard]] std::uint64_t stall_attributed() const noexcept {
    return stall_lost_arbitration + stall_downstream_full +
           stall_no_free_lane + stall_zero_credits + stall_masked_arc;
  }
  /// The largest stall-cause counter (ties break toward the earlier
  /// enum value; kLostArbitration when nothing stalled).
  [[nodiscard]] obs::StallCause dominant_stall_cause() const noexcept {
    const std::uint64_t counts[obs::kStallCauseCount] = {
        stall_lost_arbitration, stall_downstream_full, stall_no_free_lane,
        stall_zero_credits, stall_masked_arc};
    std::size_t best = 0;
    for (std::size_t c = 1; c < obs::kStallCauseCount; ++c) {
      if (counts[c] > counts[best]) best = c;
    }
    return static_cast<obs::StallCause>(best);
  }
  /// Fraction of delivered latencies past the histogram's covered range
  /// (quantiles clamp there; see SimConfig::latency_histogram_buckets).
  [[nodiscard]] double latency_overflow_fraction() const noexcept {
    return latency_histogram.overflow_fraction();
  }

  /// Correctly-delivered / injected, the fault-resilience headline
  /// (wrong-terminal ejections of detoured packets are subtracted).
  /// Defined as 0 when nothing was injected — like every other ratio
  /// field, so an idle point (rate 0, all-OFF bursty, dead fabric)
  /// reports clean zeros instead of nan/inf or a vacuous 1.0. Shared by
  /// the sweep reports and the fault benches so the two never drift.
  [[nodiscard]] double delivered_fraction() const {
    if (injected == 0) return 0.0;
    return static_cast<double>(delivered - packets_misdelivered) /
           static_cast<double>(injected);
  }
};

/// The latency-histogram bucket count FabricCore shapes a run's
/// SimResult::latency_histogram with: the explicit
/// SimConfig::latency_histogram_buckets when nonzero, else the
/// auto-scale clamp(64 * stages * packet_length, 1024, 65536) capped at
/// the run length + 2 (a latency cannot exceed the run) but never below
/// the historic 1024 floor.
[[nodiscard]] std::size_t latency_histogram_buckets(const SimConfig& config,
                                                    int stages) noexcept;

/// The simulator. Construction flattens the network into the stage-packed
/// min::FlatWiring IR shared by both disciplines (and by the equivalence
/// checks and sweeps); run() is repeatable (state resets each call) and
/// thread-safe on a const Engine.
class Engine {
 public:
  /// A radix-2 engine routing by \p schedule, a destination-bit schedule
  /// for \p network (see min::find_bit_schedule). The schedule's shape is
  /// checked (min::check_schedule_shape) and that it routes every pair is
  /// verified, an all-pairs pass under the same cell budget as recovery.
  /// \throws std::invalid_argument if the network has invalid degrees,
  /// the schedule is malformed or does not route the network, or the
  /// network has more than 4096 cells per stage.
  Engine(const min::MIDigraph& network, const min::DigitSchedule& schedule);

  /// A radix-2 engine routing by the schedule recovered from \p network
  /// (min::find_digit_schedule over its flat wiring).
  /// \throws std::invalid_argument if the network has invalid degrees or
  /// no destination-bit schedule, or has more than 4096 cells per stage
  /// (the recovery budget: past it the all-pairs pass takes minutes).
  explicit Engine(const min::MIDigraph& network);

  /// A radix-r engine over a KaryMIDigraph, flattened through
  /// min::FlatWiring::from_kary (equal to from_digraph on the same tables
  /// at r = 2, so its runs are byte-identical to the MIDigraph
  /// constructor's). It routes by the schedule the construction attached
  /// (shape-checked only, so it builds in linear time at any size; see
  /// min::build_kary_network) or else by the recovered one, under the
  /// same budget as above.
  /// \throws std::invalid_argument if the network has invalid degrees, a
  /// malformed attached schedule, or, without one, no digit schedule or
  /// more than 4096 cells per stage.
  explicit Engine(const min::KaryMIDigraph& network);

  /// An engine over a multipath fabric: packets carry *logical* terminal
  /// addresses while flits traverse the physical wiring, and at every
  /// hop the discipline chooses among the fabric's equivalent-path group
  /// (route_group) by the configured SimConfig::path_policy. A
  /// kUnipath-wrapped fabric behaves exactly like the plain constructor
  /// over the same banyan.
  /// \throws std::invalid_argument if the fabric's geometry is out of
  /// simulator range.
  explicit Engine(min::MultiPathWiring fabric);

  /// Run one simulation with the given traffic and parameters, in the
  /// discipline selected by \p config.mode. With a non-null, non-empty
  /// \p mask the run is fault-degraded: masked arcs accept no payload,
  /// packets reroute through the next surviving port and drop at dead
  /// switches (see fault/fault_mask.hpp). A null or all-clear mask takes
  /// the unmasked fast path — the byte-identical policy instantiation the
  /// two-argument form always ran. \p workspace, when given, supplies
  /// reusable payload-pool allocations (sweep workers pass one per
  /// thread); it never changes results.
  /// \throws std::invalid_argument via SimConfig::validate(), or on a
  /// mask whose geometry does not match this network.
  [[nodiscard]] SimResult run(Pattern pattern, const SimConfig& config,
                              const fault::FaultMask* mask = nullptr,
                              SimWorkspace* workspace = nullptr) const;

  /// The destination-digit schedule every engine routes by (on a
  /// multipath engine, the fabric's, in the logical radix).
  [[nodiscard]] const min::DigitSchedule& digit_schedule() const noexcept {
    return digit_schedule_;
  }
  /// radix^digit_schedule().digit[stage] — the divisor that extracts the
  /// scheduled digit (the radix > 2 policies hoist it per stage; the
  /// radix-2 ones shift by the digit instead).
  [[nodiscard]] std::uint32_t route_digit_scale(int stage) const {
    return digit_scale_[static_cast<std::size_t>(stage)];
  }
  /// The flat wiring IR both disciplines route over.
  [[nodiscard]] const min::FlatWiring& wiring() const noexcept {
    return wiring_;
  }
  /// Switch degree r: ports and input slots per cell, and the terminal
  /// fan per first/last-stage cell. On a multipath engine this is the
  /// *physical* radix (logical_radix() * dilation() for dilated fabrics).
  [[nodiscard]] int radix() const noexcept { return wiring_.radix(); }
  /// Addressable terminals: radix * cells_per_stage (= radix^stages) for
  /// a unipath engine, the fabric's *logical* terminal count for a
  /// multipath one (sources, destinations and traffic patterns all live
  /// in logical coordinates; the physical fabric may be wider).
  [[nodiscard]] std::uint64_t terminals() const noexcept {
    return terminals_;
  }
  /// Address digits (base logical_radix()) of a terminal label: the
  /// stage count for a unipath engine, the *logical* stage count for a
  /// multipath one (a Benes has 2n-1 physical stages but n-digit
  /// addresses).
  [[nodiscard]] int address_digits() const noexcept {
    return address_digits_;
  }

  /// Is this engine routing over a multipath fabric?
  [[nodiscard]] bool multipath() const noexcept {
    return fabric_.has_value();
  }
  /// The multipath fabric (multipath engines only).
  /// \throws std::logic_error on a unipath engine.
  [[nodiscard]] const min::MultiPathWiring& fabric() const;
  /// Logical switch radix: the base of terminal addresses (== radix()
  /// on unipath engines).
  [[nodiscard]] int logical_radix() const noexcept { return logical_radix_; }
  /// Logical cells per stage: terminals() / logical_radix().
  [[nodiscard]] std::uint32_t logical_cells() const noexcept {
    return logical_cells_;
  }
  /// Injection planes (> 1 only for replicated fabrics).
  [[nodiscard]] int planes() const noexcept { return planes_; }
  /// Parallel arcs per logical link (> 1 only for dilated fabrics).
  [[nodiscard]] int dilation() const noexcept { return dilation_; }

  /// The group of equivalent out-ports a packet for logical terminal
  /// \p dest_terminal may take at physical connection \p stage of a
  /// multipath fabric: ports base..base+count-1 all reach the
  /// destination. Free connections return the whole switch
  /// ({0, radix()}), forced ones the scheduled dilation group. The
  /// path policies choose *within* this group. Multipath engines only;
  /// \p stage must be an inner connection (the last stage ejects).
  struct PortGroup {
    unsigned base;
    unsigned count;
  };
  [[nodiscard]] PortGroup route_group(int stage,
                                      std::uint32_t dest_terminal) const {
    if (free_stage_[static_cast<std::size_t>(stage)] != 0) {
      return {0U, static_cast<unsigned>(wiring_.radix())};
    }
    const auto lr = static_cast<std::uint32_t>(logical_radix_);
    const std::uint32_t dest_cell = dest_terminal / lr;
    const std::uint32_t value =
        (dest_cell / digit_scale_[static_cast<std::size_t>(stage)]) % lr;
    const unsigned dil = static_cast<unsigned>(dilation_);
    return {digit_schedule_
                    .port_of_value[static_cast<std::size_t>(stage)][value] *
                dil,
            dil};
  }

  /// The out-port a packet for \p dest_terminal takes at \p stage: the
  /// scheduled destination bit/digit at inner stages, the terminal's low
  /// digit at the last (ejection) stage. The radix-2 path shifts instead
  /// of dividing; digit routing and the out-of-range throw live out of
  /// line (route_port_general). The policies do not call this per probe:
  /// they hoist the same per-stage reads out of their loops.
  /// \throws std::invalid_argument on an out-of-range stage.
  [[nodiscard]] unsigned route_port(int stage,
                                    std::uint32_t dest_terminal) const {
    if (wiring_.radix() == 2 && stage >= 0 && stage < wiring_.stages())
        [[likely]] {
      if (stage + 1 == wiring_.stages()) return dest_terminal & 1U;
      const auto hop = static_cast<std::size_t>(stage);
      return static_cast<unsigned>(
                 ((dest_terminal >> 1) >> digit_schedule_.digit[hop]) & 1U) ^
             digit_schedule_.port_of_value[hop][0];
    }
    return route_port_general(stage, dest_terminal);
  }

 private:
  /// Digit routing (radix > 2) and the out-of-range throw.
  [[nodiscard]] unsigned route_port_general(int stage,
                                            std::uint32_t dest_terminal) const;
  /// Every unipath constructor's last step, once wiring_ is set: route
  /// by \p given (shape-checked, and with \p verify checked to route
  /// every pair) or, when null, by the schedule recovered from wiring_;
  /// then fill digit_scale_ and the logical geometry.
  void finish_unipath(const min::DigitSchedule* given, bool verify);
  min::DigitSchedule digit_schedule_;
  /// radix^digit_schedule_.digit[s] per stage, so route_port reads the
  /// scheduled digit with one division (logical radix on multipath
  /// engines, with identity placeholders at free connections).
  std::vector<std::uint32_t> digit_scale_;
  min::FlatWiring wiring_;
  std::optional<min::MultiPathWiring> fabric_;  ///< multipath engines only
  /// Per-connection free flags (multipath engines; empty otherwise).
  std::vector<std::uint8_t> free_stage_;
  /// Logical geometry, valid on every engine (== the physical geometry
  /// for unipath ones) so terminals()/address_digits() are branch-free.
  std::uint64_t terminals_ = 0;
  int address_digits_ = 0;
  int logical_radix_ = 2;
  std::uint32_t logical_cells_ = 1;
  int planes_ = 1;
  int dilation_ = 1;
};

}  // namespace mineq::sim
