/// \file fabric.hpp
/// \brief FabricCore: the shared substrate of both switching disciplines.
///
/// Store-and-forward and wormhole switching differ only in how payload
/// advances through a switch; everything else — the stage-packed wiring
/// (min::FlatWiring), the per-output-port round-robin arbiters, the
/// pluggable workload source behind the attempt/draw/commit seam
/// (workload/workload.hpp), the result counters and their finalization —
/// is one substrate, owned by FabricCore. Each discipline is a *policy* (engine.cpp, wormhole.cpp)
/// that implements the four per-cycle phases over the core; the driver
/// loop run_switched() sequences them identically for both:
///
///   eject -> advance stages (last-1 .. 0) -> inject -> sample
///
/// Payload lives in struct-of-arrays pools (PacketRing for whole-packet
/// FIFOs, LanePool for virtual-channel flit buffers): fixed-capacity
/// rings over a few contiguous arrays instead of a deque per queue, so a
/// run allocates O(1) blocks and the hot loops stream over flat memory.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/flit.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace mineq::sim {

/// Rotating-priority pointer over a fixed candidate ring. Arbitration
/// offers the candidates in the order candidate(0), candidate(1), ...
/// (scan_round_robin walks a candidate set in exactly that order from
/// next()) and grant()s the winner, which moves it to lowest priority for
/// the next round. The shared fairness primitive of both switching
/// disciplines.
class RoundRobin {
 public:
  /// \throws std::invalid_argument on an empty candidate ring — a
  /// size-0 arbiter has nothing to grant, and silently clamping it to 1
  /// (the historic behavior) masked the caller's geometry bug.
  explicit RoundRobin(unsigned size = 1) : size_(size) {
    if (size == 0) {
      throw std::invalid_argument(
          "RoundRobin: candidate ring must be non-empty");
    }
  }

  /// The candidate at probe position \p probe (0-based, below size()).
  [[nodiscard]] unsigned candidate(unsigned probe) const noexcept {
    const unsigned c = next_ + probe;
    return c >= size_ ? c - size_ : c;
  }

  /// The highest-priority candidate (probe position 0).
  [[nodiscard]] unsigned next() const noexcept { return next_; }

  /// Record that \p winner was served; it now has lowest priority.
  /// \throws std::logic_error on a winner outside the candidate ring
  /// (granting it would desynchronize the pointer silently).
  void grant(unsigned winner) {
    if (winner >= size_) {
      throw std::logic_error("RoundRobin::grant: winner out of range");
    }
    next_ = winner + 1 == size_ ? 0 : winner + 1;
  }

  [[nodiscard]] unsigned size() const noexcept { return size_; }

 private:
  unsigned size_;
  unsigned next_ = 0;
};

/// Quantum-weighted round-robin pointers, one per output port, flat over
/// the whole fabric. Probe order matches RoundRobin (rotating from the
/// pointer); the difference is the grant rule: a winner keeps top
/// priority until it has taken \p weight consecutive grants (its
/// quantum), then the pointer rotates past it. With every weight equal
/// to 1 the grant sequence reduces to RoundRobin's exactly.
class WeightedRoundRobin {
 public:
  /// Re-shape to \p arbiters pointers over \p size candidates each and
  /// reset all quanta.
  void reset(std::size_t arbiters, unsigned size);

  /// Arbiter \p a's candidate at probe position \p probe (below the
  /// ring size).
  [[nodiscard]] unsigned candidate(std::size_t a,
                                   unsigned probe) const noexcept {
    const unsigned c = next_[a] + probe;
    return c >= size_ ? c - size_ : c;
  }

  /// Arbiter \p a's highest-priority candidate.
  [[nodiscard]] unsigned next(std::size_t a) const noexcept {
    return next_[a];
  }

  /// Record that \p winner was served with quantum \p weight (>= 1).
  void grant(std::size_t a, unsigned winner, unsigned weight);

 private:
  unsigned size_ = 1;
  std::vector<unsigned> next_;
  std::vector<unsigned> served_;  ///< consecutive grants to next_[a]
};

/// scan_round_robin's result when no candidate stopped the scan.
inline constexpr unsigned kNoCandidate = ~0U;

/// Visit the members of a candidate set in round-robin order from
/// \p start: start, start + 1, ..., the last member, then wrapping to 0
/// — the order RoundRobin::candidate(0), candidate(1), ... probes, with
/// the non-members skipped (rotate the set by masking, then ctz). \p set
/// holds \p words 64-bit words, candidate c at bit c % 64 of word c / 64,
/// and \p start lies below the ring size. \p visit(c) returns true to
/// stop the scan (a grant, or a refusal that blocks the whole port) and
/// false to fall through to the next member. Returns the candidate that
/// stopped the scan, or kNoCandidate. Words are read as the scan reaches
/// them, so \p visit may add members to other sets, never to this one.
template <class Visit>
unsigned scan_round_robin(const std::uint64_t* set, std::size_t words,
                          unsigned start, Visit&& visit) {
  const std::size_t first = start >> 6;
  const std::uint64_t below = (std::uint64_t{1} << (start & 63U)) - 1;
  const auto walk = [&](std::size_t w, std::uint64_t bits) {
    for (; bits != 0; bits &= bits - 1) {
      const auto c = static_cast<unsigned>(
          w * 64 + static_cast<unsigned>(std::countr_zero(bits)));
      if (visit(c)) return c;
    }
    return kNoCandidate;
  };
  for (std::size_t w = first; w < words; ++w) {
    const unsigned c = walk(w, w == first ? set[w] & ~below : set[w]);
    if (c != kNoCandidate) return c;
  }
  for (std::size_t w = 0; w <= first; ++w) {
    const unsigned c = walk(w, w == first ? set[w] & below : set[w]);
    if (c != kNoCandidate) return c;
  }
  return kNoCandidate;
}

/// Call \p f(c) for every member of a \p words-word candidate set, in
/// ascending order.
template <class F>
void for_each_member(const std::uint64_t* set, std::size_t words, F&& f) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<unsigned>(
          w * 64 + static_cast<unsigned>(std::countr_zero(bits))));
    }
  }
}

/// One switch cell's arbitration state, built in a single pass over its
/// input buffers: the ready set (buffers whose head could move this
/// cycle) and, per output port, the request set of the ready heads that
/// route there, both over the cell's candidate numbering. The cycle
/// kernels grant each port's winner with scan_round_robin, clear a
/// candidate from the ready set when it moves, and count what remains
/// as head-of-line blocking — every input buffer is read once per
/// cycle. Ports number at most 64 (the radix bound). One per worker;
/// every set is empty again between cells.
class CellRequests {
 public:
  /// Size for \p ports output ports over up to \p candidates candidates.
  void shape(unsigned ports, unsigned candidates) {
    words_ = (static_cast<std::size_t>(candidates) + 63) / 64;
    ready_.assign(words_, 0);
    sets_.assign(static_cast<std::size_t>(ports) * words_, 0);
    ports_ = 0;
  }
  [[nodiscard]] bool shaped() const noexcept { return words_ != 0; }
  [[nodiscard]] std::size_t words() const noexcept { return words_; }

  void set_ready(unsigned c) noexcept { ready_[c >> 6] |= bit(c); }
  /// Candidate \p c moved (at least once) this cycle: not blocked.
  void moved(unsigned c) noexcept { ready_[c >> 6] &= ~bit(c); }
  /// Candidate \p c asks for output port \p port.
  void request(unsigned port, unsigned c) noexcept {
    sets_[port * words_ + (c >> 6)] |= bit(c);
    ports_ |= std::uint64_t{1} << port;
  }
  /// No port holds a request.
  [[nodiscard]] bool idle() const noexcept { return ports_ == 0; }

  /// Take the lowest port still holding requests (requests added while
  /// serving a port must go to higher ports); false when none is left.
  [[nodiscard]] bool next_port(unsigned& port) noexcept {
    if (ports_ == 0) return false;
    port = static_cast<unsigned>(std::countr_zero(ports_));
    ports_ &= ports_ - 1;
    return true;
  }
  [[nodiscard]] const std::uint64_t* set(unsigned port) const noexcept {
    return &sets_[port * words_];
  }
  void clear_set(unsigned port) noexcept {
    std::fill_n(&sets_[port * words_], words_, 0);
  }

  /// Ready candidates that did not move, i.e. head-of-line blocked.
  [[nodiscard]] std::uint64_t blocked() const noexcept {
    std::uint64_t n = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      n += static_cast<std::uint64_t>(std::popcount(ready_[w]));
    }
    return n;
  }
  /// Call \p f(c) for every blocked candidate in ascending order.
  template <class F>
  void for_each_blocked(F&& f) const {
    for_each_member(ready_.data(), words_, f);
  }
  void clear_ready() noexcept { std::fill(ready_.begin(), ready_.end(), 0); }

 private:
  [[nodiscard]] static std::uint64_t bit(unsigned c) noexcept {
    return std::uint64_t{1} << (c & 63U);
  }

  std::size_t words_ = 0;
  std::uint64_t ports_ = 0;
  std::vector<std::uint64_t> ready_;
  std::vector<std::uint64_t> sets_;
};

/// Per-link credit counters with a configurable return latency — the
/// loss-free link-level flow control both disciplines run when
/// SimConfig::credits is enabled. The receiver end of every downstream
/// buffer grants its capacity in credits up front; senders consume one
/// per unit pushed and stall at zero; every pop schedules the credit
/// back through a small ring of in-flight credit messages that delivers
/// it \p latency cycles later (latency 0 returns it immediately, which
/// the phase order makes byte-identical to direct occupancy probes).
/// Conservation holds cycle for cycle:
///   credits(l) + in_flight(l) + occupancy(l) == capacity.
class CreditLedger {
 public:
  /// Re-shape to \p links counters of \p capacity credits each with
  /// \p latency-cycle returns, retaining allocations when large enough.
  void reset(std::size_t links, std::uint32_t capacity,
             std::uint64_t latency);

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool available(std::size_t link) const noexcept {
    return credits_[link] != 0;
  }
  [[nodiscard]] std::uint32_t credits(std::size_t link) const noexcept {
    return credits_[link];
  }
  /// Credit-return messages still in flight toward \p link's sender.
  [[nodiscard]] std::uint32_t in_flight(std::size_t link) const noexcept {
    return pending_[link];
  }

  /// Spend one credit of \p link; it must be available().
  void consume(std::size_t link) noexcept { --credits_[link]; }

  /// Schedule one credit of \p link back to its sender, arriving at
  /// cycle + latency (immediately for latency 0).
  void give_back(std::size_t link, std::uint64_t cycle);

  /// Start-of-cycle harvest: every credit scheduled to arrive at
  /// \p cycle lands. Call once per cycle, before any give_back of that
  /// cycle (the policies call it at the top of eject, the first phase).
  void deliver(std::uint64_t cycle);

  /// deliver() restricted to links [\p lo, \p hi) — the sharded driver's
  /// harvest phase, partitioned into disjoint ranges across the worker
  /// team (per-link state is independent, so a range partition is exact).
  void deliver_range(std::uint64_t cycle, std::size_t lo, std::size_t hi);

 private:
  std::uint32_t capacity_ = 0;
  std::uint64_t latency_ = 0;
  std::size_t links_ = 0;
  std::vector<std::uint32_t> credits_;
  std::vector<std::uint32_t> pending_;  ///< per-link in-flight total
  /// Slot-major in-flight ring, slot = arrival cycle % latency:
  /// ring_[slot * links + link] credits land together.
  std::vector<std::uint32_t> ring_;
};

/// Every store-and-forward input FIFO of the fabric as one
/// struct-of-arrays ring pool: queue q occupies slots [q * capacity,
/// (q+1) * capacity) of three parallel field arrays.
class PacketRing {
 public:
  PacketRing(std::size_t queues, std::size_t capacity);

  /// Re-shape to (queues, capacity) and clear every queue, retaining the
  /// underlying allocations when they are large enough — the
  /// SimWorkspace arena path for sweeps that run many points per thread.
  void reset(std::size_t queues, std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty(std::size_t q) const noexcept {
    return count_[q] == 0;
  }
  [[nodiscard]] bool full(std::size_t q) const noexcept {
    return count_[q] == capacity_;
  }
  /// Packets currently buffered in queue \p q.
  [[nodiscard]] std::uint32_t count(std::size_t q) const noexcept {
    return count_[q];
  }

  /// Append a packet; the queue must not be full. \p route is the
  /// packet's routing decision at this queue's stage, resolved once on
  /// the way in (the policy's encoding: out-port plus reroute flags), \p sl
  /// its service level (0 outside credit-mode runs), \p src its source
  /// terminal (carried for flow attribution and packet tracing), \p tag
  /// its workload tag (request/reply; 0 outside closed-loop runs).
  void push(std::size_t q, std::uint32_t dest, std::uint32_t src,
            std::uint64_t inject_cycle, std::uint64_t arrival_complete,
            unsigned route, unsigned sl = 0, unsigned tag = 0);

  /// Head-of-line packet fields; the queue must not be empty.
  [[nodiscard]] std::uint32_t front_dest(std::size_t q) const {
    return dest_[front_slot(q)];
  }
  [[nodiscard]] std::uint32_t front_src(std::size_t q) const {
    return src_[front_slot(q)];
  }
  [[nodiscard]] std::uint64_t front_inject(std::size_t q) const {
    return inject_[front_slot(q)];
  }
  [[nodiscard]] std::uint64_t front_arrival(std::size_t q) const {
    return arrival_[front_slot(q)];
  }
  [[nodiscard]] unsigned front_sl(std::size_t q) const {
    return sl_[front_slot(q)];
  }
  [[nodiscard]] unsigned front_tag(std::size_t q) const {
    return tag_[front_slot(q)];
  }
  [[nodiscard]] unsigned front_route(std::size_t q) const {
    return route_[front_slot(q)];
  }

  /// Drop the head-of-line packet; the queue must not be empty.
  void pop(std::size_t q);

  /// push()/pop() variants that leave the pool-wide total_packets()
  /// counter untouched. The sharded cycle kernels use these: workers
  /// mutate disjoint queue ranges concurrently, so the shared counter
  /// would be a data race — each worker tracks its +-delta locally and
  /// the driver reconciles. Queue state is identical to push()/pop().
  void push_unc(std::size_t q, std::uint32_t dest, std::uint32_t src,
                std::uint64_t inject_cycle, std::uint64_t arrival_complete,
                unsigned route, unsigned sl = 0, unsigned tag = 0);
  void pop_unc(std::size_t q);

  /// Packets currently buffered across every queue (O(1)).
  [[nodiscard]] std::size_t total_packets() const noexcept { return total_; }

 private:
  // head_[q] stays < capacity_ by construction, so ring wrap-around is a
  // compare-and-subtract, never a (hardware-division) modulo — these run
  // once per packet per cycle in the store-and-forward hot loop.
  [[nodiscard]] std::size_t front_slot(std::size_t q) const {
    return q * capacity_ + head_[q];
  }
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= capacity_ ? i - capacity_ : i;
  }

  std::size_t capacity_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> dest_;
  std::vector<std::uint32_t> src_;
  std::vector<std::uint64_t> inject_;
  std::vector<std::uint64_t> arrival_;
  std::vector<std::uint8_t> sl_;
  std::vector<std::uint8_t> tag_;
  std::vector<std::uint8_t> route_;
  std::size_t total_ = 0;
};

/// Every wormhole virtual channel of the fabric as one struct-of-arrays
/// pool: lane l owns flit slots [l * depth, (l+1) * depth) of a
/// contiguous ring arena, with the per-lane worm bookkeeping (busy,
/// tail-seen, out-port, reserved downstream lane) in parallel field
/// arrays. A lane holds flits of at most one packet (one
/// worm) at a time: a head claims an idle lane, body/tail flits follow
/// through it, and popping the tail returns the lane to idle.
class LanePool {
 public:
  LanePool(std::size_t lane_count, std::size_t depth);

  /// Re-shape to (lane_count, depth) and reset every lane to idle,
  /// retaining the underlying allocations when they are large enough.
  void reset(std::size_t lane_count, std::size_t depth);

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  /// Free for a new worm: no flits buffered and no tail outstanding.
  [[nodiscard]] bool idle(std::size_t l) const noexcept {
    return busy_[l] == 0;
  }
  [[nodiscard]] bool empty(std::size_t l) const noexcept {
    return count_[l] == 0;
  }
  /// Room for one more flit of the current worm.
  [[nodiscard]] bool has_space(std::size_t l) const noexcept {
    return count_[l] < depth_;
  }
  /// Flits currently buffered in lane \p l.
  [[nodiscard]] std::uint32_t count(std::size_t l) const noexcept {
    return count_[l];
  }

  /// Claim idle lane \p l for a new worm whose head is \p head and which
  /// leaves this buffer through \p out_port.
  void accept_head(std::size_t l, const Flit& head, unsigned out_port);

  /// Append a body/tail flit of the worm occupying lane \p l.
  void accept(std::size_t l, const Flit& flit);

  /// The head-of-line flit; the lane must be non-empty.
  [[nodiscard]] const Flit& front(std::size_t l) const {
    return slots_[l * depth_ + head_[l]];
  }

  /// Remove and return the head-of-line flit. Popping the tail resets the
  /// lane to idle (the worm has fully left).
  Flit pop(std::size_t l);

  /// accept_head()/accept()/pop() variants that leave the pool-wide
  /// occupied_flits() counter untouched — the sharded kernels' race-free
  /// forms (workers own disjoint lane ranges and track deltas locally).
  void accept_head_unc(std::size_t l, const Flit& head, unsigned out_port);
  void accept_unc(std::size_t l, const Flit& flit);
  Flit pop_unc(std::size_t l);

  /// Out-port of the worm currently occupying lane \p l.
  [[nodiscard]] unsigned out_port(std::size_t l) const noexcept {
    return out_port_[l];
  }

  /// Downstream lane (relative index inside the next buffer) reserved by
  /// the worm, -1 until its head advances.
  [[nodiscard]] int downstream(std::size_t l) const noexcept {
    return downstream_[l];
  }
  void set_downstream(std::size_t l, int lane) noexcept {
    downstream_[l] = lane;
  }

  /// First idle lane of the \p lanes-lane buffer starting at \p first
  /// (relative index), or -1 if every lane is claimed.
  [[nodiscard]] int find_idle_lane(std::size_t first,
                                   std::size_t lanes) const noexcept;

  /// Flits currently buffered across every lane (O(1)).
  [[nodiscard]] std::size_t occupied_flits() const noexcept {
    return occupied_;
  }

 private:
  // head_[l] stays < depth_; wrap-around is compare-and-subtract, not a
  // hardware-division modulo (once per flit move in the hot loop).
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= depth_ ? i - depth_ : i;
  }

  std::size_t depth_;
  std::vector<Flit> slots_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint8_t> busy_;
  std::vector<std::uint8_t> tail_in_;
  std::vector<std::uint8_t> out_port_;
  std::vector<std::int32_t> downstream_;
  std::size_t occupied_ = 0;
};

/// Reusable cross-run allocation arena for the payload pools. A sweep
/// worker owns one workspace and passes it to every Engine::run it
/// executes, so million-packet grids re-shape (and usually just clear)
/// the same pool allocations instead of re-allocating them per grid
/// point. Pools are fully re-initialized per run, so results are
/// byte-identical with or without a workspace.
class SimWorkspace {
 public:
  /// The store-and-forward FIFO pool, reset to (queues, capacity).
  [[nodiscard]] PacketRing& packet_ring(std::size_t queues,
                                        std::size_t capacity) {
    ring_.reset(queues, capacity);
    return ring_;
  }

  /// The wormhole virtual-channel pool, reset to (lane_count, depth).
  [[nodiscard]] LanePool& lane_pool(std::size_t lane_count,
                                    std::size_t depth) {
    pool_.reset(lane_count, depth);
    return pool_;
  }

  /// The credit-flow-control ledger, reset to (links, capacity,
  /// latency). Like the pools, fully re-initialized per run.
  [[nodiscard]] CreditLedger& credit_ledger(std::size_t links,
                                            std::uint32_t capacity,
                                            std::uint64_t latency) {
    ledger_.reset(links, capacity, latency);
    return ledger_;
  }

 private:
  PacketRing ring_{0, 1};
  LanePool pool_{0, 1};
  CreditLedger ledger_;
};

/// The per-run state shared by both switching policies: geometry, RNG
/// streams, arbiters, traffic, result counters and their finalization.
class FabricCore {
 public:
  /// \p arbiter_candidates is the candidate-ring size of every
  /// output-port arbiter (radix input slots for store-and-forward,
  /// radix * lanes for wormhole). \p eject_candidates, when nonzero,
  /// additionally allocates one ejection arbiter per *terminal* with
  /// that ring size — the multipath policies arbitrate ejection per
  /// logical terminal over planes * radix (* lanes) physical buffers,
  /// which the per-(cell, port) stage arbiters cannot express. \p config
  /// must already be validated.
  FabricCore(const Engine& engine, Pattern pattern, const SimConfig& config,
             unsigned arbiter_candidates, unsigned eject_candidates = 0);

  [[nodiscard]] const Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] const min::FlatWiring& wiring() const noexcept {
    return engine_.wiring();
  }

  [[nodiscard]] int stages() const noexcept { return stages_; }
  [[nodiscard]] std::uint32_t cells() const noexcept { return cells_; }
  [[nodiscard]] std::uint64_t terminals() const noexcept {
    return terminals_;
  }
  /// Input ports (= input slots = terminal links) per stage:
  /// radix * cells.
  [[nodiscard]] std::size_t ports() const noexcept { return ports_; }
  [[nodiscard]] std::uint64_t total_cycles() const noexcept {
    return config_.warmup_cycles + config_.measure_cycles;
  }

  /// The arbiter of output port / candidate ring \p i at stage \p s.
  [[nodiscard]] RoundRobin& arbiter(int s, std::size_t i) {
    return arbiters_[static_cast<std::size_t>(s) * ports_ + i];
  }

  /// The ejection arbiter of terminal \p t (only allocated when the
  /// constructor was given a nonzero eject_candidates ring size).
  [[nodiscard]] RoundRobin& eject_arbiter(std::size_t t) {
    return eject_arbiters_[t];
  }

  // --- The workload seam (workload/workload.hpp). Injection decisions
  // --- live behind WorkloadSource; the open-loop SyntheticSource is
  // --- devirtualized through a concrete fast-path pointer, so the
  // --- historic hot loops pay one predicted branch per call, not a
  // --- virtual dispatch. Every call below runs in the serial (worker-0)
  // --- phase of the cycle.

  /// Does terminal \p t want to inject this cycle? (Replaces the
  /// historic `terminal_active(t) && gate()` pair, draw for draw.)
  [[nodiscard]] bool attempt(std::uint64_t cycle, std::uint32_t t) {
    if (synthetic_ != nullptr) [[likely]] {
      return synthetic_->attempt_fast(t);
    }
    return workload_->attempt(cycle, t);
  }

  /// Destination + tag of the packet terminal \p t would inject. No
  /// source state changes yet — the policy may still refuse the packet.
  [[nodiscard]] workload::Injection draw(std::uint64_t cycle,
                                         std::uint32_t t) {
    if (synthetic_ != nullptr) [[likely]] {
      return synthetic_->draw_fast(t);
    }
    return workload_->draw(cycle, t);
  }

  /// The policy accepted the drawn packet: commit source state and, when
  /// recording, capture the injection into the trace.
  void commit(std::uint64_t cycle, std::uint32_t t,
              const workload::Injection& injection) {
    if (recording_) [[unlikely]] {
      recorded_.push_back({cycle, t, injection.dest,
                           static_cast<std::uint32_t>(config_.packet_length),
                           injection.tag, 0});
    }
    if (synthetic_ == nullptr) workload_->commit(cycle, t, injection);
  }

  /// Advance per-cycle workload state (bursty modulator, all-to-all
  /// phase, closed-loop measurement flag); runs once per cycle before
  /// injection. (Replaces the historic advance_burst().)
  void workload_tick(std::uint64_t cycle, bool measuring) {
    if (synthetic_ != nullptr) [[likely]] {
      synthetic_->tick_fast();
      return;
    }
    workload_->tick(cycle, measuring);
  }

  /// Does the workload need delivery callbacks? Cached so the policies'
  /// ejection paths pay one predictable branch when it is off.
  [[nodiscard]] bool wants_deliveries() const noexcept {
    return wants_deliveries_;
  }

  /// Feed one delivered packet back into the workload (closed-loop
  /// replies depend on it). Call for every tail ejection — warmup
  /// included — in serial ejection order.
  void workload_delivered(const workload::Delivery& delivery) {
    workload_->deliver(delivery);
  }

  /// Route closed-loop request→reply latencies into the observability
  /// flow recorder's service channel (flow_stats runs only).
  void set_service_recorder(obs::FlowRecorder* recorder) {
    workload_->set_service_recorder(recorder);
  }

  /// delivered += 1 plus the latency statistics, shared by both
  /// disciplines' ejection paths.
  void record_packet_delivered(double cycles_in_flight) {
    ++result.delivered;
    result.latency.add(cycles_in_flight);
    result.latency_histogram.add(cycles_in_flight);
  }

  /// Derive throughput, acceptance and link utilization from the
  /// accumulated counters; \p link_counter is the policy's busy-link
  /// (store-and-forward) or flit-hop (wormhole) total.
  void finalize(std::uint64_t link_counter);

  /// Counters accumulated by the policy during the run.
  SimResult result;

 private:
  const Engine& engine_;
  const SimConfig& config_;
  int stages_;
  std::uint32_t cells_;
  std::uint64_t terminals_;
  std::size_t ports_;
  /// Open-loop runs store the SyntheticSource INLINE so the per-attempt
  /// gate state (RNG cursor, rate) lives in FabricCore's own cache
  /// lines — the locality the pre-seam direct members had; other kinds
  /// are heap-owned. FabricCore is a stack local for the duration of a
  /// run and never moves, so the aliasing pointers below stay valid.
  std::optional<workload::SyntheticSource> synthetic_store_;
  std::unique_ptr<workload::WorkloadSource> owned_workload_;
  /// The run's workload source (never null after construction; points
  /// at synthetic_store_ or owned_workload_).
  workload::WorkloadSource* workload_ = nullptr;
  /// Devirtualization fast path: non-null exactly when the workload is
  /// the open-loop SyntheticSource (aliases workload_).
  workload::SyntheticSource* synthetic_ = nullptr;
  bool wants_deliveries_ = false;
  bool recording_ = false;
  /// Accepted injections captured when SimConfig::workload.record is set
  /// (moved into SimResult::workload_trace by finalize()).
  std::vector<workload::TraceRecord> recorded_;
  std::vector<RoundRobin> arbiters_;
  std::vector<RoundRobin> eject_arbiters_;  ///< per terminal; multipath only
};

/// The common cycle loop. A Policy implements the four phases plus the
/// end-of-run accessors:
///   void eject(std::uint64_t cycle, bool measuring);
///   void advance_stage(int s, std::uint64_t cycle, bool measuring);
///   void inject(std::uint64_t cycle, bool measuring);
///   void sample(std::uint64_t cycle);       // measured cycles only
///   std::uint64_t buffered_flits() const;   // still in the network
///   std::uint64_t link_counter() const;     // feeds link_utilization
template <class Policy>
SimResult run_switched(FabricCore& core, Policy& policy) {
  const std::uint64_t warmup = core.config().warmup_cycles;
  const std::uint64_t total = core.total_cycles();
  for (std::uint64_t cycle = 0; cycle < total; ++cycle) {
    const bool measuring = cycle >= warmup;
    policy.eject(cycle, measuring);
    for (int s = core.stages() - 2; s >= 0; --s) {
      policy.advance_stage(s, cycle, measuring);
    }
    core.workload_tick(cycle, measuring);
    policy.inject(cycle, measuring);
    if (measuring) policy.sample(cycle);
  }
  core.result.flits_in_flight = policy.buffered_flits();
  core.finalize(policy.link_counter());
  return core.result;
}

}  // namespace mineq::sim
