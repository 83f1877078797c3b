/// \file golden_sim_test.cpp
/// \brief Golden-equivalence pins for the FabricCore refactor: every
/// counter and statistic below was captured from the pre-IR simulators
/// (PR 2's engine.cpp / wormhole.cpp, one deque-backed simulator per
/// discipline) at a fixed seed, and the policy-over-FabricCore rebuild
/// must reproduce them byte-for-byte. Integer counters are compared
/// exactly; doubles via EXPECT_DOUBLE_EQ against full-precision (%.17g)
/// literals, which round-trip exactly, so any drift in RNG stream
/// layout, arbitration order, slot assignment or accounting shows up
/// here as a hard failure rather than a plausible-looking number.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <optional>
#include <vector>

#include "fault/fault_mask.hpp"
#include "fault/fault_model.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "multipath/multipath_wiring.hpp"
#include "sim/engine.hpp"

namespace mineq::sim {
namespace {

TEST(GoldenSimTest, StoreAndForwardOmega5UniformSeed42) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.mode = SwitchingMode::kStoreAndForward;
  config.injection_rate = 0.7;
  config.packet_length = 3;
  config.queue_capacity = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 42;
  const SimResult r = engine.run(Pattern::kUniform, config);

  EXPECT_EQ(r.offered, 6157U);
  EXPECT_EQ(r.injected, 3589U);
  EXPECT_EQ(r.delivered, 3246U);
  EXPECT_EQ(r.flits_injected, 10767U);
  EXPECT_EQ(r.flits_delivered, 9738U);
  EXPECT_EQ(r.flits_in_flight, 1029U);
  EXPECT_EQ(r.hol_blocking_cycles, 40414U);
  EXPECT_EQ(r.latency.count(), 3246U);
  EXPECT_DOUBLE_EQ(r.latency.mean(), 49.411275415896377);
  EXPECT_DOUBLE_EQ(r.latency.max(), 121.0);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 48.0);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 96.0);
  EXPECT_DOUBLE_EQ(r.throughput, 0.202875);
  EXPECT_DOUBLE_EQ(r.acceptance, 0.58291375669969137);
  EXPECT_DOUBLE_EQ(r.link_utilization, 0.66739062500000002);
  EXPECT_DOUBLE_EQ(r.lane_occupancy.mean(), 0.52008124999999994);
}

TEST(GoldenSimTest, WormholeBaseline5HotspotSeed99) {
  const Engine engine(min::build_network(min::NetworkKind::kBaseline, 5));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.8;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 99;
  const SimResult r = engine.run(Pattern::kHotSpot, config);

  EXPECT_EQ(r.offered, 11463U);
  EXPECT_EQ(r.injected, 546U);
  EXPECT_EQ(r.delivered, 426U);
  EXPECT_EQ(r.flits_injected, 2188U);
  EXPECT_EQ(r.flits_delivered, 1707U);
  EXPECT_EQ(r.flits_in_flight, 474U);
  EXPECT_EQ(r.hol_blocking_cycles, 56564U);
  EXPECT_EQ(r.latency.count(), 426U);
  EXPECT_DOUBLE_EQ(r.latency.mean(), 81.577464788732385);
  EXPECT_DOUBLE_EQ(r.latency.max(), 359.0);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 17.0);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 336.0);
  EXPECT_DOUBLE_EQ(r.throughput, 0.026624999999999999);
  EXPECT_DOUBLE_EQ(r.acceptance, 0.047631510075896361);
  EXPECT_DOUBLE_EQ(r.link_utilization, 0.136421875);
  EXPECT_DOUBLE_EQ(r.lane_occupancy.mean(), 0.36309531249999988);
}

/// An all-zero FaultMask must take the unmasked fast path: the exact
/// pinned golden numbers, not merely plausible ones. (The faulted policy
/// instantiations are compile-time separate, so this guards the
/// dispatch, not just the policy code.)
TEST(GoldenSimTest, AllZeroFaultMaskReproducesGoldenOutputs) {
  {
    const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
    const fault::FaultMask empty(engine.wiring());
    SimConfig config;
    config.mode = SwitchingMode::kStoreAndForward;
    config.injection_rate = 0.7;
    config.packet_length = 3;
    config.queue_capacity = 4;
    config.warmup_cycles = 100;
    config.measure_cycles = 500;
    config.seed = 42;
    const SimResult r = engine.run(Pattern::kUniform, config, &empty);
    EXPECT_EQ(r.offered, 6157U);
    EXPECT_EQ(r.injected, 3589U);
    EXPECT_EQ(r.delivered, 3246U);
    EXPECT_EQ(r.hol_blocking_cycles, 40414U);
    EXPECT_DOUBLE_EQ(r.latency.mean(), 49.411275415896377);
    EXPECT_DOUBLE_EQ(r.link_utilization, 0.66739062500000002);
    EXPECT_EQ(r.packets_dropped_faulted, 0U);
    EXPECT_EQ(r.packets_rerouted, 0U);
  }
  {
    const Engine engine(min::build_network(min::NetworkKind::kBaseline, 5));
    const fault::FaultMask empty(engine.wiring());
    SimConfig config;
    config.mode = SwitchingMode::kWormhole;
    config.injection_rate = 0.8;
    config.packet_length = 4;
    config.lanes = 2;
    config.lane_depth = 4;
    config.warmup_cycles = 100;
    config.measure_cycles = 500;
    config.seed = 99;
    const SimResult r = engine.run(Pattern::kHotSpot, config, &empty);
    EXPECT_EQ(r.offered, 11463U);
    EXPECT_EQ(r.injected, 546U);
    EXPECT_EQ(r.delivered, 426U);
    EXPECT_EQ(r.hol_blocking_cycles, 56564U);
    EXPECT_DOUBLE_EQ(r.latency.mean(), 81.577464788732385);
    EXPECT_DOUBLE_EQ(r.link_utilization, 0.136421875);
    EXPECT_EQ(r.packets_dropped_faulted, 0U);
    EXPECT_EQ(r.packets_rerouted, 0U);
  }
}

/// The golden configs must also be self-consistent on repeat runs: the
/// pins above would not catch a stateful Engine.
TEST(GoldenSimTest, RepeatRunsAreIdentical) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.injection_rate = 0.7;
  config.packet_length = 3;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 42;
  const SimResult a = engine.run(Pattern::kUniform, config);
  const SimResult b = engine.run(Pattern::kUniform, config);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
}

// ------------------------------------------------------------ golden matrix
// One FNV-1a digest of every SimResult field per configuration, pinned
// from the probe-loop arbitration kernels before the one-pass bitset
// rewrite. Each config runs with observability off and with every
// collector on, at sim_threads 1 and 3; all four runs must reproduce the
// pinned digest of their observability setting bit for bit.

class ResultDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const RunningStats& s) {
    add(s.count());
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
  }
  void add(const Histogram& h) {
    add(h.total());
    add(h.overflow());
    add(h.bucket_width());
    add(static_cast<std::uint64_t>(h.buckets().size()));
    for (const std::uint64_t b : h.buckets()) add(b);
  }
  template <class T>
  void add_all(const std::vector<T>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const T& v : values) add(v);
  }
  void add(const obs::FlowStat& f) {
    add(std::uint64_t{f.src});
    add(std::uint64_t{f.dst});
    add(f.count);
    add(f.mean);
    add(f.p50);
    add(f.p99);
    add(f.p999);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest(const SimResult& r) {
  ResultDigest d;
  for (const std::uint64_t v :
       {r.offered, r.injected, r.delivered, r.window_stall_cycles,
        r.reply_orphans, r.flits_injected, r.flits_delivered,
        r.flits_in_flight, r.hol_blocking_cycles, r.credit_stall_cycles,
        r.credit_violations, r.packets_dropped_faulted, r.packets_rerouted,
        r.packets_misdelivered, r.flits_dropped_faulted, r.paths_available,
        r.path_reroutes, r.stall_lost_arbitration, r.stall_downstream_full,
        r.stall_no_free_lane, r.stall_zero_credits, r.stall_masked_arc}) {
    d.add(v);
  }
  for (const double v : {r.throughput, r.acceptance, r.offered_rate_effective,
                         r.link_utilization}) {
    d.add(v);
  }
  d.add(r.latency);
  d.add(r.latency_histogram);
  d.add(r.reply_latency);
  d.add(r.reply_latency_histogram);
  d.add(r.lane_occupancy);
  d.add_all(r.vl_occupancy);
  d.add_all(r.sl_latency);
  d.add(static_cast<std::uint64_t>(r.workload_trace.size()));
  for (const workload::TraceRecord& t : r.workload_trace) {
    d.add(t.cycle);
    d.add((std::uint64_t{t.src} << 32) | t.dst);
    d.add((std::uint64_t{t.size} << 8) | t.tag);
  }
  const obs::ProbeSeries& p = r.probes;
  d.add(p.stride);
  d.add(static_cast<std::uint64_t>(p.stages));
  d.add(std::uint64_t{p.cells});
  d.add(static_cast<std::uint64_t>(p.capacity));
  d.add(static_cast<std::uint64_t>(p.samples));
  d.add_all(p.cycle);
  d.add_all(p.occupancy);
  d.add_all(p.link_utilization);
  d.add_all(p.hol_stalls);
  d.add_all(p.credit_stalls);
  d.add_all(p.reroutes);
  d.add_all(p.heatmap);
  const obs::FlowSummary& f = r.flows;
  d.add(std::uint64_t{f.terminals});
  d.add_all(f.flows);
  d.add_all(f.per_sl);
  d.add_all(f.services);
  d.add(f.worst_p99);
  d.add((std::uint64_t{f.worst_src} << 32) | f.worst_dst);
  d.add(f.worst_service_p99);
  d.add(static_cast<std::uint64_t>(r.trace.size()));
  for (const obs::TraceEvent& e : r.trace) {
    d.add(e.cycle);
    d.add(e.inject_cycle);
    d.add((std::uint64_t{e.src} << 32) | e.dst);
    d.add((static_cast<std::uint64_t>(e.kind) << 24) |
          (std::uint64_t{e.stage} << 16) | (std::uint64_t{e.cause} << 8) |
          e.phase);
  }
  return d.value();
}

struct GoldenCase {
  const char* name;
  std::function<Engine()> engine;
  SimConfig config;
  Pattern pattern = Pattern::kUniform;
  double link_fault_rate = 0.0;  ///< kRandomLinks mask rate, 0 = pristine
};

/// The pinned digests per case: observability off, then every
/// collector on.
struct GoldenPin {
  const char* name;
  std::uint64_t obs_off;
  std::uint64_t obs_on;
};

constexpr GoldenPin kGoldenPins[] = {
    {"saf_r2_rr", 0x006e63a2618a0c34ULL, 0x08d76d08ee000f51ULL},
    {"saf_r3_rr", 0xba7cf73596f1d766ULL, 0xbcdb92bb81b3f62cULL},
    {"saf_r4_rr", 0x239d94076407e59aULL, 0x061b16433a5571c9ULL},
    {"saf_r2_credit_rr", 0x3b02f28fc503d9ddULL, 0x5d86305cfbaeba52ULL},
    {"saf_r3_credit_weighted", 0xfe737543859eef7fULL, 0x44bde7cecedd69a6ULL},
    {"saf_r2_credit_priority", 0x761fbfe64d1cef62ULL, 0x834d27d677dea58dULL},
    {"saf_r4_credit_priority", 0xbcc4360c061884c3ULL, 0xb495e2ba5944b0d1ULL},
    {"saf_r2_faults", 0x31e8f16383892277ULL, 0x40061bd98068aa4cULL},
    {"saf_r4_faults", 0x9b6975864b097852ULL, 0xd1b8640744e89ca0ULL},
    {"saf_r2_faults_credit_weighted", 0x860f7be2270b4daeULL, 0xe1b313861658a5abULL},
    {"saf_r3_faults_credit_priority", 0xf6dc5b35733c73a1ULL, 0x40232e5dedd04b01ULL},
    {"saf_benes_hash", 0x38023a729035d64eULL, 0x2167800eabe18544ULL},
    {"saf_benes_adaptive_faults", 0x765c90b7f84d3c3bULL, 0xefb0d80f70bc609dULL},
    {"saf_dilated16x4", 0x8ff6e5d86749811eULL, 0xbea540e0004e8fa7ULL},
    {"saf_dilated16x4_adaptive_faults", 0x1420bfd95b51d223ULL, 0x72f94b727d2d9ef9ULL},
    {"saf_replicated_hash_faults", 0x8e9486d0f5ae8be7ULL, 0x5b9df0c8434f2dd0ULL},
    {"saf_replicated_adaptive", 0x9887fdd3fa812765ULL, 0x3ad4b61033210a20ULL},
    {"saf_benes_looping", 0x9a5b4506441746b5ULL, 0x35bc11538987560fULL},
    {"wh_r2_rr", 0xe45adbf6759ad574ULL, 0x89eb08693e34c76aULL},
    {"wh_r3_rr", 0x2ef688d6a4cd8722ULL, 0xbcb715554449977bULL},
    {"wh_r4_rr", 0xf0093bdb49afb030ULL, 0xdab786ee3c278862ULL},
    {"wh_r2_credit_rr", 0x50d1c48ea31eb1c5ULL, 0xd68fd22013f23c4eULL},
    {"wh_r3_credit_weighted", 0x63c244fed2b61cacULL, 0xdd34b2a46fb628b2ULL},
    {"wh_r2_credit_priority", 0x119b7c742deaf35fULL, 0x5c2ada991745869eULL},
    {"wh_r4_credit_priority", 0x48f5d0a435a44404ULL, 0x7ae998fbdbe3f03cULL},
    {"wh_r2_faults", 0xed5a92b6a0ddc0bfULL, 0x781bd2384a304f7dULL},
    {"wh_r4_faults", 0x6ae1b4bd352348b5ULL, 0xb62c1f25bca33998ULL},
    {"wh_r2_faults_credit_weighted", 0x7faaadee81f21ed3ULL, 0x987d90367bf76518ULL},
    {"wh_r3_faults_credit_priority", 0x81240a60fe150da3ULL, 0x8de3da5f6e590c04ULL},
    {"wh_benes_hash", 0x9e068919e5e11ea9ULL, 0x739e7d246eb1ca72ULL},
    {"wh_benes_adaptive_faults", 0x21d2469134dc01c9ULL, 0x2a40f1e73a536546ULL},
    {"wh_dilated16x4", 0x8bb09a79b5e4e104ULL, 0x19ee8b49fec0e276ULL},
    {"wh_dilated16x4_adaptive_faults", 0x97da0cf6045d6070ULL, 0xfa50ab778d104a70ULL},
    {"wh_replicated_hash_faults", 0x18c121def9dcdc79ULL, 0x98fda0ca24481a6fULL},
    {"wh_replicated_adaptive", 0xead464412a5f2545ULL, 0x615a6e47e2de8284ULL},
    {"wh_benes_looping", 0x9d0240a9adcb9fcbULL, 0x60a2822dbf72dbc7ULL},
};

const GoldenPin* find_pin(const std::string& name) {
  for (const GoldenPin& pin : kGoldenPins) {
    if (name == pin.name) return &pin;
  }
  return nullptr;
}

SimConfig golden_config(SwitchingMode mode, double rate) {
  SimConfig config;
  config.mode = mode;
  config.injection_rate = rate;
  config.packet_length = 4;
  config.queue_capacity = 3;
  config.lanes = 2;
  config.lane_depth = 2;
  config.warmup_cycles = 40;
  config.measure_cycles = 160;
  config.seed = 2024;
  return config;
}

SimConfig with_credits(SimConfig config, ArbitrationPolicy arbitration) {
  config.credits.enabled = true;
  config.credits.return_latency = 3;
  config.credits.arbitration = arbitration;
  config.credits.sl_map = {0, 1, 1};
  config.credits.weights = {1, 3};
  return config;
}

SimConfig with_path_policy(SimConfig config, PathPolicy policy) {
  config.path_policy = policy;
  return config;
}

std::function<Engine()> omega(int stages) {
  return [stages] {
    return Engine(min::build_network(min::NetworkKind::kOmega, stages));
  };
}

std::function<Engine()> kary(min::NetworkKind kind, int stages, int radix) {
  return [=] { return Engine(min::build_kary_network(kind, stages, radix)); };
}

std::function<Engine()> multipath(std::function<min::MultiPathWiring()> f) {
  return [f = std::move(f)] { return Engine(f()); };
}

std::vector<GoldenCase> golden_cases() {
  using min::MultiPathWiring;
  using min::NetworkKind;
  std::vector<GoldenCase> cases;
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    const bool saf = mode == SwitchingMode::kStoreAndForward;
    const SimConfig base = golden_config(mode, saf ? 0.7 : 0.5);
    cases.push_back({saf ? "saf_r2_rr" : "wh_r2_rr", omega(5), base});
    cases.push_back({saf ? "saf_r3_rr" : "wh_r3_rr",
                     kary(NetworkKind::kOmega, 3, 3), base});
    cases.push_back({saf ? "saf_r4_rr" : "wh_r4_rr",
                     kary(NetworkKind::kBaseline, 3, 4), base,
                     Pattern::kHotSpot});
    cases.push_back({saf ? "saf_r2_credit_rr" : "wh_r2_credit_rr", omega(5),
                     with_credits(base, ArbitrationPolicy::kRoundRobin)});
    cases.push_back({saf ? "saf_r3_credit_weighted" : "wh_r3_credit_weighted",
                     kary(NetworkKind::kOmega, 3, 3),
                     with_credits(base, ArbitrationPolicy::kWeighted)});
    cases.push_back({saf ? "saf_r2_credit_priority" : "wh_r2_credit_priority",
                     omega(5),
                     with_credits(base, ArbitrationPolicy::kPriority),
                     Pattern::kHotSpot});
    cases.push_back({saf ? "saf_r4_credit_priority" : "wh_r4_credit_priority",
                     kary(NetworkKind::kOmega, 3, 4),
                     with_credits(base, ArbitrationPolicy::kPriority)});
    cases.push_back({saf ? "saf_r2_faults" : "wh_r2_faults", omega(6), base,
                     Pattern::kUniform, 0.02});
    cases.push_back({saf ? "saf_r4_faults" : "wh_r4_faults",
                     kary(NetworkKind::kOmega, 3, 4), base, Pattern::kUniform,
                     0.02});
    cases.push_back(
        {saf ? "saf_r2_faults_credit_weighted"
             : "wh_r2_faults_credit_weighted",
         omega(6), with_credits(base, ArbitrationPolicy::kWeighted),
         Pattern::kUniform, 0.02});
    cases.push_back(
        {saf ? "saf_r3_faults_credit_priority"
             : "wh_r3_faults_credit_priority",
         kary(NetworkKind::kOmega, 3, 3),
         with_credits(base, ArbitrationPolicy::kPriority), Pattern::kUniform,
         0.02});
    cases.push_back({saf ? "saf_benes_hash" : "wh_benes_hash",
                     multipath([] { return MultiPathWiring::benes(4, 2); }),
                     with_path_policy(base, PathPolicy::kHash)});
    cases.push_back(
        {saf ? "saf_benes_adaptive_faults" : "wh_benes_adaptive_faults",
         multipath([] { return MultiPathWiring::benes(3, 3); }),
         with_path_policy(base, PathPolicy::kAdaptive), Pattern::kUniform,
         0.02});
    // Physical radix 64: 64 SAF candidates per cell and 128 wormhole
    // lanes per cell, the multi-word request-set path.
    cases.push_back(
        {saf ? "saf_dilated16x4" : "wh_dilated16x4",
         multipath([] {
           return MultiPathWiring::dilated(NetworkKind::kOmega, 2, 16, 4);
         }),
         with_path_policy(golden_config(mode, saf ? 0.8 : 0.6),
                          PathPolicy::kHash)});
    cases.push_back(
        {saf ? "saf_dilated16x4_adaptive_faults"
             : "wh_dilated16x4_adaptive_faults",
         multipath([] {
           return MultiPathWiring::dilated(NetworkKind::kOmega, 2, 16, 4);
         }),
         with_path_policy(golden_config(mode, saf ? 0.8 : 0.6),
                          PathPolicy::kAdaptive),
         Pattern::kUniform, 0.02});
    cases.push_back(
        {saf ? "saf_replicated_hash_faults" : "wh_replicated_hash_faults",
         multipath([] {
           return MultiPathWiring::replicated(NetworkKind::kOmega, 4, 2, 3);
         }),
         with_path_policy(base, PathPolicy::kHash), Pattern::kUniform, 0.02});
    cases.push_back(
        {saf ? "saf_replicated_adaptive" : "wh_replicated_adaptive",
         multipath([] {
           return MultiPathWiring::replicated(NetworkKind::kBaseline, 3, 3,
                                              2);
         }),
         with_path_policy(base, PathPolicy::kAdaptive), Pattern::kTornado});
    SimConfig looping = with_path_policy(base, PathPolicy::kLooping);
    for (std::uint32_t t = 0; t < 16; ++t) {
      looping.permutation.push_back((5 * t + 3) % 16);
    }
    cases.push_back({saf ? "saf_benes_looping" : "wh_benes_looping",
                     multipath([] { return MultiPathWiring::benes(4, 2); }),
                     looping, Pattern::kPermutation});
  }
  return cases;
}

TEST(GoldenSimTest, MatrixDigestsAtEveryThreadCount) {
  const std::vector<GoldenCase> cases = golden_cases();
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    const GoldenPin* pin = find_pin(c.name);
    ASSERT_NE(pin, nullptr);
    const Engine engine = c.engine();
    std::optional<fault::FaultMask> mask;
    if (c.link_fault_rate > 0.0) {
      mask = fault::build_fault_mask(
          engine.wiring(),
          fault::FaultSpec{fault::FaultKind::kRandomLinks, c.link_fault_rate,
                           17});
    }
    for (const bool observed : {false, true}) {
      SimConfig config = c.config;
      if (observed) {
        config.obs.probe_stride = 16;
        config.obs.flow_stats = true;
        config.obs.trace_sample = 5;
      }
      const std::uint64_t want = observed ? pin->obs_on : pin->obs_off;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        config.sim_threads = threads;
        const SimResult r = engine.run(c.pattern, config,
                                       mask.has_value() ? &*mask : nullptr);
        EXPECT_GT(r.delivered, 0U);
        EXPECT_EQ(digest(r), want)
            << "obs " << observed << " sim_threads " << threads << " 0x"
            << std::hex << digest(r);
      }
    }
  }
}

}  // namespace
}  // namespace mineq::sim
