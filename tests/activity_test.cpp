/// \file activity_test.cpp
/// \brief Differential test of the cycle kernels' wake rules.
///
/// An unobserved run visits only the switch cells its wake sets name
/// (sim::ActivitySets); an observed run visits every cell every cycle.
/// The collectors are passive, so the two must agree on every simulated
/// SimResult field — a missing wake rule shows up as a cell that stayed
/// asleep while its pass would have granted, or would have blocked a
/// different count. Seeded random small configurations cover both
/// disciplines, every pattern and workload kind, credits under all three
/// arbitrations, faults and multipath fabrics at sim_threads 1 and 3;
/// one hand-built case per wake rule makes sure each rule is exercised.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "multipath/multipath_wiring.hpp"
#include "sim/engine.hpp"
#include "test_seed.hpp"

namespace mineq::sim {
namespace {

using min::MultiPathWiring;
using min::NetworkKind;

/// Every simulated field of a result, by name; the observer's payloads
/// and the stall-cause split (observed runs only) are left out.
std::vector<std::pair<std::string, std::uint64_t>> simulated_fields(
    const SimResult& r) {
  std::vector<std::pair<std::string, std::uint64_t>> f = {
      {"offered", r.offered},
      {"injected", r.injected},
      {"delivered", r.delivered},
      {"window_stall_cycles", r.window_stall_cycles},
      {"reply_orphans", r.reply_orphans},
      {"flits_injected", r.flits_injected},
      {"flits_delivered", r.flits_delivered},
      {"flits_in_flight", r.flits_in_flight},
      {"hol_blocking_cycles", r.hol_blocking_cycles},
      {"credit_stall_cycles", r.credit_stall_cycles},
      {"credit_violations", r.credit_violations},
      {"packets_dropped_faulted", r.packets_dropped_faulted},
      {"packets_rerouted", r.packets_rerouted},
      {"packets_misdelivered", r.packets_misdelivered},
      {"flits_dropped_faulted", r.flits_dropped_faulted},
      {"paths_available", r.paths_available},
      {"path_reroutes", r.path_reroutes},
      {"throughput", std::bit_cast<std::uint64_t>(r.throughput)},
      {"acceptance", std::bit_cast<std::uint64_t>(r.acceptance)},
      {"offered_rate_effective",
       std::bit_cast<std::uint64_t>(r.offered_rate_effective)},
      {"link_utilization", std::bit_cast<std::uint64_t>(r.link_utilization)},
  };
  const auto stats = [&](const std::string& name, const RunningStats& s) {
    f.emplace_back(name + ".count", s.count());
    f.emplace_back(name + ".mean", std::bit_cast<std::uint64_t>(s.mean()));
    f.emplace_back(name + ".variance",
                   std::bit_cast<std::uint64_t>(s.variance()));
    f.emplace_back(name + ".min", std::bit_cast<std::uint64_t>(s.min()));
    f.emplace_back(name + ".max", std::bit_cast<std::uint64_t>(s.max()));
  };
  const auto histogram = [&](const std::string& name, const Histogram& h) {
    f.emplace_back(name + ".total", h.total());
    f.emplace_back(name + ".overflow", h.overflow());
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      f.emplace_back(name + "[" + std::to_string(i) + "]", h.buckets()[i]);
    }
  };
  stats("latency", r.latency);
  stats("reply_latency", r.reply_latency);
  stats("lane_occupancy", r.lane_occupancy);
  histogram("latency_histogram", r.latency_histogram);
  histogram("reply_latency_histogram", r.reply_latency_histogram);
  for (std::size_t i = 0; i < r.vl_occupancy.size(); ++i) {
    stats("vl_occupancy[" + std::to_string(i) + "]", r.vl_occupancy[i]);
  }
  for (std::size_t i = 0; i < r.sl_latency.size(); ++i) {
    stats("sl_latency[" + std::to_string(i) + "]", r.sl_latency[i]);
  }
  f.emplace_back("workload_trace.size", r.workload_trace.size());
  for (std::size_t i = 0; i < r.workload_trace.size(); ++i) {
    const workload::TraceRecord& t = r.workload_trace[i];
    f.emplace_back("workload_trace[" + std::to_string(i) + "]",
                   t.cycle ^ (std::uint64_t{t.src} << 20) ^
                       (std::uint64_t{t.dst} << 40) ^
                       (std::uint64_t{t.tag} << 62));
  }
  return f;
}

/// The first simulated field where \p woken (wake sets) and \p full
/// (full visit) differ, or "" when they agree on all of them.
std::string first_difference(const SimResult& woken, const SimResult& full) {
  const auto a = simulated_fields(woken);
  const auto b = simulated_fields(full);
  if (a.size() != b.size()) return "field count";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second) {
      std::ostringstream out;
      out << a[i].first << ": wake sets " << a[i].second << ", full visit "
          << b[i].second;
      return out.str();
    }
  }
  return "";
}

/// One run of \p config without and with an observer (probes on).
struct Pair {
  SimResult woken;
  SimResult full;
};

Pair run_pair(const Engine& engine, Pattern pattern, SimConfig config,
              const fault::FaultMask* mask) {
  config.obs = {};
  Pair p;
  p.woken = engine.run(pattern, config, mask);
  config.obs.probe_stride = 7;
  p.full = engine.run(pattern, config, mask);
  return p;
}

/// Run both ways and require identical simulation; also checks the
/// observed run's stall causes partition its HOL count.
void expect_same(const Engine& engine, Pattern pattern,
                 const SimConfig& config, const fault::FaultMask* mask,
                 Pair* out = nullptr) {
  Pair p = run_pair(engine, pattern, config, mask);
  EXPECT_EQ(first_difference(p.woken, p.full), "");
  EXPECT_EQ(p.full.stall_attributed(), p.full.hol_blocking_cycles);
  if (out != nullptr) *out = std::move(p);
}

// ------------------------------------------------------- random configs

struct RandomCase {
  std::string label;
  std::optional<Engine> engine;
  Pattern pattern = Pattern::kUniform;
  SimConfig config;
  std::optional<fault::FaultMask> mask;
};

template <class T>
const T& pick(util::SplitMix64& rng, const std::vector<T>& items) {
  return items[rng.next() % items.size()];
}

RandomCase random_case(util::SplitMix64& rng) {
  RandomCase c;
  std::ostringstream label;
  SimConfig& config = c.config;
  const bool saf = rng.next() % 2 == 0;
  config.mode = saf ? SwitchingMode::kStoreAndForward
                    : SwitchingMode::kWormhole;
  label << (saf ? "saf" : "wh");
  // Fabric: mostly unipath radix 2/3/4 banyans, a quarter multipath.
  const int radix = static_cast<int>(2 + rng.next() % 3);
  const int max_stages = radix == 2 ? 5 : 4;
  const int stages = static_cast<int>(1 + rng.next() % max_stages);
  const bool multipath = rng.next() % 4 == 0;
  if (multipath) {
    switch (rng.next() % 3) {
      case 0:
        c.engine.emplace(MultiPathWiring::benes(radix == 4 ? 2 : 3,
                                                radix == 4 ? 2 : radix));
        label << " benes";
        break;
      case 1:
        c.engine.emplace(
            MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 2));
        label << " dilated";
        break;
      default:
        c.engine.emplace(
            MultiPathWiring::replicated(NetworkKind::kBaseline, 3, 2, 2));
        label << " replicated";
        break;
    }
    config.path_policy = pick(rng, all_path_policies());
    if (config.path_policy == PathPolicy::kLooping) {
      config.path_policy = PathPolicy::kAdaptive;
    }
    label << ' ' << path_policy_name(config.path_policy);
  } else {
    const NetworkKind kind =
        pick(rng, std::vector<NetworkKind>{NetworkKind::kOmega,
                                           NetworkKind::kBaseline,
                                           NetworkKind::kFlip});
    c.engine.emplace(min::build_kary_network(kind, stages, radix));
    label << ' ' << min::network_name(kind) << " r" << radix << " n"
          << stages;
  }
  // Pattern: any nameable one the address width allows.
  std::vector<Pattern> patterns;
  for (const Pattern p : all_patterns()) {
    if (p == Pattern::kTranspose && c.engine->address_digits() % 2 != 0) {
      continue;
    }
    patterns.push_back(p);
  }
  c.pattern = pick(rng, patterns);
  label << ' ' << pattern_name(c.pattern);
  // Load from nearly idle to saturated.
  const double rates[] = {0.01, 0.05, 0.2, 0.5, 0.9, 1.0};
  config.injection_rate = rates[rng.next() % 6];
  config.packet_length = 1 + rng.next() % 5;
  config.queue_capacity = 1 + rng.next() % 4;
  config.lanes = 1 + rng.next() % 3;
  config.lane_depth = 1 + rng.next() % 4;
  config.warmup_cycles = rng.next() % 30;
  config.measure_cycles = 60 + rng.next() % 90;
  config.seed = rng.next();
  label << " rate " << config.injection_rate << " L" << config.packet_length;
  // Workload.
  switch (rng.next() % 5) {
    case 0:
      config.workload.kind = workload::Kind::kClosedLoop;
      config.workload.rr_window = static_cast<unsigned>(1 + rng.next() % 4);
      label << " closedloop";
      break;
    case 1: {
      auto trace = std::make_shared<workload::TraceData>();
      const auto terminals = static_cast<std::uint32_t>(
          c.engine->terminals());
      std::uint64_t cycle = 0;
      for (int i = 0; i < 40; ++i) {
        cycle += rng.next() % 4;
        trace->records.push_back(
            {cycle, static_cast<std::uint32_t>(rng.next() % terminals),
             static_cast<std::uint32_t>(rng.next() % terminals),
             static_cast<std::uint32_t>(config.packet_length), 0, 0});
      }
      config.workload.kind = workload::Kind::kTrace;
      config.workload.trace = std::move(trace);
      label << " trace";
      break;
    }
    default:
      break;
  }
  config.workload.record = rng.next() % 4 == 0;
  // Credits (unipath only) under every arbitration.
  if (!multipath && rng.next() % 3 == 0) {
    config.credits.enabled = true;
    config.credits.return_latency = rng.next() % 4;
    config.credits.arbitration =
        pick(rng, std::vector<ArbitrationPolicy>{
                      ArbitrationPolicy::kRoundRobin,
                      ArbitrationPolicy::kWeighted,
                      ArbitrationPolicy::kPriority});
    const std::size_t levels = 1 + rng.next() % 3;
    for (std::size_t sl = 0; sl < levels; ++sl) {
      config.credits.sl_map.push_back(
          static_cast<unsigned>(rng.next() % config.lanes));
    }
    config.credits.weights = {1, static_cast<unsigned>(1 + rng.next() % 3)};
    label << " credits " << arbitration_policy_name(config.credits.arbitration)
          << " latency " << config.credits.return_latency;
  }
  // Faults: 2% of the links, or a switch kill that leaves dead switches.
  if (rng.next() % 4 == 0) {
    const bool kills = rng.next() % 2 == 0;
    c.mask = fault::build_fault_mask(
        c.engine->wiring(),
        fault::FaultSpec{kills ? fault::FaultKind::kSwitchKills
                               : fault::FaultKind::kRandomLinks,
                         kills ? 0.1 : 0.02, rng.next()});
    label << (kills ? " switch kills" : " link faults");
  }
  config.sim_threads = rng.next() % 4 == 0 ? 3 : 1;
  label << " threads " << config.sim_threads;
  c.label = label.str();
  return c;
}

TEST(ActivityTest, WakeSetsMatchFullVisitOnRandomConfigs) {
  MINEQ_SEEDED_RNG(rng, 0xAC71);
  constexpr int kCases = 1000;
  int ran = 0;
  for (int i = 0; i < kCases; ++i) {
    RandomCase c = random_case(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + c.label);
    expect_same(*c.engine, c.pattern, c.config,
                c.mask.has_value() ? &*c.mask : nullptr);
    ++ran;
    if (HasFailure()) break;  // the first red case is the repro
  }
  EXPECT_EQ(ran, kCases);
}

// ------------------------------------------------- one case per rule

SimConfig rule_config(SwitchingMode mode, double rate) {
  SimConfig config;
  config.mode = mode;
  config.injection_rate = rate;
  config.packet_length = 4;
  config.queue_capacity = 2;
  config.lanes = 2;
  config.lane_depth = 2;
  config.warmup_cycles = 20;
  config.measure_cycles = 200;
  config.seed = 7;
  return config;
}

/// Run \p config at sim_threads 1 and 3, both ways; returns the serial
/// unobserved result for the case's own checks.
SimResult expect_same_everywhere(const Engine& engine, Pattern pattern,
                                 SimConfig config,
                                 const fault::FaultMask* mask = nullptr) {
  Pair serial;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("sim_threads " + std::to_string(threads));
    config.sim_threads = threads;
    Pair p;
    expect_same(engine, pattern, config, mask, &p);
    if (threads == 1) serial = std::move(p);
  }
  return serial.woken;
}

TEST(ActivityTest, SafBusyLinkExpiryWakesTheSender) {
  // Long packets serialize for 6 cycles per link: a cell that lost its
  // link sleeps until the link frees.
  const Engine engine(min::build_network(NetworkKind::kOmega, 4));
  SimConfig config = rule_config(SwitchingMode::kStoreAndForward, 0.4);
  config.packet_length = 6;
  const SimResult r = expect_same_everywhere(engine, Pattern::kHotSpot,
                                             config);
  EXPECT_GT(r.hol_blocking_cycles, 0U);
  EXPECT_GT(r.link_utilization, 0.0);
}

TEST(ActivityTest, SafHeadArrivingAfterAPopWakesItsCell) {
  // Back-to-back packets queue behind each other: after a pop the next
  // head is still serializing in and wakes its cell when it arrives.
  const Engine engine(min::build_network(NetworkKind::kBaseline, 3));
  SimConfig config = rule_config(SwitchingMode::kStoreAndForward, 1.0);
  config.queue_capacity = 4;
  config.packet_length = 3;
  const SimResult r = expect_same_everywhere(engine, Pattern::kComplement,
                                             config);
  EXPECT_GT(r.delivered, 0U);
}

TEST(ActivityTest, CreditsLandingAfterThreeCyclesWakeTheSender) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 4));
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SimConfig config = rule_config(mode, 0.8);
    config.credits.enabled = true;
    config.credits.return_latency = 3;
    const SimResult r = expect_same_everywhere(engine, Pattern::kUniform,
                                               config);
    EXPECT_GT(r.credit_stall_cycles, 0U);
  }
}

TEST(ActivityTest, DeadSwitchDrainsWakeTheirParents) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  const fault::FaultMask mask = fault::build_fault_mask(
      engine.wiring(),
      fault::FaultSpec{fault::FaultKind::kSwitchKills, 0.1, 3});
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SimConfig config = rule_config(mode, 0.6);
    const SimResult r =
        expect_same_everywhere(engine, Pattern::kUniform, config, &mask);
    EXPECT_GT(r.packets_dropped_faulted, 0U);
  }
}

TEST(ActivityTest, AdaptiveLosersRePickWithinTheirPass) {
  // A dilated fabric's adaptive heads that lose a port may take a later
  // group member in the same pass; the downstream pops that change
  // their choice wake them.
  const Engine engine(MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 2));
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SimConfig config = rule_config(mode, 0.9);
    config.path_policy = PathPolicy::kAdaptive;
    const SimResult r = expect_same_everywhere(engine, Pattern::kHotSpot,
                                               config);
    EXPECT_GT(r.delivered, 0U);
    EXPECT_GT(r.hol_blocking_cycles, 0U);
  }
}

TEST(ActivityTest, PoolGeometryIsBudgetedBeforeAnyAllocation) {
  // Every field is in range on its own; the products are tens of GiB.
  const Engine engine(min::build_kary_network(NetworkKind::kOmega, 12, 2));
  SimConfig wormhole;
  wormhole.mode = SwitchingMode::kWormhole;
  wormhole.lanes = SimConfig::kMaxLanes;
  wormhole.lane_depth = SimConfig::kMaxLaneDepth;
  EXPECT_NO_THROW(wormhole.validate());
  try {
    (void)engine.run(Pattern::kUniform, wormhole);
    ADD_FAILURE() << "an over-budget lane pool was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("wormhole lane pool"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("MiB budget"), std::string::npos)
        << e.what();
  }
  SimConfig saf;
  saf.queue_capacity = SimConfig::kMaxQueueCapacity;
  try {
    (void)engine.run(Pattern::kUniform, saf);
    ADD_FAILURE() << "an over-budget queue pool was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("store-and-forward queue pool"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mineq::sim
