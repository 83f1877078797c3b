/// \file obs_test.cpp
/// \brief The observability collectors: stall attribution partitions
/// hol_blocking_cycles exactly, the per-flow recorders account every
/// delivered packet, probes have the declared shape, traces nest, and —
/// the core contract — enabling any collector never changes a simulation
/// outcome (obs is strictly passive).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_model.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "multipath/multipath_wiring.hpp"
#include "obs/flow.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "test_seed.hpp"

namespace mineq::sim {
namespace {

using fault::FaultKind;
using fault::FaultMask;
using fault::FaultSpec;
using min::MultiPathWiring;
using min::NetworkKind;

[[nodiscard]] SimConfig base_config(SwitchingMode mode) {
  SimConfig config;
  config.mode = mode;
  config.injection_rate = 0.7;
  config.warmup_cycles = 50;
  config.measure_cycles = 300;
  config.seed = 99;
  config.packet_length = 3;
  config.queue_capacity = 2;
  config.lanes = 2;
  config.lane_depth = 2;
  return config;
}

[[nodiscard]] obs::ObsConfig all_collectors() {
  obs::ObsConfig config;
  config.probe_stride = 25;
  config.flow_stats = true;
  config.trace_sample = 4;
  return config;
}

// ------------------------------------------------------- stall attribution

/// The invariant the whole attribution design serves: the five cause
/// counters partition hol_blocking_cycles with no remainder, on every
/// policy instantiation of both disciplines.
TEST(ObsStallTest, CausesPartitionHolCyclesExactly) {
  const Engine omega(min::build_network(NetworkKind::kOmega, 5));
  const FaultMask mask = fault::build_fault_mask(
      omega.wiring(), FaultSpec{FaultKind::kRandomLinks, 0.08, 7});
  const Engine benes{MultiPathWiring::benes(4, 2)};
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SimConfig config = base_config(mode);
    config.obs = all_collectors();

    SCOPED_TRACE(switching_mode_name(mode));
    const SimResult pristine = omega.run(Pattern::kBitReversal, config);
    EXPECT_GT(pristine.hol_blocking_cycles, 0U);
    EXPECT_EQ(pristine.stall_attributed(), pristine.hol_blocking_cycles);

    const SimResult faulted = omega.run(Pattern::kUniform, config, &mask);
    EXPECT_EQ(faulted.stall_attributed(), faulted.hol_blocking_cycles);

    SimConfig credits = config;
    credits.credits.enabled = true;
    credits.credits.return_latency = 3;
    const SimResult credited = omega.run(Pattern::kUniform, credits);
    EXPECT_EQ(credited.stall_attributed(), credited.hol_blocking_cycles);

    SimConfig multipath = config;
    multipath.path_policy = PathPolicy::kHash;
    const SimResult mp = benes.run(Pattern::kUniform, multipath);
    EXPECT_EQ(mp.stall_attributed(), mp.hol_blocking_cycles);
  }
}

TEST(ObsStallTest, CreditStallsAttributedOnCreditRuns) {
  // A tight credit loop must surface kZeroCredits mass — the split is
  // informative, not vacuously all lost-arbitration.
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.obs.probe_stride = 50;
  config.credits.enabled = true;
  config.credits.return_latency = 8;
  config.injection_rate = 1.0;
  const SimResult result = engine.run(Pattern::kBitReversal, config);
  EXPECT_EQ(result.stall_attributed(), result.hol_blocking_cycles);
  EXPECT_GT(result.stall_zero_credits, 0U);
}

TEST(ObsStallTest, DominantCauseTokenIsRegistered) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.obs.flow_stats = true;
  const SimResult result = engine.run(Pattern::kBitReversal, config);
  bool found = false;
  for (std::size_t i = 0; i < obs::kStallCauseCount; ++i) {
    const auto cause = static_cast<obs::StallCause>(i);
    if (obs::stall_cause_name(result.dominant_stall_cause()) ==
        std::string(obs::stall_cause_name(cause))) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------- passivity

/// Enabling every collector must not change any simulation outcome: the
/// instrumented runs produce the same counters, latencies and RNG draws
/// as the uninstrumented ones. Observability is a runtime branch inside
/// every policy instantiation, so this sweeps every policy family —
/// radix 2 and 4, pristine and faulted, credits, Benes and replicated
/// multipath — at one and at three simulation threads.
TEST(ObsPassivityTest, CollectorsNeverPerturbResults) {
  const Engine omega(min::build_network(NetworkKind::kOmega, 5));
  const FaultMask mask = fault::build_fault_mask(
      omega.wiring(), FaultSpec{FaultKind::kSwitchKills, 0.08, 3});
  const Engine omega4(min::build_kary_network(NetworkKind::kOmega, 3, 4));
  const FaultMask mask4 = fault::build_fault_mask(
      omega4.wiring(), FaultSpec{FaultKind::kRandomLinks, 0.08, 5});
  const Engine benes{MultiPathWiring::benes(4, 2)};
  const FaultMask benes_mask = fault::build_fault_mask(
      benes.wiring(), FaultSpec{FaultKind::kRandomLinks, 0.1, 11});
  const Engine replicated{
      MultiPathWiring::replicated(NetworkKind::kOmega, 4, 2, 2)};
  const FaultMask replicated_mask = fault::build_fault_mask(
      replicated.wiring(), FaultSpec{FaultKind::kRandomLinks, 0.1, 13});

  struct Case {
    const char* name;
    const Engine* engine;
    const FaultMask* mask;
    bool credits;
    PathPolicy path_policy;
  };
  const std::vector<Case> cases = {
      {"radix2", &omega, nullptr, false, PathPolicy::kHash},
      {"radix2 faulted", &omega, &mask, false, PathPolicy::kHash},
      {"radix2 credits", &omega, nullptr, true, PathPolicy::kHash},
      {"radix2 credits faulted", &omega, &mask, true, PathPolicy::kHash},
      {"radix4", &omega4, nullptr, false, PathPolicy::kHash},
      {"radix4 faulted", &omega4, &mask4, false, PathPolicy::kHash},
      {"radix4 credits", &omega4, nullptr, true, PathPolicy::kHash},
      {"benes", &benes, nullptr, false, PathPolicy::kAdaptive},
      {"benes faulted", &benes, &benes_mask, false, PathPolicy::kHash},
      {"replicated", &replicated, nullptr, false, PathPolicy::kHash},
      {"replicated faulted", &replicated, &replicated_mask, false,
       PathPolicy::kAdaptive},
  };
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SCOPED_TRACE(switching_mode_name(mode));
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE(threads);
        SimConfig plain = base_config(mode);
        plain.sim_threads = threads;
        plain.path_policy = c.path_policy;
        if (c.credits) {
          // Weighted arbitration over two service levels.
          plain.credits.enabled = true;
          plain.credits.return_latency = 2;
          plain.credits.sl_map = {0, 1};
          plain.credits.weights = {3, 1};
          plain.credits.arbitration = ArbitrationPolicy::kWeighted;
        }
        SimConfig instrumented = plain;
        instrumented.obs = all_collectors();
        const SimResult a = c.engine->run(Pattern::kBitReversal, plain, c.mask);
        const SimResult b =
            c.engine->run(Pattern::kBitReversal, instrumented, c.mask);
        EXPECT_GT(a.delivered, 0U);
        EXPECT_EQ(a.offered, b.offered);
        EXPECT_EQ(a.injected, b.injected);
        EXPECT_EQ(a.delivered, b.delivered);
        EXPECT_EQ(a.flits_injected, b.flits_injected);
        EXPECT_EQ(a.flits_delivered, b.flits_delivered);
        EXPECT_EQ(a.flits_in_flight, b.flits_in_flight);
        EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
        EXPECT_EQ(a.credit_stall_cycles, b.credit_stall_cycles);
        EXPECT_EQ(a.credit_violations, b.credit_violations);
        EXPECT_EQ(a.packets_dropped_faulted, b.packets_dropped_faulted);
        EXPECT_EQ(a.flits_dropped_faulted, b.flits_dropped_faulted);
        EXPECT_EQ(a.packets_rerouted, b.packets_rerouted);
        EXPECT_EQ(a.packets_misdelivered, b.packets_misdelivered);
        EXPECT_EQ(a.path_reroutes, b.path_reroutes);
        EXPECT_EQ(a.latency.count(), b.latency.count());
        EXPECT_EQ(a.latency.mean(), b.latency.mean());
        EXPECT_EQ(a.latency.max(), b.latency.max());
        EXPECT_EQ(a.latency_histogram.quantile(0.99),
                  b.latency_histogram.quantile(0.99));
        EXPECT_EQ(a.link_utilization, b.link_utilization);
      }
    }
  }
}

// ----------------------------------------------------------------- flows

TEST(ObsFlowTest, RecorderAccountsEveryDeliveredPacket) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SCOPED_TRACE(switching_mode_name(mode));
    SimConfig config = base_config(mode);
    config.obs.flow_stats = true;
    const SimResult result = engine.run(Pattern::kUniform, config);
    ASSERT_FALSE(result.flows.empty());
    EXPECT_EQ(result.flows.terminals, engine.terminals());
    std::uint64_t recorded = 0;
    for (const obs::FlowStat& flow : result.flows.flows) {
      EXPECT_GT(flow.count, 0U);
      EXPECT_LE(flow.p50, flow.p99);
      EXPECT_LE(flow.p99, flow.p999);
      recorded += flow.count;
    }
    EXPECT_EQ(recorded, result.delivered);
    EXPECT_GT(result.flows.worst_p99, 0.0);
    // The advertised worst flow is a real flow with that p99.
    bool worst_found = false;
    for (const obs::FlowStat& flow : result.flows.flows) {
      if (flow.src == result.flows.worst_src &&
          flow.dst == result.flows.worst_dst) {
        EXPECT_EQ(flow.p99, result.flows.worst_p99);
        worst_found = true;
      }
    }
    EXPECT_TRUE(worst_found);
  }
}

TEST(ObsFlowTest, PerServiceLevelRowsCoverCreditRuns) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.obs.flow_stats = true;
  config.credits.enabled = true;
  config.credits.sl_map = {0, 1};
  const SimResult result = engine.run(Pattern::kUniform, config);
  ASSERT_EQ(result.flows.per_sl.size(), 2U);
  std::uint64_t recorded = 0;
  for (const obs::FlowStat& sl : result.flows.per_sl) recorded += sl.count;
  EXPECT_EQ(recorded, result.delivered);
}

/// The dense-histogram recorder the sample-log FlowRecorder replaced:
/// one 1-cycle bucket vector per flow, quantiles by cumulative scan. It
/// stays here as the reference the log's order statistics must match.
class DenseFlowRecorder {
 public:
  void reset(std::uint32_t terminals, std::size_t buckets,
             std::size_t service_levels) {
    terminals_ = terminals;
    buckets_ = buckets;
    flows_.assign(static_cast<std::size_t>(terminals) * terminals, Acc{});
    sls_.assign(service_levels, Acc{});
  }
  void record(std::uint32_t src, std::uint32_t dst, unsigned sl,
              double latency) {
    add(flows_[static_cast<std::size_t>(src) * terminals_ + dst], latency);
    if (sl < sls_.size()) add(sls_[sl], latency);
  }
  void record_service(std::uint32_t client, std::uint32_t server,
                      double latency) {
    if (services_.empty()) {
      services_.assign(static_cast<std::size_t>(terminals_) * terminals_,
                       Acc{});
    }
    add(services_[static_cast<std::size_t>(client) * terminals_ + server],
        latency);
  }
  [[nodiscard]] obs::FlowSummary summary() const {
    obs::FlowSummary out;
    out.terminals = terminals_;
    for (std::uint32_t src = 0; src < terminals_; ++src) {
      for (std::uint32_t dst = 0; dst < terminals_; ++dst) {
        const Acc& acc = flows_[std::size_t{src} * terminals_ + dst];
        if (acc.count == 0) continue;
        obs::FlowStat stat = stat_of(acc, src, dst);
        if (stat.p99 > out.worst_p99) {
          out.worst_p99 = stat.p99;
          out.worst_src = src;
          out.worst_dst = dst;
        }
        out.flows.push_back(stat);
      }
    }
    for (std::uint32_t sl = 0; sl < sls_.size(); ++sl) {
      if (sls_[sl].count != 0) out.per_sl.push_back(stat_of(sls_[sl], sl, 0));
    }
    for (std::uint32_t client = 0; client < terminals_; ++client) {
      for (std::uint32_t server = 0; server < terminals_; ++server) {
        if (services_.empty()) break;
        const Acc& acc = services_[std::size_t{client} * terminals_ + server];
        if (acc.count == 0) continue;
        const obs::FlowStat stat = stat_of(acc, client, server);
        out.worst_service_p99 = std::max(out.worst_service_p99, stat.p99);
        out.services.push_back(stat);
      }
    }
    return out;
  }

 private:
  struct Acc {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::uint32_t overflow = 0;
    std::vector<std::uint32_t> hist;
  };
  void add(Acc& acc, double latency) const {
    ++acc.count;
    acc.sum += latency;
    const auto bucket = static_cast<std::size_t>(latency);
    if (bucket >= buckets_) {
      ++acc.overflow;
      return;
    }
    if (acc.hist.empty()) acc.hist.assign(buckets_, 0);
    ++acc.hist[bucket];
  }
  [[nodiscard]] double quantile(const Acc& acc, double q) const {
    const double target = q * static_cast<double>(acc.count);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < acc.hist.size(); ++b) {
      cumulative += acc.hist[b];
      if (static_cast<double>(cumulative) >= target) {
        return static_cast<double>(b + 1);
      }
    }
    if (acc.overflow == 0 && !acc.hist.empty()) {
      return static_cast<double>(acc.hist.size());
    }
    return static_cast<double>(buckets_ + 1);
  }
  [[nodiscard]] obs::FlowStat stat_of(const Acc& acc, std::uint32_t src,
                                      std::uint32_t dst) const {
    obs::FlowStat stat;
    stat.src = src;
    stat.dst = dst;
    stat.count = acc.count;
    stat.mean = acc.sum / static_cast<double>(acc.count);
    stat.p50 = quantile(acc, 0.5);
    stat.p99 = quantile(acc, 0.99);
    stat.p999 = quantile(acc, 0.999);
    return stat;
  }

  std::uint32_t terminals_ = 0;
  std::size_t buckets_ = 0;
  std::vector<Acc> flows_;
  std::vector<Acc> sls_;
  std::vector<Acc> services_;
};

void expect_same_stats(const std::vector<obs::FlowStat>& got,
                       const std::vector<obs::FlowStat>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].src, want[i].src);
    EXPECT_EQ(got[i].dst, want[i].dst);
    EXPECT_EQ(got[i].count, want[i].count);
    EXPECT_EQ(got[i].mean, want[i].mean);
    EXPECT_EQ(got[i].p50, want[i].p50);
    EXPECT_EQ(got[i].p99, want[i].p99);
    EXPECT_EQ(got[i].p999, want[i].p999);
  }
}

/// Random latency streams through both recorders: integer and fractional
/// latencies, overflow mass (including flows made only of overflow),
/// single-sample flows, several service levels (and SLs past the table,
/// which record nothing) and a lazily allocated service table.
TEST(FlowRecorderTest, MatchesDenseHistogramReference) {
  MINEQ_SEEDED_RNG(rng, 191);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const auto terminals = static_cast<std::uint32_t>(1 + rng.below(9));
    const std::size_t buckets = rng.below(48);
    const std::size_t service_levels = rng.below(4);
    const bool services = rng.below(3) != 0;
    obs::FlowRecorder recorder;
    DenseFlowRecorder reference;
    recorder.reset(terminals, buckets, service_levels);
    reference.reset(terminals, buckets, service_levels);
    // Flow (0, last) only ever overflows; flow (last, 0) gets one sample.
    const std::uint32_t last = terminals - 1;
    const auto latency_of = [&](bool overflow) {
      const double base = static_cast<double>(
          overflow ? buckets + rng.below(20) : rng.below(buckets + 1));
      return rng.below(2) == 0
                 ? base
                 : base + static_cast<double>(rng.below(1000)) / 1000.0;
    };
    const auto samples = static_cast<int>(rng.below(600));
    for (int i = 0; i < samples; ++i) {
      auto src = static_cast<std::uint32_t>(rng.below(terminals));
      auto dst = static_cast<std::uint32_t>(rng.below(terminals));
      if (terminals > 1 && src == last && dst == 0) src = 0;
      const bool overflow = (src == 0 && dst == last) || rng.below(10) == 0;
      const auto sl = static_cast<unsigned>(rng.below(service_levels + 1));
      const double latency = latency_of(overflow);
      recorder.record(src, dst, sl, latency);
      reference.record(src, dst, sl, latency);
      if (services && rng.below(2) == 0) {
        const double service = latency_of(rng.below(8) == 0);
        recorder.record_service(dst, src, service);
        reference.record_service(dst, src, service);
      }
    }
    if (terminals > 1) {
      const double latency = latency_of(false);
      recorder.record(last, 0, 0, latency);
      reference.record(last, 0, 0, latency);
    }
    const obs::FlowSummary got = recorder.summary();
    const obs::FlowSummary want = reference.summary();
    EXPECT_EQ(got.terminals, want.terminals);
    expect_same_stats(got.flows, want.flows);
    expect_same_stats(got.per_sl, want.per_sl);
    expect_same_stats(got.services, want.services);
    EXPECT_EQ(got.worst_p99, want.worst_p99);
    EXPECT_EQ(got.worst_src, want.worst_src);
    EXPECT_EQ(got.worst_dst, want.worst_dst);
    EXPECT_EQ(got.worst_service_p99, want.worst_service_p99);
    EXPECT_EQ(got.csv(), want.csv());
  }
}

TEST(ObsFlowTest, ValidateRejectsOversizedFlowTables) {
  obs::ObsConfig flows_on;
  flows_on.flow_stats = true;
  EXPECT_NO_THROW(flows_on.validate(obs::kMaxFlowTerminals));
  EXPECT_THROW(flows_on.validate(obs::kMaxFlowTerminals + 1),
               std::invalid_argument);
  obs::ObsConfig probes_only;
  probes_only.probe_stride = 10;
  EXPECT_NO_THROW(probes_only.validate(1ULL << 20));
}

// ---------------------------------------------------------------- probes

TEST(ObsProbeTest, SeriesHasDeclaredShape) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SCOPED_TRACE(switching_mode_name(mode));
    SimConfig config = base_config(mode);
    config.obs.probe_stride = 50;
    const SimResult result = engine.run(Pattern::kUniform, config);
    const obs::ProbeSeries& probes = result.probes;
    ASSERT_FALSE(probes.empty());
    EXPECT_EQ(probes.stride, 50U);
    EXPECT_EQ(probes.stages, 5);
    EXPECT_EQ(probes.cells, 16U);
    // 300 measured cycles / stride 50 = 6 whole windows.
    EXPECT_EQ(probes.samples, 6U);
    const std::size_t slots = probes.filled();
    ASSERT_EQ(probes.cycle.size(), probes.capacity);
    ASSERT_EQ(probes.occupancy.size(), probes.capacity * 5);
    ASSERT_EQ(probes.heatmap.size(), 5U * 16U);
    for (std::size_t i = 0; i < slots * 5; ++i) {
      EXPECT_GE(probes.occupancy[i], 0.0);
      EXPECT_LE(probes.occupancy[i], 1.0);
      EXPECT_GE(probes.link_utilization[i], 0.0);
      // Store-and-forward moves whole packets (packet_length flit-cycles
      // per link-cycle), so utilization is bounded by the packet length,
      // not 1.
      EXPECT_LE(probes.link_utilization[i],
                static_cast<double>(config.packet_length));
    }
    for (const double h : probes.heatmap) {
      EXPECT_GE(h, 0.0);
      EXPECT_LE(h, 1.0);
    }
    // Window cycles advance by exactly one stride.
    for (std::size_t w = 1; w < slots; ++w) {
      EXPECT_EQ(probes.cycle[w] - probes.cycle[w - 1], probes.stride);
    }
    EXPECT_NE(probes.csv().find("cycle,stage,occupancy"), std::string::npos);
    EXPECT_NE(probes.heatmap_csv().find("stage,cell,occupancy"),
              std::string::npos);
  }
}

// ----------------------------------------------------------------- traces

TEST(ObsTraceTest, EventsNestPerPacket) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SCOPED_TRACE(switching_mode_name(mode));
    SimConfig config = base_config(mode);
    config.obs.trace_sample = 2;
    const SimResult result = engine.run(Pattern::kUniform, config);
    ASSERT_FALSE(result.trace.empty());
    // Emission order: cycles never run backwards.
    for (std::size_t i = 1; i < result.trace.size(); ++i) {
      EXPECT_LE(result.trace[i - 1].cycle, result.trace[i].cycle);
    }
    // Group by packet identity and check slice nesting.
    std::map<std::pair<std::uint64_t, std::uint32_t>,
             std::vector<const obs::TraceEvent*>>
        tracks;
    for (const obs::TraceEvent& event : result.trace) {
      EXPECT_TRUE(obs::trace_picked(2, event.src, event.inject_cycle));
      tracks[{event.inject_cycle, event.src}].push_back(&event);
    }
    EXPECT_GT(tracks.size(), 4U);
    std::size_t completed = 0;
    for (const auto& [key, events] : tracks) {
      int packet_open = 0;
      int stage_open = 0;
      for (const obs::TraceEvent* event : events) {
        switch (event->kind) {
          case obs::TraceEventKind::kPacketBegin:
            EXPECT_EQ(packet_open, 0);
            ++packet_open;
            break;
          case obs::TraceEventKind::kPacketEnd:
            EXPECT_EQ(stage_open, 0);  // stages close before the packet
            --packet_open;
            break;
          case obs::TraceEventKind::kStageBegin:
            EXPECT_EQ(packet_open, 1);
            ++stage_open;
            break;
          case obs::TraceEventKind::kStageEnd:
            --stage_open;
            break;
          default:  // instants may appear anywhere inside the packet
            EXPECT_EQ(packet_open, 1);
            break;
        }
        EXPECT_GE(packet_open, 0);
        EXPECT_GE(stage_open, 0);
        EXPECT_LE(stage_open, 1);  // the head is in one stage at a time
      }
      if (!events.empty() &&
          events.back()->kind == obs::TraceEventKind::kPacketEnd) {
        ++completed;
      }
    }
    EXPECT_GT(completed, 0U);
    const std::string json = obs::trace_json(result.trace, 0, "test");
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  }
}

TEST(ObsTraceTest, SampledSubsetIsDeterministicAndSparse) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.obs.trace_sample = 8;
  const SimResult once = engine.run(Pattern::kUniform, config);
  const SimResult twice = engine.run(Pattern::kUniform, config);
  ASSERT_EQ(once.trace.size(), twice.trace.size());
  for (std::size_t i = 0; i < once.trace.size(); ++i) {
    EXPECT_EQ(once.trace[i].cycle, twice.trace[i].cycle);
    EXPECT_EQ(once.trace[i].src, twice.trace[i].src);
    EXPECT_EQ(once.trace[i].kind, twice.trace[i].kind);
  }
  // 1-in-8 sampling: far fewer traced packets than injected ones.
  std::map<std::pair<std::uint64_t, std::uint32_t>, int> tracks;
  for (const obs::TraceEvent& event : once.trace) {
    tracks[{event.inject_cycle, event.src}] = 1;
  }
  EXPECT_LT(tracks.size(), once.injected / 2);
}

}  // namespace
}  // namespace mineq::sim
