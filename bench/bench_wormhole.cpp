/// \file bench_wormhole.cpp
/// \brief Flit-level wormhole switching: discipline comparison report
/// (store-and-forward vs wormhole across lane counts) and simulator
/// throughput benchmarks.

#include <iostream>

#include "exp/sweep.hpp"
#include "min/networks.hpp"
#include "sim/engine.hpp"
#include "sim/wormhole.hpp"
#include "util/format.hpp"

#include "bench_main.hpp"

void print_report() {
  using namespace mineq;
  std::cout << "=== Wormhole vs store-and-forward (Omega, n=6, 4-flit "
               "packets) ===\n\n";
  const sim::Engine engine(
      min::build_network(min::NetworkKind::kOmega, 6));

  util::TablePrinter table({"mode", "lanes", "rate", "throughput",
                            "lat mean", "lat p99", "link util", "hol"});
  for (const double rate : {0.1, 0.5, 1.0}) {
    for (const std::size_t lanes : {std::size_t{0},  // 0 = store-and-forward
                                    std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
      sim::SimConfig config;
      config.injection_rate = rate;
      config.packet_length = 4;
      config.lane_depth = 4;
      config.warmup_cycles = 200;
      config.measure_cycles = 1500;
      config.seed = 12;
      if (lanes == 0) {
        config.mode = sim::SwitchingMode::kStoreAndForward;
      } else {
        config.mode = sim::SwitchingMode::kWormhole;
        config.lanes = lanes;
      }
      const sim::SimResult r = engine.run(sim::Pattern::kUniform, config);
      table.add_row({sim::switching_mode_name(config.mode),
                     lanes == 0 ? "-" : std::to_string(lanes),
                     util::fixed(rate, 1), util::fixed(r.throughput, 3),
                     util::fixed(r.latency.mean(), 1),
                     util::fixed(r.latency_histogram.quantile(0.99), 0),
                     util::fixed(r.link_utilization, 3),
                     util::with_commas(r.hol_blocking_cycles)});
    }
  }
  std::cout << table.str()
            << "\n(wormhole pipelines multi-flit packets: lower latency at "
               "low load;\n more lanes relieve head-of-line blocking at "
               "saturation)\n\n";
}

static void BM_WormholeUniform(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kOmega, n));
  mineq::sim::SimConfig config;
  config.mode = mineq::sim::SwitchingMode::kWormhole;
  config.injection_rate = 0.8;
  config.packet_length = 4;
  config.lanes = 2;
  config.warmup_cycles = 50;
  config.measure_cycles = 200;
  std::uint64_t flits = 0;
  for (auto _ : state) {
    const auto result = engine.run(mineq::sim::Pattern::kUniform, config);
    flits += result.flits_delivered;
    benchmark::DoNotOptimize(result);
  }
  state.counters["flits/s"] = benchmark::Counter(
      static_cast<double>(flits), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WormholeUniform)->DenseRange(3, 9, 2);

// The wormhole counterparts of bench_sim's BM_SimLowLoad and
// BM_SimHotspotSaturated: a 1% offered load and a saturated hotspot,
// where few cells have anything new to decide each cycle.
static void BM_WormholeLowLoad(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kOmega, n));
  mineq::sim::SimConfig config;
  config.mode = mineq::sim::SwitchingMode::kWormhole;
  config.injection_rate = 0.01;
  config.packet_length = 4;
  config.lanes = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 1500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kUniform, config));
  }
}
BENCHMARK(BM_WormholeLowLoad)->Arg(10)->Unit(benchmark::kMillisecond);

static void BM_WormholeHotspotSaturated(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kBaseline, n));
  mineq::sim::SimConfig config;
  config.mode = mineq::sim::SwitchingMode::kWormhole;
  config.injection_rate = 1.0;
  config.packet_length = 4;
  config.lanes = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 1500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kHotSpot, config));
  }
}
BENCHMARK(BM_WormholeHotspotSaturated)->Arg(9)->Unit(benchmark::kMillisecond);

static void BM_WormholeLanes(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kBaseline, 6));
  mineq::sim::SimConfig config;
  config.mode = mineq::sim::SwitchingMode::kWormhole;
  config.injection_rate = 1.0;
  config.packet_length = 4;
  config.lanes = lanes;
  config.warmup_cycles = 50;
  config.measure_cycles = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kHotSpot, config));
  }
}
BENCHMARK(BM_WormholeLanes)->RangeMultiplier(2)->Range(1, 8);

static void BM_SweepGrid(benchmark::State& state) {
  // End-to-end cost of the experiment-sweep subsystem at a given thread
  // count (the grid is fixed: 2 networks x 2 modes x 5 rates).
  const auto threads = static_cast<std::size_t>(state.range(0));
  mineq::exp::SweepGrid grid;
  grid.networks = {mineq::min::NetworkKind::kOmega,
                   mineq::min::NetworkKind::kBaseline};
  grid.patterns = {mineq::sim::Pattern::kUniform};
  grid.modes = {mineq::sim::SwitchingMode::kStoreAndForward,
                mineq::sim::SwitchingMode::kWormhole};
  grid.lane_counts = {2};
  grid.rates = {0.2, 0.4, 0.6, 0.8, 1.0};
  grid.stages = 5;
  grid.base.packet_length = 4;
  grid.base.warmup_cycles = 50;
  grid.base.measure_cycles = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::exp::run_sweep(grid, threads));
  }
}
BENCHMARK(BM_SweepGrid)->Arg(1)->Arg(4);

static void BM_SweepPerPointRebuild(benchmark::State& state) {
  // Ablation for the shared-wiring precompute: the same 20-point grid as
  // BM_SweepGrid/1, but constructing a fresh Engine (schedule search,
  // verification, FlatWiring flatten) for every grid point the way a
  // naive sweep would. The gap to BM_SweepGrid/1 is what sharing one
  // wiring per {network, stages} saves.
  mineq::sim::SimConfig base;
  base.packet_length = 4;
  base.warmup_cycles = 50;
  base.measure_cycles = 200;
  const std::vector<mineq::min::NetworkKind> networks = {
      mineq::min::NetworkKind::kOmega, mineq::min::NetworkKind::kBaseline};
  const std::vector<mineq::sim::SwitchingMode> modes = {
      mineq::sim::SwitchingMode::kStoreAndForward,
      mineq::sim::SwitchingMode::kWormhole};
  const std::vector<double> rates = {0.2, 0.4, 0.6, 0.8, 1.0};
  for (auto _ : state) {
    for (const auto kind : networks) {
      for (const auto mode : modes) {
        for (const double rate : rates) {
          const mineq::sim::Engine engine(mineq::min::build_network(kind, 5));
          mineq::sim::SimConfig config = base;
          config.mode = mode;
          config.lanes = 2;
          config.injection_rate = rate;
          benchmark::DoNotOptimize(
              engine.run(mineq::sim::Pattern::kUniform, config));
        }
      }
    }
  }
}
BENCHMARK(BM_SweepPerPointRebuild);
