/// \file bench_sim.cpp
/// \brief Packet-level simulation of the classical networks: saturation
/// throughput series (the classic MIN evaluation curves) and simulator
/// performance.

#include <iostream>

#include "min/networks.hpp"
#include "sim/engine.hpp"
#include "util/format.hpp"

#include "bench_main.hpp"

void print_report() {
  using namespace mineq;
  std::cout << "=== Saturation throughput of the classical networks ===\n\n";
  sim::SimConfig config;
  config.injection_rate = 1.0;
  config.warmup_cycles = 200;
  config.measure_cycles = 1500;
  config.seed = 12;

  util::TablePrinter table({"n", "terminals", "network", "uniform",
                            "shuffle", "complement"});
  for (int n : {4, 6}) {
    for (min::NetworkKind kind :
         {min::NetworkKind::kOmega, min::NetworkKind::kBaseline,
          min::NetworkKind::kIndirectBinaryCube}) {
      const sim::Engine engine(min::build_network(kind, n));
      const double uniform =
          engine.run(sim::Pattern::kUniform, config).throughput;
      const double shuffle =
          engine.run(sim::Pattern::kShuffle, config).throughput;
      const double complement =
          engine.run(sim::Pattern::kComplement, config).throughput;
      table.add_row({std::to_string(n),
                     std::to_string(std::uint64_t{1} << n),
                     min::network_name(kind), util::fixed(uniform, 3),
                     util::fixed(shuffle, 3), util::fixed(complement, 3)});
    }
  }
  std::cout << table.str()
            << "\n(uniform saturation decreases with stage count — the "
               "classic delta-network curve)\n\n";
}

static void BM_SimUniform(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kOmega, n));
  mineq::sim::SimConfig config;
  config.injection_rate = 0.8;
  config.warmup_cycles = 50;
  config.measure_cycles = 200;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const auto result = engine.run(mineq::sim::Pattern::kUniform, config);
    delivered += result.delivered;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pkts/s"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimUniform)->DenseRange(3, 9, 2);

static void BM_SimHotspot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kBaseline, n));
  mineq::sim::SimConfig config;
  config.injection_rate = 0.5;
  config.warmup_cycles = 50;
  config.measure_cycles = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kHotSpot, config));
  }
}
BENCHMARK(BM_SimHotspot)->DenseRange(3, 7, 2);

// The two ends of a load curve where most switch cells have nothing new
// to decide each cycle: a 1% offered load (almost every cell idle) and
// a saturated hotspot (almost every cell blocked behind the hot
// terminal's tree). The cycle kernels visit only the cells whose inputs
// changed, so these cost in proportion to traffic rather than to ports.
static void BM_SimLowLoad(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kOmega, n));
  mineq::sim::SimConfig config;
  config.injection_rate = 0.01;
  config.packet_length = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 1500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kUniform, config));
  }
}
BENCHMARK(BM_SimLowLoad)->Arg(10)->Unit(benchmark::kMillisecond);

static void BM_SimHotspotSaturated(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kBaseline, n));
  mineq::sim::SimConfig config;
  config.injection_rate = 1.0;
  config.packet_length = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 1500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kHotSpot, config));
  }
}
BENCHMARK(BM_SimHotspotSaturated)->Arg(9)->Unit(benchmark::kMillisecond);

static void BM_EngineConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g =
      mineq::min::build_network(mineq::min::NetworkKind::kBaseline, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::sim::Engine(g));
  }
}
BENCHMARK(BM_EngineConstruction)->DenseRange(3, 7, 2);
