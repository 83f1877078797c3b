/// \file bench_kary.cpp
/// \brief Extension ablation: the generalized characterization over
/// r x r cells (the paper's closing remark), including the cost of the
/// checks as the radix grows.

#include <iostream>

#include "fault/fault_model.hpp"
#include "min/banyan.hpp"
#include "min/equivalence.hpp"
#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "sim/engine.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

#include "bench_main.hpp"

void print_report() {
  using namespace mineq;
  std::cout << "=== Radix-r baseline networks and the generalized "
               "characterization ===\n\n";
  util::TablePrinter table({"radix", "stages", "cells", "banyan", "P(1,*)",
                            "P(*,n)", "equivalent"});
  for (int radix : {2, 3, 4, 5}) {
    for (int stages : {2, 3, 4}) {
      double cells = 1;
      for (int i = 0; i + 1 < stages; ++i) cells *= radix;
      if (cells > 4096) continue;
      const min::KaryMIDigraph g = min::kary_baseline(stages, radix);
      const min::EquivalenceReport report =
          min::check_baseline_equivalence(g);
      table.add_row({std::to_string(radix), std::to_string(stages),
                     std::to_string(g.cells_per_stage()),
                     report.banyan ? "yes" : "no",
                     report.p1_star ? "yes" : "no",
                     report.p_star_n ? "yes" : "no",
                     report.equivalent ? "yes" : "no"});
    }
  }
  std::cout << table.str() << '\n';

  // The FINDING: unaligned independent connections break equivalence at
  // r >= 3 even when Banyan.
  util::SplitMix64 rng(97);
  int banyan = 0;
  int equivalent = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<min::KaryConnection> conns;
    conns.push_back(min::KaryConnection::random_independent(3, 2, rng));
    conns.push_back(min::KaryConnection::random_independent(3, 2, rng));
    const min::KaryMIDigraph g(3, 3, std::move(conns));
    if (!min::kary_is_banyan(g)) continue;
    ++banyan;
    if (min::is_baseline_equivalent(g)) ++equivalent;
  }
  std::cout << "radix-3 Banyan networks from UNALIGNED independent "
               "connections: "
            << equivalent << "/" << banyan
            << " baseline-equivalent (verbatim Theorem-3 generalization "
               "fails)\n";
  int aligned_banyan = 0;
  int aligned_equivalent = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<min::KaryConnection> conns;
    conns.push_back(
        min::KaryConnection::random_independent_aligned(3, 2, rng));
    conns.push_back(
        min::KaryConnection::random_independent_aligned(3, 2, rng));
    const min::KaryMIDigraph g(3, 3, std::move(conns));
    if (!min::kary_is_banyan(g)) continue;
    ++aligned_banyan;
    if (min::is_baseline_equivalent(g)) ++aligned_equivalent;
  }
  std::cout << "radix-3 Banyan networks from ALIGNED independent "
               "connections:   "
            << aligned_equivalent << "/" << aligned_banyan
            << " baseline-equivalent (restriction restores the theorem)\n\n";
}

static void BM_KaryBaselineConstruction(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const int stages = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::kary_baseline(stages, radix));
  }
}
BENCHMARK(BM_KaryBaselineConstruction)
    ->ArgsProduct({{2, 3, 4, 8}, {3, 4, 5}});

static void BM_KaryEquivalenceCheck(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const int stages = static_cast<int>(state.range(1));
  const auto g = mineq::min::kary_omega(stages, radix);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::is_baseline_equivalent(g));
  }
}
BENCHMARK(BM_KaryEquivalenceCheck)->ArgsProduct({{2, 3, 4}, {3, 4, 5}});

static void BM_KaryIndependenceTest(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const int digits = static_cast<int>(state.range(1));
  mineq::util::SplitMix64 rng(5);
  const auto conn = mineq::min::KaryConnection::random_independent_aligned(
      radix, digits, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conn.is_independent());
  }
}
BENCHMARK(BM_KaryIndependenceTest)->ArgsProduct({{2, 3, 4}, {2, 3, 4}});

// ---------------------------------------------------------------------------
// The k-ary FlatWiring IR and simulators: radix-2 vs radix-4 pairs over
// matched terminal counts (radix 2 at n stages vs radix 4 at n/2 + 1
// stages keeps the fabrics comparable in size).
// ---------------------------------------------------------------------------

static void BM_KaryFlatten(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const int stages = static_cast<int>(state.range(1));
  const auto g = mineq::min::kary_omega(stages, radix);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::FlatWiring::from_kary(g));
  }
}
BENCHMARK(BM_KaryFlatten)->Args({2, 9})->Args({4, 5})->Args({8, 4});

static void BM_KaryWiringBanyanCheck(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const int stages = static_cast<int>(state.range(1));
  const auto w =
      mineq::min::FlatWiring::from_kary(mineq::min::kary_omega(stages, radix));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::is_banyan(w));
  }
}
// 256 cells each: 2^8 vs 4^4 vs (roughly) 8^3 = 512.
BENCHMARK(BM_KaryWiringBanyanCheck)->Args({2, 9})->Args({4, 5})->Args({8, 4});

static void BM_KaryWiringEquivalence(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const int stages = static_cast<int>(state.range(1));
  const auto w = mineq::min::FlatWiring::from_kary(
      mineq::min::kary_baseline(stages, radix));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::check_baseline_equivalence(w));
  }
}
BENCHMARK(BM_KaryWiringEquivalence)->Args({2, 9})->Args({4, 5})->Args({8, 4});

namespace {

mineq::sim::SimConfig kary_sim_config(mineq::sim::SwitchingMode mode) {
  mineq::sim::SimConfig config;
  config.mode = mode;
  config.injection_rate = 0.6;
  config.packet_length = 4;
  config.lanes = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 31;
  return config;
}

}  // namespace

/// Radix-2 (6 stages, 64 terminals) vs radix-4 (3 stages, 64 terminals):
/// the same terminal count through fatter, shallower switches.
static void BM_KarySimSaf(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const int stages = static_cast<int>(state.range(1));
  const mineq::sim::Engine engine(mineq::min::kary_omega(stages, radix));
  const auto config =
      kary_sim_config(mineq::sim::SwitchingMode::kStoreAndForward);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kUniform, config));
  }
}
BENCHMARK(BM_KarySimSaf)->Args({2, 6})->Args({4, 3})
    ->Unit(benchmark::kMillisecond);

static void BM_KarySimWormhole(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const int stages = static_cast<int>(state.range(1));
  const mineq::sim::Engine engine(mineq::min::kary_omega(stages, radix));
  const auto config = kary_sim_config(mineq::sim::SwitchingMode::kWormhole);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kUniform, config));
  }
}
BENCHMARK(BM_KarySimWormhole)->Args({2, 6})->Args({4, 3})
    ->Unit(benchmark::kMillisecond);

static void BM_KarySimFaulted(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const int stages = static_cast<int>(state.range(1));
  const mineq::sim::Engine engine(mineq::min::kary_omega(stages, radix));
  const mineq::fault::FaultMask mask = mineq::fault::build_fault_mask(
      engine.wiring(),
      mineq::fault::FaultSpec{mineq::fault::FaultKind::kPartialPort, 0.2, 3});
  const auto config =
      kary_sim_config(mineq::sim::SwitchingMode::kStoreAndForward);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kUniform, config, &mask));
  }
}
BENCHMARK(BM_KarySimFaulted)->Args({2, 6})->Args({4, 3})
    ->Unit(benchmark::kMillisecond);
