/// \file bench_routing.cpp
/// \brief Bit-directed routing: schedule recovery, scheduled routing
/// versus generic unique-path extraction, and admissibility testing.

#include <iostream>

#include "min/networks.hpp"
#include "min/routing.hpp"
#include "sim/perm_routing.hpp"
#include "sim/traffic.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

#include "bench_main.hpp"

void print_report() {
  using namespace mineq;
  const int n = 5;
  std::cout << "=== Destination-bit schedules of the classical networks (n="
            << n << ") ===\n\n";
  util::TablePrinter table({"network", "stage bits (d_i = dest bit i)"});
  for (min::NetworkKind kind : min::all_network_kinds()) {
    const min::MIDigraph g = min::build_network(kind, n);
    const auto schedule = min::find_bit_schedule(g);
    std::string bits = "(none)";
    if (schedule.has_value()) {
      bits.clear();
      for (std::size_t s = 0; s < schedule->digit.size(); ++s) {
        if (s != 0) bits += ' ';
        bits += 'd' + std::to_string(schedule->digit[s]);
      }
    }
    table.add_row({min::network_name(kind), bits});
  }
  std::cout << table.str() << '\n';
}

static void BM_FindRoute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g = mineq::min::build_network(mineq::min::NetworkKind::kOmega, n);
  std::uint32_t pair = 0;
  const std::uint32_t cells = g.cells_per_stage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mineq::min::find_route(g, pair % cells, (pair * 7 + 3) % cells));
    ++pair;
  }
}
BENCHMARK(BM_FindRoute)->DenseRange(4, 14, 2);

static void BM_RouteWithSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g = mineq::min::build_network(mineq::min::NetworkKind::kOmega, n);
  // Omega's schedule is known in closed form (destination MSB-first; see
  // routing_test) — building it directly keeps the fixture O(n) where the
  // generic all-pairs recovery would dominate the benchmark at scale.
  mineq::min::DigitSchedule schedule;
  for (int s = 0; s + 1 < n; ++s) {
    schedule.digit.push_back(n - 2 - s);
    schedule.port_of_value.push_back({0, 1});
  }
  std::uint32_t pair = 0;
  const std::uint32_t cells = g.cells_per_stage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::route_with_schedule(
        g, schedule, pair % cells, (pair * 7 + 3) % cells));
    ++pair;
  }
}
BENCHMARK(BM_RouteWithSchedule)->DenseRange(4, 14, 2);

static void BM_FindBitSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g =
      mineq::min::build_network(mineq::min::NetworkKind::kBaseline, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::find_bit_schedule(g));
  }
}
BENCHMARK(BM_FindBitSchedule)->DenseRange(3, 9, 1);

static void BM_IsAdmissibleRandom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g = mineq::min::build_network(mineq::min::NetworkKind::kOmega, n);
  mineq::util::SplitMix64 rng(71);
  const auto pi =
      mineq::perm::Permutation::random(std::size_t{1} << n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::sim::is_admissible(g, pi));
  }
}
BENCHMARK(BM_IsAdmissibleRandom)->DenseRange(3, 9, 1);

static void BM_OmegaWindowAdmissible(benchmark::State& state) {
  // O(N n) closed-form admissibility for Omega vs the general router.
  const int n = static_cast<int>(state.range(0));
  mineq::util::SplitMix64 rng(71);
  const auto pi =
      mineq::perm::Permutation::random(std::size_t{1} << n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::sim::omega_window_admissible(pi, n));
  }
}
BENCHMARK(BM_OmegaWindowAdmissible)->DenseRange(3, 15, 2);

static void BM_AdmissibleFractionEstimate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g = mineq::min::build_network(mineq::min::NetworkKind::kOmega, n);
  mineq::util::SplitMix64 rng(73);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mineq::sim::admissible_fraction_estimate(g, 64, rng));
  }
}
BENCHMARK(BM_AdmissibleFractionEstimate)->DenseRange(3, 7, 1);
