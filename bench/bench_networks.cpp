/// \file bench_networks.cpp
/// \brief The six classical networks: construction cost and the full
/// pairwise equivalence matrix (the closing corollary as a benchmark).

#include <iostream>

#include "min/banyan.hpp"
#include "min/equivalence.hpp"
#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

#include "bench_main.hpp"

void print_report() {
  using namespace mineq;
  const int n = 6;
  std::cout << "=== Six classical networks at n=" << n
            << ": pairwise equivalence ===\n\n";
  const auto& kinds = min::all_network_kinds();
  std::vector<min::MIDigraph> nets;
  for (min::NetworkKind kind : kinds) {
    nets.push_back(min::build_network(kind, n));
  }
  std::vector<std::string> header = {"equivalent?"};
  for (min::NetworkKind kind : kinds) {
    header.push_back(min::network_name(kind).substr(0, 4));
  }
  util::TablePrinter matrix(header);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    std::vector<std::string> row = {min::network_name(kinds[i])};
    for (std::size_t j = 0; j < nets.size(); ++j) {
      row.push_back(min::are_topologically_equivalent(nets[i], nets[j])
                        ? "yes"
                        : "NO");
    }
    matrix.add_row(std::move(row));
  }
  std::cout << matrix.str() << '\n';
}

static void BM_BuildNetwork(benchmark::State& state) {
  const auto kind = static_cast<mineq::min::NetworkKind>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::build_network(kind, n));
  }
  state.SetLabel(mineq::min::network_name(kind));
}
BENCHMARK(BM_BuildNetwork)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {8, 12, 16}});

static void BM_PairwiseEquivalenceMatrix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<mineq::min::MIDigraph> nets;
  for (mineq::min::NetworkKind kind : mineq::min::all_network_kinds()) {
    nets.push_back(mineq::min::build_network(kind, n));
  }
  for (auto _ : state) {
    bool all = true;
    for (const auto& g : nets) {
      all = all && mineq::min::is_baseline_equivalent(g);
    }
    benchmark::DoNotOptimize(all);
  }
}
BENCHMARK(BM_PairwiseEquivalenceMatrix)->DenseRange(4, 12, 2);

static void BM_BanyanCheckClassical(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g =
      mineq::min::build_network(mineq::min::NetworkKind::kBaseline, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::is_banyan(g));
  }
  state.SetComplexityN(std::int64_t{1} << (n - 1));
}
BENCHMARK(BM_BanyanCheckClassical)->DenseRange(4, 14, 2)->Complexity();

static void BM_BanyanCheckFlatWiring(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto w = mineq::min::FlatWiring::from_digraph(
      mineq::min::build_network(mineq::min::NetworkKind::kBaseline, n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::is_banyan(w));
  }
}
BENCHMARK(BM_BanyanCheckFlatWiring)->DenseRange(4, 14, 2);

/// Radix-4 baseline with stages 3..6: 16 to 1024 cells per stage.
static void BM_BanyanCheckKary(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  const auto g = mineq::min::kary_baseline(stages, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::kary_is_banyan(g));
  }
}
BENCHMARK(BM_BanyanCheckKary)->DenseRange(3, 6, 1);

static void BM_BanyanDoubling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g =
      mineq::min::build_network(mineq::min::NetworkKind::kBaseline, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::is_banyan_doubling(g));
  }
}
BENCHMARK(BM_BanyanDoubling)->DenseRange(4, 12, 2);

static void BM_RandomPipidNetwork(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mineq::util::SplitMix64 rng(61);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mineq::min::random_pipid_network(n, rng));
  }
}
BENCHMARK(BM_RandomPipidNetwork)->DenseRange(4, 12, 4);
