/// \file routing_demo.cpp
/// \brief Bit-directed routing and packet simulation on the classical
/// networks — the application the paper's conclusion motivates ("these
/// permutations are associated to a very simple bit directed routing").
///
/// Usage: routing_demo [stages] [rate_percent]   (default 4 60)

#include <cstdlib>
#include <iostream>

#include "min/networks.hpp"
#include "min/routing.hpp"
#include "sim/engine.hpp"
#include "sim/perm_routing.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace mineq;

  const int stages = argc > 1 ? std::atoi(argv[1]) : 4;
  const int rate_percent = argc > 2 ? std::atoi(argv[2]) : 60;
  if (stages < 2 || stages > 10 || rate_percent < 1 || rate_percent > 100) {
    std::cerr << "usage: routing_demo [stages 2..10] [rate 1..100]\n";
    return 1;
  }

  // 1. Destination-bit schedules for the six networks.
  std::cout << "Destination-bit routing schedules (" << stages
            << " stages):\n\n";
  util::TablePrinter schedules({"network", "per-stage destination bit"});
  for (min::NetworkKind kind : min::all_network_kinds()) {
    const min::MIDigraph g = min::build_network(kind, stages);
    const auto schedule = min::find_bit_schedule(g);
    std::string bits;
    if (schedule.has_value()) {
      for (std::size_t s = 0; s < schedule->digit.size(); ++s) {
        if (s != 0) bits += ' ';
        bits += 'd' + std::to_string(schedule->digit[s]);
        if (schedule->port_of_value[s][0] != 0) bits += '~';
      }
    } else {
      bits = "(none)";
    }
    schedules.add_row({min::network_name(kind), bits});
  }
  std::cout << schedules.str() << '\n';

  // 2. A worked route on the Omega network.
  const min::MIDigraph omega =
      min::build_network(min::NetworkKind::kOmega, stages);
  const std::uint32_t src = 0;
  const std::uint32_t dst = omega.cells_per_stage() - 1;
  const auto route = min::find_route(omega, src, dst);
  if (route.has_value()) {
    std::cout << "Unique Omega route " << util::bit_tuple(src, stages - 1)
              << " -> " << util::bit_tuple(dst, stages - 1) << ": ";
    for (std::size_t s = 0; s < route->cells.size(); ++s) {
      if (s != 0) {
        std::cout << " -" << (route->ports[s - 1] == 0 ? 'f' : 'g') << "-> ";
      }
      std::cout << util::bit_tuple(route->cells[s], stages - 1);
    }
    std::cout << "\n\n";
  }

  // 3. Packet simulation across traffic patterns.
  sim::SimConfig config;
  config.injection_rate = rate_percent / 100.0;
  config.warmup_cycles = 300;
  config.measure_cycles = 3000;
  config.seed = 99;

  std::cout << "Packet simulation at " << rate_percent
            << "% injection (input-buffered 2x2 switches, "
            << config.measure_cycles << " measured cycles):\n\n";
  util::TablePrinter results(
      {"network", "pattern", "throughput", "avg latency", "p99 latency",
       "p-accept"});
  const sim::Pattern patterns[] = {sim::Pattern::kUniform,
                                   sim::Pattern::kShuffle,
                                   sim::Pattern::kBitReversal,
                                   sim::Pattern::kComplement};
  for (min::NetworkKind kind :
       {min::NetworkKind::kOmega, min::NetworkKind::kBaseline,
        min::NetworkKind::kIndirectBinaryCube}) {
    const sim::Engine engine(min::build_network(kind, stages));
    for (sim::Pattern pattern : patterns) {
      const sim::SimResult r = engine.run(pattern, config);
      results.add_row({min::network_name(kind), sim::pattern_name(pattern),
                       util::fixed(r.throughput, 3),
                       util::fixed(r.latency.mean(), 2),
                       util::fixed(r.latency_histogram.quantile(0.99), 0),
                       util::fixed(r.acceptance, 3)});
    }
  }
  std::cout << results.str() << '\n';

  // 4. Which of the deterministic patterns are admissible in one pass?
  std::cout << "One-pass (circuit-switched) admissibility:\n\n";
  util::TablePrinter admissible(
      {"network", "shuffle", "bitrev", "complement"});
  for (min::NetworkKind kind : min::all_network_kinds()) {
    const min::MIDigraph g = min::build_network(kind, stages);
    auto check = [&](sim::Pattern p) {
      return sim::is_admissible(g, sim::pattern_permutation(p, stages))
                 ? std::string("pass")
                 : std::string("block");
    };
    admissible.add_row({min::network_name(kind),
                        check(sim::Pattern::kShuffle),
                        check(sim::Pattern::kBitReversal),
                        check(sim::Pattern::kComplement)});
  }
  std::cout << admissible.str();
  return 0;
}
