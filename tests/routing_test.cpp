#include "min/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "min/banyan.hpp"
#include "min/baseline.hpp"
#include "min/networks.hpp"
#include "min/pipid.hpp"
#include "perm/standard.hpp"
#include "test_seed.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mineq::min {
namespace {

TEST(RoutingTest, FindRouteFollowsArcs) {
  const MIDigraph g = baseline_network(4);
  for (std::uint32_t src = 0; src < 8; ++src) {
    for (std::uint32_t dst = 0; dst < 8; ++dst) {
      const auto route = find_route(g, src, dst);
      ASSERT_TRUE(route.has_value());
      ASSERT_EQ(route->cells.size(), 4U);
      ASSERT_EQ(route->ports.size(), 3U);
      EXPECT_EQ(route->cells.front(), src);
      EXPECT_EQ(route->cells.back(), dst);
      for (int s = 0; s < 3; ++s) {
        const auto children =
            g.children(s, route->cells[static_cast<std::size_t>(s)]);
        EXPECT_EQ(route->cells[static_cast<std::size_t>(s + 1)],
                  children[route->ports[static_cast<std::size_t>(s)]]);
      }
    }
  }
}

TEST(RoutingTest, FindRouteDetectsUnreachable) {
  // Identity chains: only the same cell index is reachable.
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  const MIDigraph g = network_from_pipids(seq);
  EXPECT_TRUE(find_route(g, 0, 0).has_value());
  EXPECT_FALSE(find_route(g, 0, 1).has_value());
  EXPECT_THROW((void)find_route(g, 8, 0), std::invalid_argument);
}

TEST(RoutingTest, ClassicalNetworksHaveBitSchedules) {
  // "these permutations are associated to a very simple bit directed
  // routing" — every classical network admits a destination-bit schedule.
  for (int n = 2; n <= 6; ++n) {
    for (NetworkKind kind : all_network_kinds()) {
      const MIDigraph g = build_network(kind, n);
      const auto schedule = find_bit_schedule(g);
      ASSERT_TRUE(schedule.has_value())
          << network_name(kind) << " n=" << n;
      EXPECT_TRUE(verify_bit_schedule(g, *schedule));
    }
  }
}

TEST(RoutingTest, BaselineScheduleConsumesHighBitsFirst) {
  // Baseline's stage-s connection forces destination bit w-s-1; the
  // schedule must read the destination MSB-first with no inversions.
  const MIDigraph g = baseline_network(5);
  const auto schedule = find_bit_schedule(g);
  ASSERT_TRUE(schedule.has_value());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(schedule->digit[static_cast<std::size_t>(s)], 4 - 1 - s);
    EXPECT_EQ(schedule->port_of_value[static_cast<std::size_t>(s)][0], 0U);
  }
}

TEST(RoutingTest, ScheduleMatchesUniquePaths) {
  const MIDigraph g = build_network(NetworkKind::kOmega, 5);
  const auto schedule = find_bit_schedule(g);
  ASSERT_TRUE(schedule.has_value());
  for (std::uint32_t src = 0; src < 16; src += 3) {
    for (std::uint32_t dst = 0; dst < 16; dst += 5) {
      const Route scheduled = route_with_schedule(g, *schedule, src, dst);
      const auto unique = find_route(g, src, dst);
      ASSERT_TRUE(unique.has_value());
      EXPECT_EQ(scheduled.cells, unique->cells);
      EXPECT_EQ(scheduled.ports, unique->ports);
    }
  }
}

TEST(RoutingTest, RandomPipidNetworksHaveSchedules) {
  MINEQ_SEEDED_RNG(rng, 149);
  for (int trial = 0; trial < 5; ++trial) {
    const MIDigraph g = test::random_banyan_pipid(5, rng);
    const auto schedule = find_bit_schedule(g);
    ASSERT_TRUE(schedule.has_value()) << "trial=" << trial;
    EXPECT_TRUE(verify_bit_schedule(g, *schedule));
  }
}

TEST(RoutingTest, NonBanyanHasNoSchedule) {
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  const MIDigraph g = network_from_pipids(seq);
  EXPECT_FALSE(find_bit_schedule(g).has_value());
}

TEST(RoutingTest, ScheduleArityValidated) {
  const MIDigraph g = baseline_network(3);
  DigitSchedule bad;
  bad.digit = {0};
  bad.port_of_value = {{0, 1}};
  EXPECT_THROW((void)route_with_schedule(g, bad, 0, 0), std::invalid_argument);
}

TEST(RoutingTest, InvalidDegreesHaveNoScheduleAndDoNotThrow) {
  // Cell 0 of the middle stage is dead (in-degree 0) and cell 3 has
  // in-degree 4. Every pair still routes, but FlatWiring cannot
  // represent the graph, so find_bit_schedule reports no schedule.
  const MIDigraph g(3, {Connection({2, 1, 2, 2}, {3, 3, 3, 3}, 2),
                        Connection({2, 0, 0, 1}, {3, 2, 2, 3}, 2)});
  ASSERT_FALSE(g.is_valid());
  std::optional<DigitSchedule> schedule;
  EXPECT_NO_THROW(schedule = find_bit_schedule(g));
  EXPECT_FALSE(schedule.has_value());
}

/// Reference for the differential test: intersect, per stage, the
/// (bit, invert) pairs that agree with the port find_route takes for
/// every (source, sink) pair; the lowest bit wins, plain before inverted.
struct RouteFilterSchedule {
  std::vector<int> bit;
  std::vector<unsigned> invert;
};

std::optional<RouteFilterSchedule> reference_bit_schedule(
    const MIDigraph& g) {
  const int n = g.stages();
  const int w = g.width();
  const auto hops = static_cast<std::size_t>(n - 1);
  // alive[s][2 * b + invert]
  std::vector<std::vector<char>> alive(
      hops, std::vector<char>(static_cast<std::size_t>(2 * w), 1));
  for (std::uint32_t src = 0; src < g.cells_per_stage(); ++src) {
    for (std::uint32_t dst = 0; dst < g.cells_per_stage(); ++dst) {
      const auto route = find_route(g, src, dst);
      if (!route.has_value()) return std::nullopt;
      for (std::size_t s = 0; s < hops; ++s) {
        for (int b = 0; b < w; ++b) {
          const unsigned bit = (dst >> b) & 1U;
          const auto i = static_cast<std::size_t>(2 * b);
          if (bit != route->ports[s]) alive[s][i] = 0;
          if ((bit ^ 1U) != route->ports[s]) alive[s][i + 1] = 0;
        }
      }
    }
  }
  RouteFilterSchedule schedule;
  for (const std::vector<char>& stage : alive) {
    const auto first = std::find(stage.begin(), stage.end(), 1);
    if (first == stage.end()) return std::nullopt;
    const auto chosen = static_cast<int>(first - stage.begin());
    schedule.bit.push_back(chosen / 2);
    schedule.invert.push_back(static_cast<unsigned>(chosen % 2));
  }
  return schedule;
}

/// A uniformly random valid table network: every connection feeds each
/// child from two links of a shuffled link list.
MIDigraph random_table_network(int stages, util::SplitMix64& rng) {
  const std::uint32_t cells = std::uint32_t{1} << (stages - 1);
  std::vector<Connection> connections;
  for (int s = 0; s + 1 < stages; ++s) {
    std::vector<std::uint32_t> links;
    for (std::uint32_t y = 0; y < 2 * cells; ++y) links.push_back(y / 2);
    for (std::size_t i = links.size() - 1; i > 0; --i) {
      std::swap(links[i], links[rng.below(i + 1)]);
    }
    std::vector<std::uint32_t> f(cells);
    std::vector<std::uint32_t> g(cells);
    for (std::uint32_t x = 0; x < cells; ++x) {
      f[x] = links[2 * x];
      g[x] = links[2 * x + 1];
    }
    connections.emplace_back(std::move(f), std::move(g), stages - 1);
  }
  return MIDigraph(stages, std::move(connections));
}

TEST(RoutingTest, BitRecoveryMatchesRouteReference) {
  MINEQ_SEEDED_RNG(rng, 151);
  std::vector<MIDigraph> networks;
  for (int trial = 0; trial < 20000; ++trial) {
    networks.push_back(
        random_table_network(2 + static_cast<int>(rng.below(4)), rng));
  }
  for (int trial = 0; trial < 120; ++trial) {
    const int stages = 2 + static_cast<int>(rng.below(6));
    networks.push_back(trial % 2 == 0
                           ? random_pipid_network(stages, rng)
                           : random_independent_network(stages, rng));
  }
  int with_schedule = 0;
  for (std::size_t i = 0; i < networks.size(); ++i) {
    const MIDigraph& g = networks[i];
    SCOPED_TRACE("network " + std::to_string(i) +
                 " stages=" + std::to_string(g.stages()));
    const auto expected = reference_bit_schedule(g);
    const auto schedule = find_bit_schedule(g);
    ASSERT_EQ(schedule.has_value(), expected.has_value());
    if (!schedule.has_value()) continue;
    ++with_schedule;
    EXPECT_EQ(schedule->digit, expected->bit);
    for (std::size_t s = 0; s < expected->invert.size(); ++s) {
      const unsigned inv = expected->invert[s];
      EXPECT_EQ(schedule->port_of_value[s],
                (std::vector<unsigned>{inv, inv ^ 1U}));
    }
    EXPECT_TRUE(verify_bit_schedule(g, *schedule));
  }
  // Both verdicts occur, so neither side is compared vacuously.
  EXPECT_GT(with_schedule, 100);
  EXPECT_LT(with_schedule, static_cast<int>(networks.size()) - 100);
}

}  // namespace
}  // namespace mineq::min
