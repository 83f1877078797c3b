/// \file flat_wiring_test.cpp
/// \brief The stage-packed wiring IR: structural invariants, agreement
/// between the two constructors, and agreement of the FlatWiring fast
/// paths (Banyan kernel, component profiles, equivalence verdicts) with the
/// MIDigraph-table implementations.

#include "min/flat_wiring.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "min/banyan.hpp"
#include "min/equivalence.hpp"
#include "min/networks.hpp"
#include "min/pipid.hpp"
#include "min/properties.hpp"
#include "test_seed.hpp"

namespace mineq::min {
namespace {

TEST(FlatWiringTest, MatchesDigraphChildrenAndSlots) {
  const MIDigraph g = build_network(NetworkKind::kOmega, 4);
  const FlatWiring w = FlatWiring::from_digraph(g);
  ASSERT_EQ(w.stages(), g.stages());
  ASSERT_EQ(w.radix(), 2);  // MIDigraphs always flatten at radix 2
  ASSERT_EQ(w.links_per_stage(), 2U * g.cells_per_stage());
  ASSERT_EQ(w.cells_per_stage(), g.cells_per_stage());
  for (int s = 0; s + 1 < g.stages(); ++s) {
    for (std::uint32_t x = 0; x < g.cells_per_stage(); ++x) {
      const auto children = g.children(s, x);
      EXPECT_EQ(w.child(s, x, 0), children[0]);
      EXPECT_EQ(w.child(s, x, 1), children[1]);
    }
  }
}

TEST(FlatWiringTest, SlotsFillInSourceOrderAndUpInvertsDown) {
  SCOPED_TRACE(mineq::test::seed_trace());
  auto rng = mineq::test::seeded_rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const MIDigraph g = random_independent_network(5, rng);
    const FlatWiring w = FlatWiring::from_digraph(g);
    for (int s = 0; s + 1 < g.stages(); ++s) {
      // Each child cell receives exactly one arc per input slot, and the
      // up records invert the down records arc for arc.
      std::vector<std::array<int, 2>> seen(g.cells_per_stage(), {0, 0});
      for (std::uint32_t x = 0; x < g.cells_per_stage(); ++x) {
        for (unsigned port = 0; port < 2; ++port) {
          const std::uint32_t child = w.child(s, x, port);
          const unsigned slot = w.slot(s, x, port);
          ++seen[child][slot];
          EXPECT_EQ(w.parent(s, child, slot), x);
          EXPECT_EQ(w.parent_port(s, child, slot), port);
        }
      }
      for (std::uint32_t y = 0; y < g.cells_per_stage(); ++y) {
        EXPECT_EQ(seen[y][0], 1);
        EXPECT_EQ(seen[y][1], 1);
      }
    }
  }
}

TEST(FlatWiringTest, PipidConstructorMatchesDigraphConstructor) {
  for (const NetworkKind kind : all_network_kinds()) {
    for (int n : {2, 3, 5}) {
      const auto pipids = network_pipid_sequence(kind, n);
      const FlatWiring direct = FlatWiring::from_pipids(pipids);
      const FlatWiring via_tables =
          FlatWiring::from_digraph(network_from_pipids(pipids));
      EXPECT_EQ(direct, via_tables) << network_name(kind) << " n=" << n;
    }
  }
}

TEST(FlatWiringTest, RepresentsDegenerateDoubleLinkStages) {
  // A degenerate PIPID (theta fixing position 0) drops the port bit:
  // f == g, double links (the paper's Fig. 5) — but every in-degree is
  // still exactly 2, so the stage flattens, with both slots of a child
  // fed by the same parent, and fails at the Banyan check instead.
  const int n = 4;
  const std::vector<perm::IndexPermutation> pipids(
      static_cast<std::size_t>(n - 1), perm::IndexPermutation::identity(n));
  const FlatWiring w = FlatWiring::from_pipids(pipids);
  EXPECT_EQ(w, FlatWiring::from_digraph(network_from_pipids(pipids)));
  for (std::uint32_t x = 0; x < w.cells_per_stage(); ++x) {
    EXPECT_EQ(w.parent(0, x, 0), w.parent(0, x, 1));
  }
  EXPECT_FALSE(is_banyan(w));
  const EquivalenceReport report = check_baseline_equivalence(w);
  EXPECT_TRUE(report.valid_degrees);
  EXPECT_EQ(report.failure, "banyan");
}

TEST(FlatWiringTest, RejectsInvalidStages) {
  // In-degree violations are unrepresentable: a connection sending every
  // arc to cell 0 gives cell 0 in-degree 4 and cell 1 in-degree 0.
  const Connection bad({0, 0}, {0, 0}, /*width=*/1);
  const MIDigraph g(2, {bad});
  ASSERT_FALSE(g.is_valid());
  EXPECT_THROW((void)FlatWiring::from_digraph(g), std::invalid_argument);
  EXPECT_THROW((void)FlatWiring::from_pipids({}), std::invalid_argument);
}

TEST(FlatWiringTest, BanyanAndProfilesMatchTableImplementations) {
  SCOPED_TRACE(mineq::test::seed_trace());
  auto rng = mineq::test::seeded_rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    // Mix PIPID-wired (usually Banyan) and random valid (usually not)
    // networks so both verdicts are exercised.
    const MIDigraph g = trial % 2 == 0 ? random_pipid_network(5, rng)
                                       : random_independent_network(5, rng);
    if (!g.is_valid()) continue;
    const FlatWiring w = FlatWiring::from_digraph(g);
    EXPECT_EQ(is_banyan(w), is_banyan(g));
    EXPECT_EQ(is_banyan(w, /*threads=*/4), is_banyan(g));
    EXPECT_EQ(path_counts_from(w, 3), path_counts_from(g, 3));
    EXPECT_EQ(prefix_component_profile(w), prefix_component_profile(g));
    EXPECT_EQ(suffix_component_profile(w), suffix_component_profile(g));
    EXPECT_EQ(satisfies_p1_star(w), satisfies_p1_star(g));
    EXPECT_EQ(satisfies_p_star_n(w), satisfies_p_star_n(g));
    EXPECT_EQ(component_count_range(w, 1, 3), component_count_range(g, 1, 3));
  }
}

TEST(FlatWiringTest, EquivalenceVerdictsMatchOnClassicalNetworks) {
  for (const NetworkKind kind : all_network_kinds()) {
    const MIDigraph g = build_network(kind, 5);
    const FlatWiring w = FlatWiring::from_digraph(g);
    const EquivalenceReport via_wiring = check_baseline_equivalence(w);
    const EquivalenceReport via_digraph = check_baseline_equivalence(g);
    EXPECT_TRUE(via_wiring.equivalent) << network_name(kind);
    EXPECT_EQ(via_wiring.equivalent, via_digraph.equivalent);
    EXPECT_EQ(via_wiring.failure, via_digraph.failure);
    EXPECT_TRUE(is_baseline_equivalent(w));
  }
}

TEST(FlatWiringTest, EquivalenceReportsDegreeFailureWithoutWiring) {
  const Connection bad({0, 0}, {0, 0}, /*width=*/1);
  const EquivalenceReport report =
      check_baseline_equivalence(MIDigraph(2, {bad}));
  EXPECT_FALSE(report.valid_degrees);
  EXPECT_EQ(report.failure, "degrees");
}

}  // namespace
}  // namespace mineq::min
