#include "min/banyan.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "min/baseline.hpp"
#include "min/buddy.hpp"
#include "min/networks.hpp"
#include "min/pipid.hpp"
#include "perm/standard.hpp"
#include "test_seed.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mineq::min {
namespace {

TEST(BanyanTest, BaselineIsBanyan) {
  for (int n = 1; n <= 8; ++n) {
    EXPECT_TRUE(is_banyan(baseline_network(n))) << "n=" << n;
  }
}

TEST(BanyanTest, PathCountsFromSource) {
  const MIDigraph g = baseline_network(4);
  for (std::uint32_t u = 0; u < g.cells_per_stage(); ++u) {
    const auto counts = path_counts_from(g, u, 100);
    for (std::uint64_t c : counts) {
      EXPECT_EQ(c, 1U);
    }
  }
  EXPECT_THROW((void)path_counts_from(g, 8, 2), std::invalid_argument);
}

TEST(BanyanTest, DegeneratePipidStageBreaksBanyan) {
  // Fig. 5: a stage whose PIPID has theta^{-1}(0) = 0 produces double
  // links; parallel arcs mean two paths, so the Banyan property fails.
  const int n = 4;
  std::vector<perm::IndexPermutation> seq;
  seq.push_back(perm::perfect_shuffle(n));
  // sigma^{-1} shifted... use a PIPID fixing bit 0: subshuffle of the high
  // bits only, realized as conjugate; simplest: identity wiring.
  seq.push_back(perm::IndexPermutation::identity(n));
  seq.push_back(perm::perfect_shuffle(n));
  const MIDigraph g = network_from_pipids(seq);
  EXPECT_TRUE(g.is_valid());  // degrees are fine (double links)
  EXPECT_FALSE(is_banyan(g));
  const auto failure = banyan_failure(g);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->path_count, 1U);
}

TEST(BanyanTest, DisconnectedPairsDetected) {
  // Two parallel identity chains never mix: most pairs unreachable.
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  const MIDigraph g = network_from_pipids(seq);
  const auto failure = banyan_failure(g);
  ASSERT_TRUE(failure.has_value());
}

TEST(BanyanTest, DoublingAgreesWithCountingOnRandomNetworks) {
  MINEQ_SEEDED_RNG(rng, 61);
  for (int n = 2; n <= 6; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      const MIDigraph g = random_independent_network(n, rng);
      EXPECT_EQ(is_banyan(g), is_banyan_doubling(g))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(BanyanTest, DoublingAgreesOnClassicalNetworks) {
  for (int n = 2; n <= 7; ++n) {
    for (NetworkKind kind : all_network_kinds()) {
      const MIDigraph g = build_network(kind, n);
      EXPECT_TRUE(is_banyan(g)) << network_name(kind) << " n=" << n;
      EXPECT_TRUE(is_banyan_doubling(g)) << network_name(kind);
    }
  }
}

TEST(BanyanTest, SingleStageIsTriviallyBanyan) {
  EXPECT_TRUE(is_banyan(MIDigraph(1, {})));
}

/// \p g with every arc of connection \p s - 1 that lands in stage-s cell
/// \p orphan moved to \p target. When both cells reach the same sinks,
/// each source still reaches them along one path, and the orphan now
/// has no parent, so nothing its out-arcs do changes any path count.
MIDigraph redirect_into(const MIDigraph& g, int s, std::uint32_t orphan,
                        std::uint32_t target) {
  const auto redirect = [&](std::vector<std::uint32_t> table) {
    for (std::uint32_t& child : table) {
      if (child == orphan) child = target;
    }
    return table;
  };
  std::vector<Connection> connections = g.connections();
  const Connection& into = g.connection(s - 1);
  connections[static_cast<std::size_t>(s - 1)] =
      Connection(redirect(into.f_table()), redirect(into.g_table()),
                 g.stages() - 1);
  return MIDigraph(g.stages(), std::move(connections));
}

/// \p g with the out-arcs of stage-s cell \p x set to (f, g).
MIDigraph rewire_cell(const MIDigraph& g, int s, std::uint32_t x,
                      std::uint32_t f, std::uint32_t gx) {
  std::vector<Connection> connections = g.connections();
  std::vector<std::uint32_t> f_table = g.connection(s).f_table();
  std::vector<std::uint32_t> g_table = g.connection(s).g_table();
  f_table[x] = f;
  g_table[x] = gx;
  connections[static_cast<std::size_t>(s)] =
      Connection(std::move(f_table), std::move(g_table), g.stages() - 1);
  return MIDigraph(g.stages(), std::move(connections));
}

TEST(BanyanTest, UnreachableParallelArcFollowsPathDefinition) {
  // baseline(n) with stage-1 cell 0 orphaned onto its buddy (same
  // children, hence same sinks) and its own out-arcs made parallel. The
  // degrees are invalid, but no source reaches the parallel arc, so every
  // (source, sink) pair keeps exactly one path: Banyan by the definition,
  // on both sides of the 64-cell boundary.
  for (const int n : {4, 8}) {
    const MIDigraph base = baseline_network(n);
    const std::uint32_t orphan = 0;
    const std::optional<std::uint32_t> buddy =
        buddy_partner(base.connection(1), orphan);
    ASSERT_TRUE(buddy.has_value());
    const MIDigraph redirected = redirect_into(base, 1, orphan, *buddy);
    const std::uint32_t child = base.connection(1).f(orphan);
    const MIDigraph g = rewire_cell(redirected, 1, orphan, child, child);
    ASSERT_FALSE(g.is_valid());
    ASSERT_TRUE(g.connection(1).has_parallel_arcs());
    ASSERT_FALSE(banyan_failure(g).has_value()) << "n=" << n;
    EXPECT_TRUE(is_banyan(g)) << "n=" << n;
  }
}

/// Image tables drawn with no degree constraint at all.
MIDigraph random_table_digraph(int stages, util::SplitMix64& rng) {
  const std::uint32_t cells = std::uint32_t{1} << (stages - 1);
  std::vector<Connection> connections;
  for (int s = 0; s + 1 < stages; ++s) {
    std::vector<std::uint32_t> f(cells);
    std::vector<std::uint32_t> g(cells);
    for (std::uint32_t x = 0; x < cells; ++x) {
      f[x] = static_cast<std::uint32_t>(rng.below(cells));
      g[x] = static_cast<std::uint32_t>(rng.below(cells));
    }
    connections.emplace_back(std::move(f), std::move(g), stages - 1);
  }
  return MIDigraph(stages, std::move(connections));
}

/// Last-stage cells reachable from cell \p x of stage \p s.
std::vector<char> sinks_from(const MIDigraph& g, int s, std::uint32_t x) {
  std::vector<char> reach(g.cells_per_stage(), 0);
  reach[x] = 1;
  for (; s + 1 < g.stages(); ++s) {
    std::vector<char> next(g.cells_per_stage(), 0);
    for (std::uint32_t y = 0; y < g.cells_per_stage(); ++y) {
      if (reach[y] == 0) continue;
      for (const std::uint32_t child : g.connection(s).children(y)) {
        next[child] = 1;
      }
    }
    reach.swap(next);
  }
  return reach;
}

/// A Banyan network with invalid degrees: a random inner cell of a random
/// Banyan PIPID network is orphaned onto another cell with the same sinks
/// (one exists: the network is baseline-equivalent, so its stage-s cells
/// share sinks in groups of 2^s), and its out-arcs are redrawn at random,
/// parallel ones included.
MIDigraph random_orphaned_banyan(int stages, util::SplitMix64& rng) {
  const MIDigraph g = test::random_banyan_pipid(stages, rng);
  const std::uint32_t cells = g.cells_per_stage();
  const int s = 1 + static_cast<int>(rng.below(
                        static_cast<std::uint64_t>(stages - 2)));
  const auto orphan = static_cast<std::uint32_t>(rng.below(cells));
  const std::vector<char> sinks = sinks_from(g, s, orphan);
  std::uint32_t target = orphan;
  while (target == orphan || sinks_from(g, s, target) != sinks) {
    target = static_cast<std::uint32_t>(rng.below(cells));
  }
  const auto child = static_cast<std::uint32_t>(rng.below(cells));
  const auto other = rng.below(2) == 0
                         ? child
                         : static_cast<std::uint32_t>(rng.below(cells));
  return rewire_cell(redirect_into(g, s, orphan, target), s, orphan, child,
                     other);
}

/// \p g with one parallel arc at a random cell and valid degrees kept:
/// the arc the cell loses is handed to another parent of its other
/// child. Source 0 reaches the cell only at the first few stages, so
/// most of these fail from other sources only.
MIDigraph with_parallel_arc(const MIDigraph& g, util::SplitMix64& rng) {
  const int s = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(g.stages() - 1)));
  const std::uint32_t cells = g.cells_per_stage();
  std::vector<std::uint32_t> f = g.connection(s).f_table();
  std::vector<std::uint32_t> h = g.connection(s).g_table();
  const auto x = static_cast<std::uint32_t>(rng.below(cells));
  const std::uint32_t lost = h[x];
  for (std::uint32_t p = 0; p < cells; ++p) {
    if (p == x) continue;
    if (f[p] == f[x] || h[p] == f[x]) {
      (f[p] == f[x] ? f[p] : h[p]) = lost;
      break;
    }
  }
  h[x] = f[x];
  std::vector<Connection> connections = g.connections();
  connections[static_cast<std::size_t>(s)] =
      Connection(std::move(f), std::move(h), g.stages() - 1);
  return MIDigraph(g.stages(), std::move(connections));
}

/// The path-count definition over the packed records.
bool wiring_definition_is_banyan(const FlatWiring& w) {
  for (std::uint32_t u = 0; u < w.cells_per_stage(); ++u) {
    for (const std::uint64_t c : path_counts_from(w, u, /*cap=*/2)) {
      if (c != 1) return false;
    }
  }
  return true;
}

TEST(BanyanTest, KernelMatchesPathCountDefinition) {
  // Sizes 1..10 cross the one-word (64-cell) and the partial-block
  // (256-cell) boundaries of the word-parallel kernel; invalid-degree
  // digraphs have no FlatWiring and are checked on the tables alone.
  MINEQ_SEEDED_RNG(rng, 71);
  int banyan = 0;
  int invalid_banyan = 0;
  int valid_non_banyan = 0;
  for (int n = 1; n <= 10; ++n) {
    std::vector<MIDigraph> networks;
    if (n == 1) networks.emplace_back(1, std::vector<Connection>{});
    for (int trial = 0; n > 1 && trial < 4; ++trial) {
      networks.push_back(random_table_digraph(n, rng));
      networks.push_back(random_pipid_network(n, rng));
      networks.push_back(random_independent_network(n, rng));
      std::vector<Connection> valid;
      for (int s = 0; s + 1 < n; ++s) {
        valid.push_back(Connection::random_valid(n - 1, rng));
      }
      networks.emplace_back(n, std::move(valid));
      networks.push_back(
          with_parallel_arc(test::random_banyan_pipid(n, rng), rng));
      if (n >= 3) networks.push_back(random_orphaned_banyan(n, rng));
    }
    for (std::size_t i = 0; i < networks.size(); ++i) {
      const MIDigraph& g = networks[i];
      SCOPED_TRACE("n=" + std::to_string(n) + " network " +
                   std::to_string(i));
      const bool expected = !banyan_failure(g).has_value();
      banyan += expected ? 1 : 0;
      EXPECT_EQ(is_banyan(g), expected);
      if (!g.is_valid()) {
        invalid_banyan += expected ? 1 : 0;
        continue;
      }
      valid_non_banyan += expected ? 0 : 1;
      const FlatWiring w = FlatWiring::from_digraph(g);
      ASSERT_EQ(wiring_definition_is_banyan(w), expected);
      EXPECT_EQ(is_banyan(w), expected);
    }
  }
  // Both verdicts, and Banyan networks with invalid degrees, occur.
  EXPECT_GT(banyan, 40);
  EXPECT_GT(valid_non_banyan, 40);
  EXPECT_GE(invalid_banyan, 4 * 8);
}

}  // namespace
}  // namespace mineq::min
