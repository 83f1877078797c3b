/// \file characterization_test.cpp
/// \brief Differential test of the paper's characterization (Banyan +
/// P(1,*) + P(*,n)) over every representation against an oracle that
/// shares no code with the DSU sweeps: each stage-range sub-digraph is
/// built explicitly as a graph::Digraph and counted with
/// graph::component_count, degrees are tallied from the child lists,
/// and Banyan is a plain per-source path count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "graph/components.hpp"
#include "graph/digraph.hpp"
#include "min/equivalence.hpp"
#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "min/properties.hpp"
#include "test_seed.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mineq::min {

void PrintTo(const EquivalenceReport& r, std::ostream* os) {
  *os << "{degrees=" << r.valid_degrees << " banyan=" << r.banyan
      << " P(1,*)=" << r.p1_star << " P(*,n)=" << r.p_star_n
      << " equivalent=" << r.equivalent << " failure=\"" << r.failure
      << "\"}";
}

namespace {

/// A network as plain child lists, read through each representation's
/// public accessors: children[s][x] lists the stage-(s+1) children of
/// cell x of stage s.
struct Arcs {
  int stages = 0;
  unsigned radix = 0;
  std::uint32_t cells = 0;
  std::vector<std::vector<std::vector<std::uint32_t>>> children;
};

Arcs arcs_of(const MIDigraph& g) {
  Arcs a{g.stages(), 2, g.cells_per_stage(), {}};
  for (int s = 0; s + 1 < g.stages(); ++s) {
    auto& stage = a.children.emplace_back();
    for (std::uint32_t x = 0; x < a.cells; ++x) {
      const auto kids = g.children(s, x);
      stage.emplace_back(kids.begin(), kids.end());
    }
  }
  return a;
}

Arcs arcs_of(const FlatWiring& w) {
  Arcs a{w.stages(), static_cast<unsigned>(w.radix()), w.cells_per_stage(),
         {}};
  for (int s = 0; s + 1 < w.stages(); ++s) {
    auto& stage = a.children.emplace_back();
    for (std::uint32_t x = 0; x < a.cells; ++x) {
      auto& kids = stage.emplace_back();
      for (unsigned port = 0; port < a.radix; ++port) {
        kids.push_back(w.child(s, x, port));
      }
    }
  }
  return a;
}

Arcs arcs_of(const KaryMIDigraph& g) {
  Arcs a{g.stages(), static_cast<unsigned>(g.radix()), g.cells_per_stage(),
         {}};
  for (int s = 0; s + 1 < g.stages(); ++s) {
    auto& stage = a.children.emplace_back();
    for (std::uint32_t x = 0; x < a.cells; ++x) {
      auto& kids = stage.emplace_back();
      for (unsigned t = 0; t < a.radix; ++t) {
        kids.push_back(g.connection(s).child(t, x));
      }
    }
  }
  return a;
}

/// Components of the sub-digraph spanned by stages lo..hi.
std::size_t oracle_count(const Arcs& a, int lo, int hi) {
  graph::Digraph sub(static_cast<std::size_t>(hi - lo + 1) * a.cells);
  for (int s = lo; s < hi; ++s) {
    const auto row = static_cast<std::uint32_t>(s - lo) * a.cells;
    for (std::uint32_t x = 0; x < a.cells; ++x) {
      for (const std::uint32_t child : a.children[s][x]) {
        sub.add_arc(row + x, row + a.cells + child);
      }
    }
  }
  return graph::component_count(sub);
}

/// cells / radix^span.
std::size_t expected_count(const Arcs& a, int span) {
  std::size_t expected = a.cells;
  for (int k = 0; k < span; ++k) expected /= a.radix;
  return expected;
}

bool oracle_valid(const Arcs& a) {
  for (const auto& stage : a.children) {
    std::vector<unsigned> in_degree(a.cells, 0);
    for (const auto& kids : stage) {
      for (const std::uint32_t child : kids) ++in_degree[child];
    }
    for (const unsigned d : in_degree) {
      if (d != a.radix) return false;
    }
  }
  return true;
}

/// Exactly one path from every first-stage cell to every last-stage
/// cell, counted per source (saturating at 2).
bool oracle_banyan(const Arcs& a) {
  for (std::uint32_t source = 0; source < a.cells; ++source) {
    std::vector<unsigned> paths(a.cells, 0);
    paths[source] = 1;
    for (const auto& stage : a.children) {
      std::vector<unsigned> next(a.cells, 0);
      for (std::uint32_t x = 0; x < a.cells; ++x) {
        for (const std::uint32_t child : stage[x]) {
          next[child] = std::min(2U, next[child] + paths[x]);
        }
      }
      paths.swap(next);
    }
    for (const unsigned p : paths) {
      if (p != 1) return false;
    }
  }
  return true;
}

/// Every prefix and suffix count, and the characterization's verdicts.
struct Oracle {
  std::vector<std::size_t> prefix;  ///< prefix[j] = count of stages 0..j
  std::vector<std::size_t> suffix;  ///< suffix[i] = count of i..last
  bool valid = false;
  bool banyan = false;
  bool p1_star = true;
  bool p_star_n = true;

  /// The report the fail-fast characterization must produce: a check
  /// runs only if every earlier one held.
  [[nodiscard]] EquivalenceReport report() const {
    EquivalenceReport r;
    r.valid_degrees = valid;
    r.banyan = valid && banyan;
    r.p1_star = r.banyan && p1_star;
    r.p_star_n = r.p1_star && p_star_n;
    r.equivalent = r.p_star_n;
    if (!r.valid_degrees) {
      r.failure = "degrees";
    } else if (!r.banyan) {
      r.failure = "banyan";
    } else if (!r.p1_star) {
      r.failure = "P(1,*)";
    } else if (!r.p_star_n) {
      r.failure = "P(*,n)";
    }
    return r;
  }
};

Oracle oracle_of(const Arcs& a) {
  Oracle o;
  const int last = a.stages - 1;
  for (int j = 0; j <= last; ++j) {
    o.prefix.push_back(oracle_count(a, 0, j));
    o.p1_star = o.p1_star && o.prefix.back() == expected_count(a, j);
  }
  for (int i = 0; i <= last; ++i) {
    o.suffix.push_back(oracle_count(a, i, last));
    o.p_star_n = o.p_star_n && o.suffix.back() == expected_count(a, last - i);
  }
  o.valid = oracle_valid(a);
  o.banyan = oracle_banyan(a);
  return o;
}

/// Per-outcome tallies, so the test proves every branch was exercised.
struct Tally {
  int networks = 0;
  int degrees = 0;
  int banyan = 0;
  int p1_star = 0;
  int p_star_n = 0;
  int equivalent = 0;

  void add(const EquivalenceReport& r) {
    ++networks;
    if (r.equivalent) ++equivalent;
    if (r.failure == "degrees") ++degrees;
    if (r.failure == "banyan") ++banyan;
    if (r.failure == "P(1,*)") ++p1_star;
    if (r.failure == "P(*,n)") ++p_star_n;
  }
};

/// \p g with the second arc of a random cell moved onto its first: a
/// parallel arc, so invalid degrees.
MIDigraph with_parallel_arc(const MIDigraph& g, util::SplitMix64& rng) {
  std::vector<Connection> conns = g.connections();
  const auto s = static_cast<std::size_t>(
      rng.below(static_cast<std::uint64_t>(conns.size())));
  std::vector<std::uint32_t> f = conns[s].f_table();
  std::vector<std::uint32_t> gt = conns[s].g_table();
  const auto x = static_cast<std::size_t>(rng.below(f.size()));
  gt[x] = f[x];
  conns[s] = Connection(std::move(f), std::move(gt), g.width());
  return MIDigraph(g.stages(), std::move(conns));
}

KaryMIDigraph with_parallel_arc(const KaryMIDigraph& g,
                                util::SplitMix64& rng) {
  std::vector<KaryConnection> conns;
  for (int s = 0; s + 1 < g.stages(); ++s) conns.push_back(g.connection(s));
  const auto s = static_cast<std::size_t>(
      rng.below(static_cast<std::uint64_t>(conns.size())));
  std::vector<std::vector<std::uint32_t>> tables;
  for (int t = 0; t < g.radix(); ++t) {
    tables.push_back(conns[s].table(static_cast<unsigned>(t)));
  }
  const auto x = static_cast<std::size_t>(rng.below(tables[0].size()));
  tables[1][x] = tables[0][x];
  conns[s] = KaryConnection(std::move(tables), g.radix(), g.stages() - 1);
  return KaryMIDigraph(g.stages(), g.radix(), std::move(conns));
}

/// Checks one binary MI-digraph (and its flattening, if valid) against
/// the oracle: every prefix, suffix and (for small n) range count, and
/// every report.
void check_digraph(const MIDigraph& g, Tally& tally) {
  const Oracle o = oracle_of(arcs_of(g));
  const int last = g.stages() - 1;
  EXPECT_EQ(prefix_component_profile(g), o.prefix);
  EXPECT_EQ(suffix_component_profile(g), o.suffix);
  EXPECT_EQ(satisfies_p1_star(g), o.p1_star);
  EXPECT_EQ(satisfies_p_star_n(g), o.p_star_n);
  for (int i = 0; i <= last; ++i) {
    EXPECT_EQ(suffix_component_structure(g, i).component_count,
              o.suffix[static_cast<std::size_t>(i)]);
  }
  if (g.stages() <= 6) {
    const Arcs a = arcs_of(g);
    for (int lo = 0; lo <= last; ++lo) {
      for (int hi = lo; hi <= last; ++hi) {
        EXPECT_EQ(component_count_range(g, lo, hi), oracle_count(a, lo, hi))
            << "P(" << lo << "," << hi << ")";
        EXPECT_EQ(satisfies_p(g, lo, hi),
                  oracle_count(a, lo, hi) == expected_count(a, hi - lo));
      }
    }
  }
  const EquivalenceReport report = check_baseline_equivalence(g);
  EXPECT_EQ(report, o.report());
  EXPECT_EQ(is_baseline_equivalent(g), o.report().equivalent);
  tally.add(report);
  if (!g.is_valid()) return;
  const FlatWiring w = FlatWiring::from_digraph(g);
  EXPECT_EQ(check_baseline_equivalence(w), report);
}

/// Checks one radix-r MI-digraph, its flattening and (at radix 2) the
/// binary MI-digraph with the same tables.
void check_kary(const KaryMIDigraph& g, Tally& tally) {
  const Oracle o = oracle_of(arcs_of(g));
  const EquivalenceReport report = check_baseline_equivalence(g);
  EXPECT_EQ(report, o.report());
  EXPECT_EQ(is_baseline_equivalent(g),
            o.valid && o.banyan && o.p1_star && o.p_star_n);
  tally.add(report);
  if (g.radix() == 2) {
    std::vector<Connection> conns;
    for (int s = 0; s + 1 < g.stages(); ++s) {
      conns.emplace_back(g.connection(s).table(0), g.connection(s).table(1),
                         g.stages() - 1);
    }
    EXPECT_EQ(check_baseline_equivalence(MIDigraph(g.stages(), conns)),
              report);
  }
  if (!g.is_valid()) return;
  const FlatWiring w = FlatWiring::from_kary(g);
  EXPECT_EQ(check_baseline_equivalence(w), report);
  EXPECT_EQ(check_baseline_equivalence(w), oracle_of(arcs_of(w)).report());
}

TEST(CharacterizationTest, BinaryDigraphsMatchExplicitSubdigraphOracle) {
  MINEQ_SEEDED_RNG(rng, 1901);
  Tally tally;
  check_digraph(MIDigraph(1, {}), tally);
  for (int n = 2; n <= 8; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Six networks per trial; the largest sizes get fewer trials.
    const int trials = n <= 6 ? 40 : 15;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<Connection> valid;
      for (int s = 0; s + 1 < n; ++s) {
        valid.push_back(Connection::random_valid(n - 1, rng));
      }
      check_digraph(MIDigraph(n, std::move(valid)), tally);
      check_digraph(random_independent_network(n, rng), tally);
      check_digraph(random_pipid_network(n, rng), tally);
      const NetworkKind kind = all_network_kinds()[static_cast<std::size_t>(
          rng.below(all_network_kinds().size()))];
      check_digraph(test::scrambled_copy(build_network(kind, n), rng),
                    tally);
      check_digraph(
          test::scrambled_copy(random_independent_network(n, rng), rng),
          tally);
      check_digraph(with_parallel_arc(random_pipid_network(n, rng), rng),
                    tally);
    }
  }
  // Banyan yet not equivalent: about one random valid 3-stage digraph in
  // twenty is Banyan, and most of those fail P(1,*) or P(*,n).
  for (int banyan_seen = 0; banyan_seen < 20;) {
    std::vector<Connection> valid = {Connection::random_valid(2, rng),
                                     Connection::random_valid(2, rng)};
    const MIDigraph g(3, std::move(valid));
    if (!oracle_banyan(arcs_of(g))) continue;
    ++banyan_seen;
    check_digraph(g, tally);
  }
  EXPECT_GE(tally.networks, 1400);
  EXPECT_GT(tally.degrees, 100);
  EXPECT_GT(tally.banyan, 100);
  EXPECT_GT(tally.p1_star + tally.p_star_n, 0);
  EXPECT_GT(tally.equivalent, 200);
}

TEST(CharacterizationTest, KaryDigraphsMatchExplicitSubdigraphOracle) {
  MINEQ_SEEDED_RNG(rng, 1907);
  Tally tally;
  // (radix, largest stage count) with at most 128 cells per stage.
  const std::vector<std::pair<int, int>> shapes = {
      {2, 7}, {3, 5}, {4, 4}, {8, 3}};
  for (const auto& [radix, max_stages] : shapes) {
    for (int stages = 2; stages <= max_stages; ++stages) {
      SCOPED_TRACE("radix=" + std::to_string(radix) +
                   " stages=" + std::to_string(stages));
      const int digits = stages - 1;
      check_kary(kary_omega(stages, radix), tally);
      check_kary(kary_flip(stages, radix), tally);
      check_kary(kary_baseline(stages, radix), tally);
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<KaryConnection> valid;
        std::vector<KaryConnection> independent;
        std::vector<KaryConnection> aligned;
        for (int s = 0; s < digits; ++s) {
          valid.push_back(KaryConnection::random_valid(radix, digits, rng));
          independent.push_back(
              KaryConnection::random_independent(radix, digits, rng));
          aligned.push_back(
              KaryConnection::random_independent_aligned(radix, digits, rng));
        }
        const KaryMIDigraph aligned_net(stages, radix, std::move(aligned));
        check_kary(KaryMIDigraph(stages, radix, std::move(valid)), tally);
        check_kary(KaryMIDigraph(stages, radix, std::move(independent)),
                   tally);
        check_kary(aligned_net, tally);
        check_kary(with_parallel_arc(aligned_net, rng), tally);
      }
    }
  }
  // Unaligned independent radix-3 stages are Banyan about one time in
  // thirty, and most of those fail the component half (kary.hpp's
  // FINDING).
  for (int banyan_seen = 0; banyan_seen < 20;) {
    std::vector<KaryConnection> independent = {
        KaryConnection::random_independent(3, 2, rng),
        KaryConnection::random_independent(3, 2, rng)};
    const KaryMIDigraph g(3, 3, std::move(independent));
    if (!oracle_banyan(arcs_of(g))) continue;
    ++banyan_seen;
    check_kary(g, tally);
  }
  EXPECT_GE(tally.networks, 700);
  EXPECT_GT(tally.degrees, 100);
  EXPECT_GT(tally.banyan, 50);
  EXPECT_GT(tally.p1_star + tally.p_star_n, 0);
  EXPECT_GT(tally.equivalent, 100);
}

}  // namespace
}  // namespace mineq::min
