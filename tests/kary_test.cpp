/// \file kary_test.cpp
/// \brief The r x r cell generalization the paper's conclusion points at:
/// the characterization machinery over radix-r MI-digraphs, plus the
/// empirical generalization of Theorem 3 to independent connections over
/// (Z_r^{n-1}, digit-wise addition).

#include "min/kary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "min/baseline.hpp"
#include "min/banyan.hpp"
#include "min/equivalence.hpp"
#include "min/flat_wiring.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace mineq::min {
namespace {

TEST(RadixLabelTest, Arithmetic) {
  const RadixLabel label(3, 2);  // Z_3^2, cells 0..8
  EXPECT_EQ(label.cells(), 9U);
  EXPECT_EQ(label.add(4, 4), 8U);   // (1,1)+(1,1) = (2,2)
  EXPECT_EQ(label.add(8, 1), 6U);   // (2,2)+(0,1) = (2,0)
  EXPECT_EQ(label.sub(0, 1), 2U);   // (0,0)-(0,1) = (0,2)
  EXPECT_EQ(label.digit(7, 0), 1U); // 7 = (2,1)
  EXPECT_EQ(label.digit(7, 1), 2U);
  EXPECT_EQ(label.with_digit(7, 1, 0), 1U);
  // Group laws on all pairs.
  for (std::uint32_t a = 0; a < 9; ++a) {
    for (std::uint32_t b = 0; b < 9; ++b) {
      EXPECT_EQ(label.sub(label.add(a, b), b), a);
      EXPECT_EQ(label.add(a, b), label.add(b, a));
    }
  }
}

TEST(RadixLabelTest, Validation) {
  EXPECT_THROW((void)RadixLabel(1, 2), std::invalid_argument);
  EXPECT_THROW((void)RadixLabel(17, 2), std::invalid_argument);
  EXPECT_THROW((void)RadixLabel(2, -1), std::invalid_argument);
}

TEST(KaryConnectionTest, ValidationAndAccess) {
  // radix 3, 1 digit: 3 cells, 3 tables.
  const KaryConnection conn({{0, 1, 2}, {1, 2, 0}, {2, 0, 1}}, 3, 1);
  EXPECT_TRUE(conn.is_valid_stage());
  EXPECT_EQ(conn.child(1, 0), 1U);
  EXPECT_THROW((void)conn.child(3, 0), std::invalid_argument);
  EXPECT_THROW((void)KaryConnection({{0, 1, 2}}, 3, 1),
               std::invalid_argument);
  EXPECT_THROW((void)KaryConnection({{0, 3, 2}, {1, 2, 0}, {2, 0, 1}}, 3, 1),
               std::invalid_argument);
}

TEST(KaryConnectionTest, RandomIndependentIsIndependent) {
  MINEQ_SEEDED_RNG(rng, 211);
  for (int radix : {2, 3, 4, 5}) {
    for (int digits = 1; digits <= 3; ++digits) {
      const KaryConnection conn =
          KaryConnection::random_independent(radix, digits, rng);
      EXPECT_TRUE(conn.is_valid_stage()) << radix << "^" << digits;
      EXPECT_TRUE(conn.is_independent()) << radix << "^" << digits;
      EXPECT_TRUE(conn.is_independent_definition())
          << radix << "^" << digits;
    }
  }
}

TEST(KaryConnectionTest, FastIndependenceAgreesWithDefinition) {
  MINEQ_SEEDED_RNG(rng, 223);
  for (int radix : {2, 3, 4}) {
    for (int trial = 0; trial < 30; ++trial) {
      const KaryConnection conn =
          trial % 2 == 0
              ? KaryConnection::random_valid(radix, 2, rng)
              : KaryConnection::random_independent(radix, 2, rng);
      EXPECT_EQ(conn.is_independent(), conn.is_independent_definition())
          << "radix=" << radix << " trial=" << trial;
    }
  }
}

TEST(KaryBaselineTest, Radix2MatchesBinaryBaseline) {
  for (int n = 2; n <= 7; ++n) {
    const KaryMIDigraph kary = kary_baseline(n, 2);
    const MIDigraph binary = baseline_network(n);
    for (int s = 0; s + 1 < n; ++s) {
      EXPECT_EQ(kary.connection(s).table(0), binary.connection(s).f_table())
          << "n=" << n << " s=" << s;
      EXPECT_EQ(kary.connection(s).table(1), binary.connection(s).g_table())
          << "n=" << n << " s=" << s;
    }
  }
}

class KaryShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KaryShapeTest, BaselineSatisfiesCharacterization) {
  const auto [stages, radix] = GetParam();
  const KaryMIDigraph g = kary_baseline(stages, radix);
  EXPECT_TRUE(g.is_valid());
  EXPECT_TRUE(kary_is_banyan(g));
  const EquivalenceReport report = check_baseline_equivalence(g);
  EXPECT_TRUE(report.valid_degrees);
  EXPECT_TRUE(report.banyan);
  EXPECT_TRUE(report.p1_star);
  EXPECT_TRUE(report.p_star_n);
  EXPECT_TRUE(report.equivalent);
  EXPECT_EQ(report.failure, "");
}

TEST_P(KaryShapeTest, OmegaSatisfiesCharacterization) {
  const auto [stages, radix] = GetParam();
  const KaryMIDigraph g = kary_omega(stages, radix);
  EXPECT_TRUE(g.is_valid());
  EXPECT_TRUE(is_baseline_equivalent(g));
}

TEST_P(KaryShapeTest, OmegaStagesAreIndependent) {
  const auto [stages, radix] = GetParam();
  const KaryMIDigraph g = kary_omega(stages, radix);
  for (int s = 0; s + 1 < stages; ++s) {
    EXPECT_TRUE(g.connection(s).is_independent()) << "s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KaryShapeTest,
    ::testing::Values(std::make_tuple(2, 3), std::make_tuple(3, 3),
                      std::make_tuple(4, 3), std::make_tuple(2, 4),
                      std::make_tuple(3, 4), std::make_tuple(2, 5),
                      std::make_tuple(3, 5), std::make_tuple(4, 2),
                      std::make_tuple(6, 2)));

TEST(KaryTheorem3Test, AlignedBanyanIndependentImpliesEquivalent) {
  // The correct generalization of Theorem 3 to radix r: every Banyan
  // network assembled from *aligned* independent connections (translation
  // sets = cosets of an order-r subgroup) satisfies the generalized
  // characterization.
  MINEQ_SEEDED_RNG(rng, 227);
  for (int radix : {2, 3, 4, 5}) {
    for (int stages : {2, 3}) {
      int banyan_seen = 0;
      for (int trial = 0; trial < 200 && banyan_seen < 5; ++trial) {
        std::vector<KaryConnection> connections;
        for (int s = 0; s + 1 < stages; ++s) {
          connections.push_back(KaryConnection::random_independent_aligned(
              radix, stages - 1, rng));
        }
        const KaryMIDigraph g(stages, radix, std::move(connections));
        if (!kary_is_banyan(g)) continue;
        ++banyan_seen;
        EXPECT_TRUE(is_baseline_equivalent(g))
            << "radix=" << radix << " stages=" << stages;
      }
      EXPECT_GT(banyan_seen, 0) << "radix=" << radix << " stages=" << stages;
    }
  }
}

TEST(KaryTheorem3Test, VerbatimGeneralizationFailsForRadix3) {
  // The FINDING pinned as a regression: Banyan networks built from
  // *unaligned* independent connections over Z_3^2 need not be
  // baseline-equivalent — the verbatim Theorem 3 generalization is false
  // for r >= 3. We exhibit at least one Banyan + independent +
  // non-equivalent instance.
  MINEQ_SEEDED_RNG(rng, 227);
  const int radix = 3;
  const int stages = 3;
  bool counterexample = false;
  int banyan_seen = 0;
  for (int trial = 0; trial < 400 && !counterexample; ++trial) {
    std::vector<KaryConnection> connections;
    for (int s = 0; s + 1 < stages; ++s) {
      connections.push_back(
          KaryConnection::random_independent(radix, stages - 1, rng));
    }
    const KaryMIDigraph g(stages, radix, std::move(connections));
    if (!kary_is_banyan(g)) continue;
    ++banyan_seen;
    // Every stage IS independent per the definition...
    for (int s = 0; s + 1 < stages; ++s) {
      ASSERT_TRUE(g.connection(s).is_independent_definition());
    }
    // ...yet equivalence can fail.
    if (!is_baseline_equivalent(g)) counterexample = true;
  }
  EXPECT_GT(banyan_seen, 0);
  EXPECT_TRUE(counterexample)
      << "no Banyan independent non-equivalent radix-3 network found";
}

TEST(KaryTheorem3Test, AlignedTranslationsFormCoset) {
  // Structural sanity of the aligned generator: the translation set
  // (children of cell 0) is a coset of an order-r subgroup.
  MINEQ_SEEDED_RNG(rng, 239);
  for (int radix : {2, 3, 4, 5}) {
    const int digits = 2;
    const RadixLabel label(radix, digits);
    const KaryConnection conn =
        KaryConnection::random_independent_aligned(radix, digits, rng);
    // Differences of the port images of cell 0 all lie in <h> where h is
    // the difference of ports 0 and 1.
    const std::uint32_t h =
        label.sub(conn.child(1, 0), conn.child(0, 0));
    EXPECT_EQ(KaryConnection::element_order(radix, digits, h),
              static_cast<unsigned>(radix));
    std::uint32_t acc = 0;
    std::vector<bool> hit(static_cast<std::size_t>(radix), false);
    for (int t = 0; t < radix; ++t) {
      const std::uint32_t diff =
          label.sub(conn.child(static_cast<unsigned>(t), 0),
                    conn.child(0, 0));
      // diff must equal t * h.
      EXPECT_EQ(diff, acc) << "radix=" << radix << " t=" << t;
      acc = label.add(acc, h);
    }
  }
}

TEST(KaryTest, RandomNetworksMostlyNotEquivalent) {
  MINEQ_SEEDED_RNG(rng, 229);
  int equivalent = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<KaryConnection> connections;
    for (int s = 0; s < 2; ++s) {
      connections.push_back(KaryConnection::random_valid(3, 2, rng));
    }
    const KaryMIDigraph g(3, 3, std::move(connections));
    if (is_baseline_equivalent(g)) ++equivalent;
  }
  EXPECT_LT(equivalent, 10);
}

TEST(KaryTest, DigraphValidation) {
  EXPECT_THROW(
      (void)KaryMIDigraph(3, 3, {}), std::invalid_argument);
  MINEQ_SEEDED_RNG(rng, 233);
  std::vector<KaryConnection> wrong = {
      KaryConnection::random_valid(3, 1, rng)};
  EXPECT_THROW((void)KaryMIDigraph(3, 3, std::move(wrong)),
               std::invalid_argument);
}

/// The saturating per-source path-count DP that decided kary_is_banyan
/// before the shared word-parallel kernel, kept as its reference.
bool reference_kary_is_banyan(const KaryMIDigraph& g) {
  const std::uint32_t cells = g.cells_per_stage();
  std::vector<std::uint64_t> counts(cells);
  std::vector<std::uint64_t> next(cells);
  for (std::uint32_t source = 0; source < cells; ++source) {
    std::fill(counts.begin(), counts.end(), 0);
    counts[source] = 1;
    for (int s = 0; s + 1 < g.stages(); ++s) {
      const KaryConnection& conn = g.connection(s);
      std::fill(next.begin(), next.end(), 0);
      for (std::uint32_t x = 0; x < cells; ++x) {
        if (counts[x] == 0) continue;
        for (unsigned t = 0; t < static_cast<unsigned>(g.radix()); ++t) {
          auto& target = next[conn.table(t)[x]];
          target = std::min<std::uint64_t>(2, target + counts[x]);
        }
      }
      counts.swap(next);
    }
    for (std::uint64_t c : counts) {
      if (c != 1) return false;
    }
  }
  return true;
}

/// Child tables drawn with no degree constraint.
KaryConnection random_table_connection(int radix, int digits,
                                       util::SplitMix64& rng) {
  const std::uint32_t cells = RadixLabel(radix, digits).cells();
  std::vector<std::vector<std::uint32_t>> tables(
      static_cast<std::size_t>(radix), std::vector<std::uint32_t>(cells));
  for (auto& table : tables) {
    for (std::uint32_t& child : table) {
      child = static_cast<std::uint32_t>(rng.below(cells));
    }
  }
  return KaryConnection(std::move(tables), radix, digits);
}

TEST(KaryTest, BanyanKernelMatchesPathCountReference) {
  // Radix 3 up to 729 cells and radix 4 up to 1024 cross the one-word,
  // two-word and partial 256-source block sizes of the shared kernel.
  MINEQ_SEEDED_RNG(rng, 239);
  int banyan = 0;
  for (const int radix : {3, 4}) {
    for (int stages = 1; stages <= (radix == 3 ? 7 : 6); ++stages) {
      const int digits = stages - 1;
      std::vector<KaryMIDigraph> networks;
      if (stages == 1) {
        networks.emplace_back(1, radix, std::vector<KaryConnection>{});
      }
      for (int trial = 0; stages > 1 && trial < 3; ++trial) {
        for (int family = 0; family < 3; ++family) {
          std::vector<KaryConnection> connections;
          for (int s = 0; s < digits; ++s) {
            connections.push_back(
                family == 0   ? KaryConnection::random_valid(radix, digits, rng)
                : family == 1 ? KaryConnection::random_independent_aligned(
                                    radix, digits, rng)
                              : random_table_connection(radix, digits, rng));
          }
          networks.emplace_back(stages, radix, std::move(connections));
        }
      }
      if (stages > 1) {
        networks.push_back(kary_omega(stages, radix));
        networks.push_back(kary_flip(stages, radix));
        networks.push_back(kary_baseline(stages, radix));
      }
      for (std::size_t i = 0; i < networks.size(); ++i) {
        const KaryMIDigraph& g = networks[i];
        SCOPED_TRACE("radix=" + std::to_string(radix) +
                     " stages=" + std::to_string(stages) + " network " +
                     std::to_string(i));
        const bool expected = reference_kary_is_banyan(g);
        banyan += expected ? 1 : 0;
        EXPECT_EQ(kary_is_banyan(g), expected);
        if (!g.is_valid()) continue;
        const FlatWiring w = FlatWiring::from_kary(g);
        EXPECT_EQ(is_banyan(w), expected);
      }
    }
  }
  EXPECT_GT(banyan, 30);
}

}  // namespace
}  // namespace mineq::min
