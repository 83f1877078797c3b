/// \file properties.hpp
/// \brief The P(i,j) component-counting properties (Section 2).
///
/// Paper: "an MI-digraph with n stages satisfies the P(i,j) property for
/// 1 <= i <= j <= n iff the subdigraph (G)_{i,j} has exactly
/// 2^{n-1-(j-i)} connected components"; P(1,*) means P(1,j) for all j and
/// P(*,n) means P(i,n) for all i. Together with the Banyan property these
/// characterize the networks topologically equivalent to Baseline.
///
/// Stage indices here are 0-based: our satisfies_p(g, lo, hi) is the
/// paper's P(lo+1, hi+1), and the expected component count is
/// 2^{(stages-1) - (hi-lo)}.
///
/// The same sweeps decide P(1,*) and P(*,n) over a FlatWiring or a
/// KaryMIDigraph at any radix r, expecting cells / r^(hi-lo) components;
/// those verdicts are read from check_baseline_equivalence's report
/// (equivalence.hpp).

#pragma once

#include <cstdint>
#include <vector>

#include "min/mi_digraph.hpp"

namespace mineq::min {

/// Number of connected components (of the undirected underlying graph) of
/// the sub-digraph spanned by stages lo..hi inclusive.
[[nodiscard]] std::size_t component_count_range(const MIDigraph& g, int lo,
                                                int hi);

/// The expected component count for P(lo, hi): 2^{(stages-1)-(hi-lo)}.
[[nodiscard]] std::size_t expected_components(const MIDigraph& g, int lo,
                                              int hi);

/// Does G satisfy P(lo, hi)?
[[nodiscard]] bool satisfies_p(const MIDigraph& g, int lo, int hi);

/// Component counts of the prefix subgraphs (G)_{0..j} for j = 0..n-1,
/// computed with one incremental DSU sweep (O(nodes + arcs) alpha).
[[nodiscard]] std::vector<std::size_t> prefix_component_profile(
    const MIDigraph& g);

/// Component counts of the suffix subgraphs (G)_{i..n-1} for i = 0..n-1
/// (index i of the result corresponds to suffix starting at stage i).
[[nodiscard]] std::vector<std::size_t> suffix_component_profile(
    const MIDigraph& g);

/// P(1,*) of the paper: every prefix has the expected component count.
[[nodiscard]] bool satisfies_p1_star(const MIDigraph& g);

/// P(*,n) of the paper: every suffix has the expected component count.
[[nodiscard]] bool satisfies_p_star_n(const MIDigraph& g);

/// Lemma 2 structure report for the suffix (G)_{from..n-1}: component
/// count plus, per component, its intersection size with every stage.
/// For a Banyan digraph built from independent connections the paper
/// proves each component meets each stage in the same number of cells.
struct SuffixStructure {
  std::size_t component_count = 0;
  /// intersections[c][s] = |component c  ∩  stage (from + s)|.
  std::vector<std::vector<std::size_t>> intersections;
};

[[nodiscard]] SuffixStructure suffix_component_structure(const MIDigraph& g,
                                                         int from);

}  // namespace mineq::min
