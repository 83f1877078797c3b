/// \file equivalence.hpp
/// \brief The paper's "easy characterization": deciding Baseline
/// equivalence in near-linear time.
///
/// Theorem (Section 2, from [12]): all n-stage MI-digraphs satisfying the
/// Banyan property, P(*, n) and P(1, *) are isomorphic — and the Baseline
/// network satisfies all three, so satisfying them is equivalent to being
/// topologically equivalent to Baseline.
///
/// Theorem 3 (main): a Banyan MI-digraph built with independent
/// connections is isomorphic to the Baseline MI-digraph. The decision
/// procedure here also exposes the Theorem-3 fast path: if every stage is
/// an independent connection and the digraph is Banyan, equivalence holds
/// with no component counting at all.

#pragma once

#include <cstdint>
#include <string>

#include "fault/fault_mask.hpp"
#include "min/flat_wiring.hpp"
#include "min/mi_digraph.hpp"

namespace mineq::min {

class KaryMIDigraph;  // kary.hpp

/// Full decision transcript for one network.
struct EquivalenceReport {
  bool valid_degrees = false;  ///< every in-degree equals the radix
  bool banyan = false;         ///< unique first-to-last paths
  bool p1_star = false;        ///< P(1, j) for every j
  bool p_star_n = false;       ///< P(i, n) for every i
  bool equivalent = false;     ///< all of the above
  /// First failed check, or "" when equivalent ("degrees", "banyan",
  /// "P(1,*)", "P(*,n)").
  std::string failure;

  friend bool operator==(const EquivalenceReport&,
                         const EquivalenceReport&) = default;
};

/// Run the full characterization check, one fail-fast sequence for
/// every representation: degree validity, Banyan, then the P(1,*) and
/// P(*,n) component sweeps (one incremental DSU sweep each), dominated
/// by the Banyan check's O(stages * cells^2 * r / 64) word operations.
/// Every check reads the representation as it is; nothing is flattened.
[[nodiscard]] EquivalenceReport check_baseline_equivalence(const MIDigraph& g);

/// Same checks over a prebuilt wiring IR, the path for callers that
/// already hold the FlatWiring (sweeps, repeated classification). A
/// constructible FlatWiring is valid by definition, so valid_degrees is
/// always true here.
[[nodiscard]] EquivalenceReport check_baseline_equivalence(
    const FlatWiring& w);

/// The generalized characterization over r x r cells (the paper's
/// closing remark): P(i,j) expects cells / r^(j-i) components.
[[nodiscard]] EquivalenceReport check_baseline_equivalence(
    const KaryMIDigraph& g);

/// Short-circuit decisions: check_baseline_equivalence(...).equivalent.
[[nodiscard]] bool is_baseline_equivalent(const MIDigraph& g);
[[nodiscard]] bool is_baseline_equivalent(const FlatWiring& w);
[[nodiscard]] bool is_baseline_equivalent(const KaryMIDigraph& g);

/// Theorem-3 fast path: every connection independent + Banyan. Sound
/// (implies is_baseline_equivalent) but not complete: a Banyan digraph can
/// be baseline-equivalent without any stage being independent (relabel a
/// baseline with arbitrary per-stage permutations). Exposed separately so
/// benchmarks can compare the costs.
[[nodiscard]] bool is_baseline_equivalent_via_independence(const MIDigraph& g);

/// Classification of a fault-degraded fabric: the survivor topology of
/// (wiring minus masked arcs), decided over the same packed IR the
/// simulators route (no explicit sub-digraph is rebuilt).
struct FaultedClassification {
  std::size_t total_arcs = 0;
  std::size_t surviving_arcs = 0;
  /// Every first-stage cell still reaches every last-stage cell through
  /// surviving arcs — the fault literature's "full access" property.
  bool full_access = false;
  /// The survivor has exactly one surviving path per (source, sink)
  /// pair: the Banyan property of the degraded fabric (implies
  /// full_access).
  bool banyan = false;
  /// The fabric is still an intact baseline-equivalent MI-digraph: no
  /// arc is masked (removing any arc from a Banyan fabric breaks full
  /// access, so degrees must be whole) and the paper's characterization
  /// holds on the wiring.
  bool baseline_equivalent = false;
};

/// Classify the faulted fabric (w, mask). Runs the per-source saturating
/// path-count DP over surviving arcs — the Banyan kernel needs intact
/// out-degrees, so under faults path counts are the criterion:
/// full access is "all counts >= 1", Banyan is "all counts == 1". With an
/// empty mask the verdicts coincide with is_banyan /
/// check_baseline_equivalence (asserted in the tests).
/// \throws std::invalid_argument if the mask geometry does not match.
[[nodiscard]] FaultedClassification classify_faulted(
    const FlatWiring& w, const fault::FaultMask& mask);

/// Are two MI-digraphs topologically equivalent? Decided without search
/// when at least one is baseline-equivalent; otherwise falls back to the
/// general isomorphism search with the given node-expansion budget.
/// \throws std::runtime_error if the fallback search exhausts its budget
/// (answer unknown).
[[nodiscard]] bool are_topologically_equivalent(
    const MIDigraph& a, const MIDigraph& b,
    std::uint64_t fallback_budget = 50'000'000);

}  // namespace mineq::min
