#include "min/equivalence.hpp"

#include <stdexcept>

#include "graph/isomorphism.hpp"
#include "min/banyan.hpp"
#include "min/independence.hpp"
#include "min/kary.hpp"
#include "min/stage_children.hpp"

namespace mineq::min {

namespace {

/// The characterization in order of cost, each check run only if every
/// earlier one held: degrees, Banyan, P(1,*), P(*,n). \p banyan is the
/// representation's unique-path kernel.
template <typename Network>
EquivalenceReport check(const Network& net, bool valid_degrees,
                        bool (*banyan)(const Network&)) {
  using detail::Sweep;
  EquivalenceReport report;
  report.valid_degrees = valid_degrees;
  report.banyan = report.valid_degrees && banyan(net);
  report.p1_star =
      report.banyan && detail::satisfies_star(net, Sweep::kPrefix);
  report.p_star_n =
      report.p1_star && detail::satisfies_star(net, Sweep::kSuffix);
  report.equivalent = report.p_star_n;
  report.failure = !report.valid_degrees ? "degrees"
                   : !report.banyan      ? "banyan"
                   : !report.p1_star     ? "P(1,*)"
                   : !report.p_star_n    ? "P(*,n)"
                                         : "";
  return report;
}

}  // namespace

EquivalenceReport check_baseline_equivalence(const MIDigraph& g) {
  return check(g, g.is_valid(), is_banyan);
}

EquivalenceReport check_baseline_equivalence(const FlatWiring& w) {
  // Representable in the IR == valid degrees.
  return check(w, true, is_banyan);
}

EquivalenceReport check_baseline_equivalence(const KaryMIDigraph& g) {
  return check(g, g.is_valid(), kary_is_banyan);
}

bool is_baseline_equivalent(const MIDigraph& g) {
  return check_baseline_equivalence(g).equivalent;
}

bool is_baseline_equivalent(const FlatWiring& w) {
  return check_baseline_equivalence(w).equivalent;
}

bool is_baseline_equivalent(const KaryMIDigraph& g) {
  return check_baseline_equivalence(g).equivalent;
}

bool is_baseline_equivalent_via_independence(const MIDigraph& g) {
  for (const Connection& conn : g.connections()) {
    if (!conn.is_valid_stage()) return false;
    if (!is_independent(conn)) return false;
  }
  return is_banyan(g);
}

FaultedClassification classify_faulted(const FlatWiring& w,
                                       const fault::FaultMask& mask) {
  if (!mask.matches(w)) {
    throw std::invalid_argument(
        "classify_faulted: fault mask geometry does not match the wiring");
  }
  FaultedClassification out;
  out.total_arcs = mask.total_arcs();
  out.surviving_arcs = mask.surviving_arcs();
  if (mask.none()) {
    // Pristine fast path: run_sweep classifies every {network, fault
    // spec} pair serially before fanning the grid out, and the default
    // no-fault spec must not pay the per-source path DP — the
    // word-parallel Banyan kernel decides 256 sources per sweep. A Banyan
    // fabric has exactly one path per pair, so full access is implied.
    const EquivalenceReport pristine = check_baseline_equivalence(w);
    out.banyan = pristine.banyan;
    out.baseline_equivalent = pristine.equivalent;
    if (pristine.banyan) {
      out.full_access = true;
      return out;
    }
    // Not Banyan: fall through — the DP still decides full access
    // (parallel paths may cover every pair).
  }
  bool full_access = true;
  bool unique_paths = true;
  const std::uint32_t cells = w.cells_per_stage();
  for (std::uint32_t u = 0; u < cells && full_access; ++u) {
    // Saturating at 2 is enough to separate 0 / 1 / "many" paths.
    const auto counts = path_counts_from(w, mask, u, /*cap=*/2);
    for (const std::uint64_t c : counts) {
      if (c != 1) unique_paths = false;
      if (c == 0) {
        full_access = false;
        break;
      }
    }
  }
  out.full_access = full_access;
  if (!mask.none()) {
    out.banyan = full_access && unique_paths;
    // Removing any arc from a full-access fabric with unique paths
    // severs at least one (source, sink) pair, so only the unmasked
    // fabric can still be an (intact, baseline-equivalent) MI-digraph.
    out.baseline_equivalent = false;
  }
  return out;
}

bool are_topologically_equivalent(const MIDigraph& a, const MIDigraph& b,
                                  std::uint64_t fallback_budget) {
  if (a.stages() != b.stages()) return false;
  const bool a_base = is_baseline_equivalent(a);
  const bool b_base = is_baseline_equivalent(b);
  if (a_base || b_base) return a_base && b_base;
  // Neither is baseline-equivalent: they may still be isomorphic to each
  // other (e.g. two scrambled copies of the same non-Banyan digraph).
  graph::SearchStats stats;
  const auto mapping = graph::find_layered_isomorphism(
      a.to_layered(), b.to_layered(), &stats, fallback_budget);
  if (!mapping.has_value() && stats.budget_exhausted) {
    throw std::runtime_error(
        "are_topologically_equivalent: isomorphism search budget exhausted");
  }
  return mapping.has_value();
}

}  // namespace mineq::min
