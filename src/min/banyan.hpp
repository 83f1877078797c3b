/// \file banyan.hpp
/// \brief The Banyan property: unique paths from first to last stage.
///
/// Paper: "We say that a network has the Banyan property if and only if
/// for any input and any output there exists a unique path connecting
/// them." Since inputs/outputs attach to first/last-stage cells in pairs,
/// this is equivalent to: for every first-stage cell u and last-stage cell
/// v there is exactly one directed u -> v path (parallel arcs count as
/// distinct paths — which is precisely how Fig. 5's double links break the
/// property).

#pragma once

#include <cstdint>
#include <optional>

#include "fault/fault_mask.hpp"
#include "min/flat_wiring.hpp"
#include "min/mi_digraph.hpp"

namespace mineq::min {

/// A witness that the Banyan property fails.
struct BanyanFailure {
  std::uint32_t source = 0;       ///< first-stage cell
  std::uint32_t sink = 0;         ///< last-stage cell
  std::uint64_t path_count = 0;   ///< number of u->v paths (0 or >= 2)
};

/// Check the Banyan property. The verdict equals the path-count
/// definition (banyan_failure(g) == nullopt) for every input, invalid
/// degrees included: a parallel arc breaks the property exactly when
/// some source reaches it. Source 0 runs alone first (a fail-fast walk
/// over the cells it reaches); then one word-parallel kernel sweeps the
/// stages for blocks of up to 256 sources, one reach bit per source per
/// cell, failing at the first stage where a source reaches a cell over
/// two arcs. O(stages * cells^2 * r / 64) word operations and O(cells)
/// words of scratch.
[[nodiscard]] bool is_banyan(const MIDigraph& g);

/// First failure witness found, or nullopt if the property holds.
/// Sequential and deterministic.
[[nodiscard]] std::optional<BanyanFailure> banyan_failure(const MIDigraph& g);

/// The doubling check: the reachable set from every source must double
/// at every stage (|R_{s+1}| == 2 |R_s|) until it covers the whole last
/// stage, and no connection may have parallel arcs. On valid degrees
/// this is the same verdict as is_banyan (cross-validated in the tests);
/// with invalid degrees it also rejects a parallel arc no source
/// reaches, which the path-count definition ignores.
[[nodiscard]] bool is_banyan_doubling(const MIDigraph& g);

/// Path-count DP from one source to all last-stage cells, saturated at
/// \p cap (exposed for the figure benches and tests).
[[nodiscard]] std::vector<std::uint64_t> path_counts_from(
    const MIDigraph& g, std::uint32_t source, std::uint64_t cap = 4);

/// The same kernel over the stage-packed down records, at any radix.
/// check_baseline_equivalence(FlatWiring) routes through this; it is
/// exposed so callers that already hold the IR never touch the tables.
/// A wiring whose cell count is not radix^(stages-1) is never Banyan.
[[nodiscard]] bool is_banyan(const FlatWiring& w);

[[nodiscard]] std::vector<std::uint64_t> path_counts_from(
    const FlatWiring& w, std::uint32_t source, std::uint64_t cap = 4);

/// Path-count DP over the *surviving* arcs of a fault-masked wiring:
/// arcs with a set mask bit carry no paths. The unique-path kernel
/// counts on every cell keeping its full out-degree, which faults
/// break, so faulted classification (equivalence.hpp's
/// classify_faulted) runs on these counts directly:
/// full access is "every count >= 1", unique surviving paths is "every
/// count == 1".
/// \throws std::invalid_argument if the mask geometry does not match.
[[nodiscard]] std::vector<std::uint64_t> path_counts_from(
    const FlatWiring& w, const fault::FaultMask& mask, std::uint32_t source,
    std::uint64_t cap = 4);

}  // namespace mineq::min
