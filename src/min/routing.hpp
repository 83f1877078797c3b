/// \file routing.hpp
/// \brief Path extraction and bit-directed routing on Banyan MI-digraphs.
///
/// The paper's closing remark motivates PIPID designs: "these permutations
/// are associated to a very simple bit directed routing". In a Banyan
/// network the path from a first-stage cell to a last-stage cell is
/// unique; for PIPID-built networks the out-port taken at stage s is a
/// fixed bit of the destination cell label (possibly a different bit per
/// stage). This module extracts unique paths generically and recovers the
/// per-stage destination-digit schedule (at radix 2: destination-bit)
/// when one exists.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "min/flat_wiring.hpp"
#include "min/mi_digraph.hpp"

namespace mineq::min {

/// A source-to-sink route: the cell visited at every stage plus the
/// out-port (0 = f, 1 = g) taken at every hop.
struct Route {
  std::vector<std::uint32_t> cells;   ///< stages() entries
  std::vector<unsigned> ports;        ///< stages()-1 entries
};

/// The unique route from first-stage cell \p source to last-stage cell
/// \p sink, or nullopt if none exists. O(stages * cells) via one backward
/// reachability sweep. (If multiple paths exist — non-Banyan graphs — the
/// lexicographically first by port choice is returned.)
[[nodiscard]] std::optional<Route> find_route(const MIDigraph& g,
                                              std::uint32_t source,
                                              std::uint32_t sink);

/// A destination-digit routing schedule: at stage s, take the port
/// port_of_value[s][v] where v is base-r digit `digit[s]` of the
/// destination cell label. It is the one schedule format at every radix:
/// at r = 2 `digit` is the destination bit a stage reads and each map is
/// the identity (port = bit) or the swap (port = bit xor 1), so
/// port_of_value[s][0] is the stage's inversion.
struct DigitSchedule {
  int radix = 2;
  std::vector<int> digit;  ///< stages()-1 entries (digit index per stage)
  /// stages()-1 maps from digit value (0..r-1) to out-port; each is a
  /// bijection of {0..r-1}.
  std::vector<std::vector<unsigned>> port_of_value;

  friend bool operator==(const DigitSchedule&, const DigitSchedule&) = default;
};

/// Recover a destination-digit schedule valid for *all* (source, sink)
/// pairs of \p w, or nullopt if none exists (no full access, the port
/// toward some sink depends on the current cell, or the per-stage port
/// choice does not factor through a single destination digit). One
/// backward reachability sweep per sink fixes the port every on-path
/// cell takes toward it. For Banyan digit-routable fabrics (k-ary
/// Omega/Flip/Baseline) this is exact; with multiple paths the
/// lexicographically-first port choice is fitted, which may reject
/// exotic multipath fabrics that another choice would admit. (When cells
/// = radix^(stages-1), as in every MI-digraph, each source has exactly
/// cells paths, so full access already forces unique paths.)
/// O(cells^2 * stages * radix) time, O(cells * stages) memory.
[[nodiscard]] std::optional<DigitSchedule> find_digit_schedule(
    const FlatWiring& w);

/// Throw std::invalid_argument, with \p what ("<caller>: schedule")
/// leading the message, unless \p schedule is well formed for a
/// \p stages-stage radix-\p radix fabric: one value map per hop, each a
/// bijection of the ports, each hop reading an existing digit.
/// O(stages * radix); whether the schedule routes is
/// verify_digit_schedule's question.
void check_schedule_shape(const DigitSchedule& schedule, int stages,
                          int radix, const char* what);

/// Check a digit schedule delivers every (source, sink) pair
/// (exhaustive, no allocation per pair). O(cells^2 * stages).
/// \throws std::invalid_argument via check_schedule_shape.
[[nodiscard]] bool verify_digit_schedule(const FlatWiring& w,
                                         const DigitSchedule& schedule);

/// The radix-2 view of find_digit_schedule: flatten \p g and recover its
/// destination-bit schedule (digit[s] is the bit stage s reads,
/// port_of_value[s][0] its inversion). Returns nullopt, without
/// throwing, when \p g has invalid in-degrees — FlatWiring cannot
/// represent such a graph, so it has no schedule. O(cells^2 * stages).
[[nodiscard]] std::optional<DigitSchedule> find_bit_schedule(
    const MIDigraph& g);

/// Apply a radix-2 schedule: route from \p source to \p sink by reading
/// ports off the destination bits. Returns the cells visited.
/// \throws std::invalid_argument unless the schedule has one two-entry
/// map per hop of \p g, each hop reading an existing bit.
[[nodiscard]] Route route_with_schedule(const MIDigraph& g,
                                        const DigitSchedule& schedule,
                                        std::uint32_t source,
                                        std::uint32_t sink);

/// Check a radix-2 schedule delivers every pair of \p g (exhaustive):
/// verify_digit_schedule over the flattened graph. False when \p g has
/// invalid in-degrees. O(cells^2 * stages).
/// \throws std::invalid_argument as verify_digit_schedule.
[[nodiscard]] bool verify_bit_schedule(const MIDigraph& g,
                                       const DigitSchedule& schedule);

}  // namespace mineq::min
