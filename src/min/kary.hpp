/// \file kary.hpp
/// \brief Extension: MI-digraphs over r x r switching cells.
///
/// The paper's conclusion: "the results obtained here apply only to
/// networks built with 2x2 switching cells, whereas our graph
/// characterization has been generalized to arbitrary size of cells."
/// This module implements that generalized setting:
///
///   - an n-stage radix-r MI-digraph has r^(n-1) cells per stage, each of
///     in/out-degree r (labels are (n-1)-digit base-r strings);
///   - a connection is an r-tuple of functions (f_0, ..., f_{r-1}) giving
///     each cell its children;
///   - Banyan = unique first-to-last paths; P(i, j) asks for exactly
///     cells / r^(j-i) components on the stage range, and
///     check_baseline_equivalence(const KaryMIDigraph&) (equivalence.hpp)
///     decides valid + Banyan + P(1,*) + P(*,n) with the binary case's code;
///   - a connection is *independent* iff for every alpha != 0 (digit-wise
///     mod-r addition in Z_r^{n-1}) there is a beta with
///     f_t(x (+) alpha) = beta (+) f_t(x) for all x and all t — the
///     verbatim generalization of the paper's definition, with the same
///     structure theorem: all f_t share one additive map L over Z_r.
///
/// FINDING (surfaced by this reproduction, pinned in kary_test.cpp): the
/// verbatim generalization of Theorem 3 is FALSE for r >= 3. For r = 2
/// the children-difference set {0, c_f ^ c_g} is automatically a
/// subgroup, so each stage pair decomposes into K_{2,2} blocks and the
/// P properties follow; for r >= 3 the translations {c_t} of an
/// independent connection may generate a subgroup larger than order r,
/// collapsing the two-stage components below the required count while
/// the network can remain Banyan. The correct generalization is the
/// *aligned* independent connection: {c_0, ..., c_{r-1}} must be a full
/// coset of an order-r subgroup of Z_r^{n-1}
/// (KaryConnection::random_independent_aligned); with that restriction
/// the Banyan + independent => baseline_r-equivalent implication holds
/// empirically at every radix tested.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "min/networks.hpp"
#include "min/routing.hpp"
#include "util/rng.hpp"

namespace mineq::min {

/// Digit-wise arithmetic on Z_r^digits, with values packed as plain
/// integers in base r (digit i = (value / r^i) % r).
class RadixLabel {
 public:
  RadixLabel(int radix, int digits);

  [[nodiscard]] int radix() const noexcept { return radix_; }
  [[nodiscard]] int digits() const noexcept { return digits_; }
  [[nodiscard]] std::uint32_t cells() const noexcept { return cells_; }

  /// Digit-wise sum (a (+) b) mod r.
  [[nodiscard]] std::uint32_t add(std::uint32_t a, std::uint32_t b) const;

  /// Digit-wise difference (a (-) b) mod r.
  [[nodiscard]] std::uint32_t sub(std::uint32_t a, std::uint32_t b) const;

  /// Digit \p i of \p value.
  [[nodiscard]] unsigned digit(std::uint32_t value, int i) const;

  /// \p value with digit \p i replaced.
  [[nodiscard]] std::uint32_t with_digit(std::uint32_t value, int i,
                                         unsigned digit) const;

 private:
  int radix_;
  int digits_;
  std::uint32_t cells_;
  std::vector<std::uint32_t> power_;
};

/// A radix-r inter-stage connection: children of x are
/// table(t)[x] for t = 0..r-1.
class KaryConnection {
 public:
  /// \throws std::invalid_argument unless there are exactly radix tables
  /// of size radix^digits with in-range entries.
  KaryConnection(std::vector<std::vector<std::uint32_t>> tables, int radix,
                 int digits);

  [[nodiscard]] static KaryConnection from_functions(
      int radix, int digits,
      const std::function<std::uint32_t(unsigned, std::uint32_t)>& child);

  /// Random independent connection: an additive bijection L over Z_r^d
  /// plus arbitrary per-function translations c_t. Independent per the
  /// definition, but for r >= 3 generally NOT baseline-compatible (see
  /// the header FINDING).
  [[nodiscard]] static KaryConnection random_independent(
      int radix, int digits, util::SplitMix64& rng);

  /// Random *aligned* independent connection: translations form a full
  /// coset c (+) t*h of an order-r cyclic subgroup <h>. This is the
  /// correct radix-r analog of the paper's stage shape. Requires
  /// digits >= 1.
  [[nodiscard]] static KaryConnection random_independent_aligned(
      int radix, int digits, util::SplitMix64& rng);

  /// Additive order of \p h in Z_r^digits (smallest k >= 1 with k*h = 0).
  [[nodiscard]] static unsigned element_order(int radix, int digits,
                                              std::uint32_t h);

  /// Random valid stage: r independent random permutations of the cells.
  [[nodiscard]] static KaryConnection random_valid(int radix, int digits,
                                                   util::SplitMix64& rng);

  [[nodiscard]] int radix() const noexcept { return radix_; }
  [[nodiscard]] int digits() const noexcept { return digits_; }
  [[nodiscard]] std::uint32_t cells() const noexcept {
    return static_cast<std::uint32_t>(tables_.front().size());
  }

  [[nodiscard]] std::uint32_t child(unsigned port, std::uint32_t x) const;

  [[nodiscard]] const std::vector<std::uint32_t>& table(unsigned port) const;

  /// Every next-stage cell has in-degree exactly r.
  [[nodiscard]] bool is_valid_stage() const;

  /// Independence per the generalized definition (checked literally,
  /// O(cells^2 * r)).
  [[nodiscard]] bool is_independent_definition() const;

  /// Fast structural test: every table is x -> L(x) (+) c_t for one shared
  /// additive map L (O(cells * r)).
  [[nodiscard]] bool is_independent() const;

 private:
  int radix_;
  int digits_;
  std::vector<std::vector<std::uint32_t>> tables_;
};

/// An n-stage radix-r MI-digraph.
class KaryMIDigraph {
 public:
  KaryMIDigraph(int stages, int radix,
                std::vector<KaryConnection> connections);

  [[nodiscard]] int stages() const noexcept { return stages_; }
  [[nodiscard]] int radix() const noexcept { return radix_; }
  [[nodiscard]] std::uint32_t cells_per_stage() const;

  [[nodiscard]] const KaryConnection& connection(int index) const;

  [[nodiscard]] bool is_valid() const;

  /// Attach a known-correct digit routing schedule. The closed-form
  /// constructions (build_kary_network) attach theirs, so sim::Engine
  /// skips the exponential find_digit_schedule search entirely — and
  /// with it the kMaxDigitScheduleCells cap, which only ever gated the
  /// search, not the simulation.
  /// \throws std::invalid_argument on radix mismatch or wrong stage
  /// count (stages() - 1 routing digits).
  void attach_schedule(DigitSchedule schedule);

  /// The attached schedule, if any. Engine trusts it after an O(stages
  /// * radix) shape check; correctness is the attacher's contract.
  [[nodiscard]] const std::optional<DigitSchedule>& schedule() const noexcept {
    return schedule_;
  }

  friend bool operator==(const KaryMIDigraph&, const KaryMIDigraph&) = default;

 private:
  int stages_;
  int radix_;
  std::vector<KaryConnection> connections_;
  std::optional<DigitSchedule> schedule_;
};

/// The radix-r Baseline network: the left-recursive construction with r
/// sub-networks per level (closed form; reduces to baseline_network for
/// r = 2 — asserted in the tests).
[[nodiscard]] KaryMIDigraph kary_baseline(int stages, int radix);

/// The radix-r Omega-style network: every stage wired by the digit
/// rotate-left shuffle.
[[nodiscard]] KaryMIDigraph kary_omega(int stages, int radix);

/// The radix-r Flip network: every stage wired by the digit rotate-right
/// (inverse shuffle). Reduces to the binary Flip for r = 2 — asserted in
/// the tests.
[[nodiscard]] KaryMIDigraph kary_flip(int stages, int radix);

/// The radix-r construction of a classical network kind, for the kinds
/// with a closed-form k-ary analog (Omega, Flip, Baseline). Radix 2
/// reproduces build_network(kind, stages) table for table.
/// \throws std::invalid_argument for kinds without a k-ary construction
/// (cube, mdm, revbaseline).
[[nodiscard]] KaryMIDigraph build_kary_network(NetworkKind kind, int stages,
                                               int radix);

/// Does \p kind have a radix-r construction (see build_kary_network)?
[[nodiscard]] bool kary_network_supported(NetworkKind kind);

/// The closed-form digit routing schedule of a built-in k-ary
/// construction: Omega and Baseline consume destination digits MSB
/// first, Flip LSB first, all with identity port maps (hand-derived
/// from the constructions; verified against find_digit_schedule in the
/// tests). build_kary_network attaches this automatically.
/// \throws std::invalid_argument for unsupported kinds or stages < 2.
[[nodiscard]] DigitSchedule kary_network_schedule(NetworkKind kind, int stages,
                                                  int radix);

/// Banyan property (unique first-to-last paths). Runs the shared
/// word-parallel kernel of banyan.hpp's is_banyan (defined beside it in
/// banyan.cpp) straight off the r image tables: the verdict equals the
/// path-count definition for any tables, in O(stages * cells^2 * r / 64)
/// word operations and O(cells) words of scratch.
[[nodiscard]] bool kary_is_banyan(const KaryMIDigraph& g);

}  // namespace mineq::min
