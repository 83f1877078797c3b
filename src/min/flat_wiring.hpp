/// \file flat_wiring.hpp
/// \brief The stage-packed flat wiring IR: one topology representation
/// shared by the equivalence checks, the simulators and the sweeps.
///
/// The paper's point is that many differently-constructed networks are a
/// single topology; FlatWiring is that topology flattened to two
/// contiguous CSR-style uint32_t arrays, built once (from an MIDigraph,
/// from a radix-r KaryMIDigraph, or directly from a PIPID sequence) and
/// consumed read-only everywhere. With r = radix() and C =
/// cells_per_stage():
///
///   down[s * rC + r*x + port] = child_cell * r + input_slot
///   up  [s * rC + r*y + slot] = parent_cell * r + out_port
///
/// Record s spans the connection from stage s to stage s + 1;
/// `input_slot` is the slot (0 .. r-1) of the child cell that the arc
/// feeds, assigned in deterministic (source cell, port) fill order — the
/// exact assignment both switching disciplines simulate, so a wiring
/// built here is bit-compatible with the pre-IR simulators. At r = 2 the
/// packing `cell * 2 + slot` is bit-for-bit the historic
/// `(cell << 1) | slot`, so every radix-2 artifact (goldens, masks,
/// sweeps) carries over unchanged.
///
/// The packing formula lives HERE and only here: consumers unpack through
/// pack_record / unpack_cell / unpack_slot (or the UnpackBinary /
/// UnpackRadix helpers below, which hot kernels dispatch between so the
/// radix-2 paths keep their shift/mask code generation). Do not re-derive
/// `rec >> 1` / `rec & 1` in a consumer.
///
/// Only *valid* MI-digraphs (every in-degree exactly radix) are
/// representable: slot assignment is meaningless otherwise. Degenerate
/// double-link stages (Fig. 5) still have all in-degrees 2 — both slots
/// of a child fed by the same parent — so they flatten fine and fail
/// later checks (Banyan) rather than construction.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "min/mi_digraph.hpp"
#include "perm/index_perm.hpp"

namespace mineq::min {

class KaryMIDigraph;  // kary.hpp

/// Flat, stage-packed wiring of a valid MI-digraph (any radix).
class FlatWiring {
 public:
  /// The 1-stage wiring (no connections, a single cell column).
  FlatWiring() = default;

  /// Flatten a valid (radix-2) MI-digraph.
  /// \throws std::invalid_argument if some cell's in-degree is not 2.
  [[nodiscard]] static FlatWiring from_digraph(const MIDigraph& g);

  /// Flatten a valid radix-r KaryMIDigraph. Identical to from_digraph on
  /// the same tables when the radix is 2 (asserted in the tests).
  /// \throws std::invalid_argument if some cell's in-degree is not radix.
  [[nodiscard]] static FlatWiring from_kary(const KaryMIDigraph& g);

  /// Build directly from a PIPID wiring sequence (pipids.size() + 1
  /// stages, every PIPID of width equal to that stage count), using the
  /// paper's closed bit formula — no Connection image tables and no 2^n
  /// link-permutation table are materialized. Identical to
  /// from_digraph(network_from_pipids(pipids)) record for record
  /// (including degenerate k == 0 stages, whose double links are valid
  /// in-degree-2 wirings).
  /// \throws std::invalid_argument on a width mismatch or an empty
  /// sequence.
  [[nodiscard]] static FlatWiring from_pipids(
      const std::vector<perm::IndexPermutation>& pipids);

  /// Build directly from explicit per-connection child tables:
  /// child_of_link_per_stage[s][radix * x + port] is the child cell the
  /// port-p out-link of cell x at stage s lands in. This is the escape
  /// hatch for geometries KaryMIDigraph cannot represent (it pins cells =
  /// radix^(stages-1)): the multipath fabrics (Benes, dilated, replicated
  /// planes) compose existing stage blocks into wirings with 2n-1 stages,
  /// radix r*d cells, or p*C cells. Slot assignment goes through the same
  /// pack_stage fill order as every other constructor.
  /// \throws std::invalid_argument on a geometry/table-size mismatch or if
  /// some cell's in-degree is not radix.
  [[nodiscard]] static FlatWiring from_stage_children(
      int stages, std::uint32_t cells, int radix,
      const std::vector<std::vector<std::uint32_t>>& child_of_link_per_stage);

  /// Reject geometries the packed records cannot represent: radix must
  /// be within [2, 64] (uint8 slot-fill counters; kary constructions cap
  /// at 16 anyway), stages >= 1, cells >= 1, and cells * radix must fit
  /// a uint32_t — the largest packed record is cells * radix - 1, and a
  /// larger geometry would wrap silently long before the arrays
  /// themselves hit memory limits. Called by every constructor *before*
  /// any allocation; public so the boundary is testable without
  /// materializing a near-2^32-record wiring.
  /// \throws std::invalid_argument naming the offending geometry.
  static void check_geometry(int stages, std::uint64_t cells, int radix);

  // -------------------------------------------------------------------
  // The packing formula (the single source of truth).
  // -------------------------------------------------------------------

  /// The packed record of an arc landing in (cell, slot) at radix r.
  [[nodiscard]] static constexpr std::uint32_t pack_record(
      std::uint32_t cell, unsigned slot, unsigned radix) noexcept {
    return cell * radix + slot;
  }
  [[nodiscard]] static constexpr std::uint32_t unpack_cell(
      std::uint32_t record, unsigned radix) noexcept {
    return record / radix;
  }
  [[nodiscard]] static constexpr unsigned unpack_slot(
      std::uint32_t record, unsigned radix) noexcept {
    return record % radix;
  }

  /// Member forms over this wiring's radix.
  [[nodiscard]] std::uint32_t unpack_cell(std::uint32_t record) const noexcept {
    return unpack_cell(record, static_cast<unsigned>(radix_));
  }
  [[nodiscard]] unsigned unpack_slot(std::uint32_t record) const noexcept {
    return unpack_slot(record, static_cast<unsigned>(radix_));
  }

  [[nodiscard]] int stages() const noexcept { return stages_; }

  /// Switch degree: ports (= input slots) per cell.
  [[nodiscard]] int radix() const noexcept { return radix_; }

  /// Cell-label width: stages - 1 base-radix digits.
  [[nodiscard]] int width() const noexcept { return stages_ - 1; }

  [[nodiscard]] std::uint32_t cells_per_stage() const noexcept {
    return cells_;
  }

  /// Links (= records) per inter-stage connection: radix * cells.
  [[nodiscard]] std::size_t links_per_stage() const noexcept {
    return static_cast<std::size_t>(radix_) * cells_;
  }

  /// The packed down records of connection \p s: entry radix*x + port is
  /// pack_record(child, slot) for the port-p out-link of cell x at
  /// stage s.
  [[nodiscard]] std::span<const std::uint32_t> down_stage(int s) const {
    return {down_.data() + static_cast<std::size_t>(s) * links_per_stage(),
            links_per_stage()};
  }

  /// The packed up records of connection \p s: entry radix*y + slot is
  /// pack_record(parent, port) for input slot `slot` of cell y at
  /// stage s + 1.
  [[nodiscard]] std::span<const std::uint32_t> up_stage(int s) const {
    return {up_.data() + static_cast<std::size_t>(s) * links_per_stage(),
            links_per_stage()};
  }

  /// Child cell reached by the port-\p port out-link of cell \p x at
  /// stage \p s.
  [[nodiscard]] std::uint32_t child(int s, std::uint32_t x,
                                    unsigned port) const {
    return unpack_cell(
        down_stage(s)[static_cast<std::size_t>(radix_) * x + port]);
  }

  /// Input slot (0 .. radix-1) of that child that the arc feeds.
  [[nodiscard]] unsigned slot(int s, std::uint32_t x, unsigned port) const {
    return unpack_slot(
        down_stage(s)[static_cast<std::size_t>(radix_) * x + port]);
  }

  /// Parent cell feeding input slot \p slot of cell \p y at stage s + 1.
  [[nodiscard]] std::uint32_t parent(int s, std::uint32_t y,
                                     unsigned slot) const {
    return unpack_cell(
        up_stage(s)[static_cast<std::size_t>(radix_) * y + slot]);
  }

  /// Out-port of that parent the arc leaves through.
  [[nodiscard]] unsigned parent_port(int s, std::uint32_t y,
                                     unsigned slot) const {
    return unpack_slot(
        up_stage(s)[static_cast<std::size_t>(radix_) * y + slot]);
  }

  friend bool operator==(const FlatWiring&, const FlatWiring&) = default;

 private:
  FlatWiring(int stages, std::uint32_t cells, int radix);

  /// Assign slots for one connection given its child function; used by
  /// every constructor so the fill order is identical. \p filled is
  /// caller-owned scratch of cells_per_stage() bytes.
  void pack_stage(int s, const std::vector<std::uint32_t>& child_of_link,
                  std::vector<std::uint8_t>& filled);

  int stages_ = 1;
  int radix_ = 2;
  std::uint32_t cells_ = 1;
  std::vector<std::uint32_t> down_;
  std::vector<std::uint32_t> up_;
};

/// Compile-time radix-2 unpacker: hot kernels (the Banyan kernel, DSU
/// profiles, the masked path DP, both simulator policies) dispatch on
/// radix() == 2 to an instantiation over this type, so radix-2 code paths
/// keep their historic shift/mask code generation (no runtime division)
/// and stay byte- and speed-identical to the pre-k-ary IR.
struct UnpackBinary {
  [[nodiscard]] static constexpr unsigned radix() noexcept { return 2; }
  [[nodiscard]] static constexpr std::uint32_t cell(
      std::uint32_t record) noexcept {
    return FlatWiring::unpack_cell(record, 2);
  }
  [[nodiscard]] static constexpr unsigned slot(std::uint32_t record) noexcept {
    return FlatWiring::unpack_slot(record, 2);
  }
};

/// Runtime radix-r unpacker for the general instantiations.
struct UnpackRadix {
  unsigned r;
  [[nodiscard]] constexpr unsigned radix() const noexcept { return r; }
  [[nodiscard]] constexpr std::uint32_t cell(std::uint32_t record) const
      noexcept {
    return FlatWiring::unpack_cell(record, r);
  }
  [[nodiscard]] constexpr unsigned slot(std::uint32_t record) const noexcept {
    return FlatWiring::unpack_slot(record, r);
  }
};

// The packing round-trips at every radix, and the radix-2 packing is
// bit-for-bit the historic (cell << 1) | slot. A consumer that re-derives
// the formula instead of calling these helpers is a bug; these asserts
// pin the helpers themselves.
static_assert(FlatWiring::pack_record(5, 1, 2) == ((5u << 1) | 1u));
static_assert(FlatWiring::unpack_cell(FlatWiring::pack_record(7, 1, 2), 2) ==
              7u);
static_assert(FlatWiring::unpack_slot(FlatWiring::pack_record(7, 1, 2), 2) ==
              1u);
static_assert(FlatWiring::unpack_cell(FlatWiring::pack_record(11, 2, 3), 3) ==
              11u);
static_assert(FlatWiring::unpack_slot(FlatWiring::pack_record(11, 2, 3), 3) ==
              2u);
static_assert(UnpackBinary::cell(FlatWiring::pack_record(9, 0, 2)) == 9u);
static_assert(UnpackBinary::slot(FlatWiring::pack_record(9, 0, 2)) == 0u);

}  // namespace mineq::min
