/// \file stage_children.hpp
/// \brief Internal to src/min: per-stage child accessors over every
/// topology representation, so each analysis kernel is written once.
///
/// `stage_children(net, s)` returns an accessor with the out-degree and
/// the t-th child of every cell of stage s, for an MIDigraph (its two
/// image tables), a KaryMIDigraph (its r image tables) and a FlatWiring
/// bound to its record unpacker (on_view). The Banyan kernel
/// (banyan.cpp) and the component sweeps (properties.cpp) are templates
/// over these; equivalence.cpp reaches the sweeps through
/// satisfies_star. No public header includes this one.

#pragma once

#include <array>
#include <cstdint>

#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/mi_digraph.hpp"

namespace mineq::min::detail {

/// The f and g image tables of one binary Connection.
struct TableChildren {
  const std::uint32_t* f;
  const std::uint32_t* g;
  [[nodiscard]] static constexpr unsigned degree() noexcept { return 2; }
  [[nodiscard]] std::uint32_t child(std::uint32_t x, unsigned t) const {
    return t == 0 ? f[x] : g[x];
  }
};

[[nodiscard]] inline TableChildren stage_children(const MIDigraph& g, int s) {
  const Connection& conn = g.connection(s);
  return {conn.f_table().data(), conn.g_table().data()};
}

/// The r image tables of one KaryConnection (RadixLabel caps r at 16).
struct KaryChildren {
  std::array<const std::uint32_t*, 16> tables;
  unsigned r;
  [[nodiscard]] unsigned degree() const noexcept { return r; }
  [[nodiscard]] std::uint32_t child(std::uint32_t x, unsigned t) const {
    return tables[t][x];
  }
};

[[nodiscard]] inline KaryChildren stage_children(const KaryMIDigraph& g,
                                                 int s) {
  const KaryConnection& conn = g.connection(s);
  KaryChildren out{{}, static_cast<unsigned>(g.radix())};
  for (unsigned t = 0; t < out.r; ++t) out.tables[t] = conn.table(t).data();
  return out;
}

/// Packed-record accessor over one unpacker (UnpackBinary keeps the
/// radix-2 shift/mask code generation; UnpackRadix divides).
template <typename Unpack>
struct PackedChildren {
  const std::uint32_t* down;
  Unpack unpack;
  [[nodiscard]] unsigned degree() const noexcept { return unpack.radix(); }
  [[nodiscard]] std::uint32_t child(std::uint32_t x, unsigned t) const {
    return unpack.cell(down[x * unpack.radix() + t]);
  }
};

/// A FlatWiring bound to one unpacker (on_view picks it from radix()).
template <typename Unpack>
struct WiringView {
  const FlatWiring* w;
  Unpack unpack;
  [[nodiscard]] int stages() const noexcept { return w->stages(); }
};

template <typename Unpack>
[[nodiscard]] inline PackedChildren<Unpack> stage_children(
    const WiringView<Unpack>& v, int s) {
  return {v.w->down_stage(s).data(), v.unpack};
}

/// \p fn applied to \p w's view under its unpacker.
template <typename Fn>
auto on_view(const FlatWiring& w, const Fn& fn) {
  if (w.radix() == 2) return fn(WiringView<UnpackBinary>{&w, {}});
  return fn(WiringView<UnpackRadix>{&w, {static_cast<unsigned>(w.radix())}});
}

/// Which end of the network a component sweep grows from.
enum class Sweep {
  kPrefix,  ///< (G)_{0..j} for every j: the paper's P(1,*)
  kSuffix,  ///< (G)_{i..n-1} for every i: the paper's P(*,n)
};

/// Does every prefix (kPrefix) or every suffix (kSuffix) spanning k
/// connections have cells / radix^k components? One incremental DSU
/// sweep (properties.cpp), the same kernel for every representation.
[[nodiscard]] bool satisfies_star(const MIDigraph& g, Sweep sweep);
[[nodiscard]] bool satisfies_star(const FlatWiring& w, Sweep sweep);
[[nodiscard]] bool satisfies_star(const KaryMIDigraph& g, Sweep sweep);

}  // namespace mineq::min::detail
