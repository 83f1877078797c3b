#include "min/banyan.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "min/stage_children.hpp"

namespace mineq::min {

namespace {

using detail::on_view;
using detail::stage_children;

/// Saturating path-count DP from one source over any representation.
/// Arcs with a set bit in \p mask (wirings only; null = no faults) carry
/// no paths. The arc index is the stage base plus the record's own
/// offset (FaultMask::arc_index's layout), computed from the loop
/// indices so the unpacker's compile-time radix keeps the binary
/// instantiation shift-indexed.
template <typename Network>
std::vector<std::uint64_t> path_counts(const Network& net,
                                       std::uint32_t cells,
                                       std::uint32_t source, std::uint64_t cap,
                                       const fault::FaultMask* mask) {
  if (source >= cells) {
    throw std::invalid_argument("path_counts_from: source out of range");
  }
  std::vector<std::uint64_t> counts(cells, 0);
  std::vector<std::uint64_t> next(cells, 0);
  counts[source] = 1;
  for (int s = 0; s + 1 < net.stages(); ++s) {
    const auto children = stage_children(net, s);
    const std::size_t stage_base =
        mask == nullptr
            ? 0
            : static_cast<std::size_t>(s) * mask->links_per_stage();
    std::fill(next.begin(), next.end(), 0);
    for (std::uint32_t x = 0; x < cells; ++x) {
      const std::uint64_t c = counts[x];
      if (c == 0) continue;
      const std::size_t row = std::size_t{x} * children.degree();
      for (unsigned t = 0; t < children.degree(); ++t) {
        if (mask != nullptr && mask->faulted_index(stage_base + row + t)) {
          continue;  // dead arcs carry no paths
        }
        auto& n = next[children.child(x, t)];
        n = std::min(cap, n + c);
      }
    }
    counts.swap(next);
  }
  return counts;
}

/// One cell's reach bits for a block of 64 * W sources.
template <std::size_t W>
using Lanes = std::array<std::uint64_t, W>;

template <std::size_t W>
[[nodiscard]] inline bool nonzero(const Lanes<W>& bits) noexcept {
  std::uint64_t acc = 0;
  for (const std::uint64_t word : bits) acc |= word;
  return acc != 0;
}

/// The unique-path kernel for the sources [first, first + count): bit i
/// of a cell's W words is set iff source first + i reaches it. Each stage
/// scatters every cell's bits over its out-arcs and fails if some source
/// reaches a cell over two arcs (a clash): two paths to that cell, hence
/// to some sink, as every cell has an out-arc. Clash-free, each path of
/// a source ends in a distinct cell, so the source reaches
/// degree^(stages-1) sinks once each — the caller matched that against
/// the sink count. The verdict is thus the path-count definition for any
/// degrees (a parallel arc counts iff some source reaches it). Consumed
/// reach words are zeroed, so next starts every stage clear.
template <std::size_t W, typename Network>
bool block_has_unique_paths(const Network& net, std::uint32_t cells,
                            std::uint32_t first, std::uint32_t count,
                            std::uint64_t* scratch) {
  std::uint64_t* reach = scratch;
  std::uint64_t* next = scratch + W * std::size_t{cells};
  std::fill_n(scratch, 2 * W * std::size_t{cells}, 0);
  for (std::uint32_t i = 0; i < count; ++i) {
    reach[(first + i) * W + i / 64] = std::uint64_t{1} << (i % 64);
  }
  for (int s = 0; s + 1 < net.stages(); ++s) {
    const auto children = stage_children(net, s);
    Lanes<W> clash{};
    for (std::uint32_t x = 0; x < cells; ++x) {
      std::uint64_t* from = reach + W * std::size_t{x};
      Lanes<W> bits;
      std::copy_n(from, W, bits.begin());
      if (!nonzero(bits)) continue;
      std::fill_n(from, W, 0);
      for (unsigned t = 0; t < children.degree(); ++t) {
        std::uint64_t* into = next + W * std::size_t{children.child(x, t)};
        for (std::size_t k = 0; k < W; ++k) {
          clash[k] |= into[k] & bits[k];
          into[k] |= bits[k];
        }
      }
    }
    if (nonzero(clash)) return false;
    std::swap(reach, next);
  }
  return true;
}

/// Fail fast from source 0 alone, walking only the cells it reaches
/// (O(cells), against a block's O(stages * cells)): Fig. 5's double-link
/// stages and non-Banyan independent networks, whose affine stages make
/// every source alike, already fail here. Exact like the kernel: a cell
/// reached twice has two paths. \p cells = degree^(stages-1) bounds the
/// frontier; \p scratch holds 3 * cells words.
template <typename Network>
bool source_zero_has_unique_paths(const Network& net, std::uint32_t cells,
                                  std::uint64_t* scratch) {
  // [frontier | next frontier | stage stamp per cell]
  std::uint64_t* frontier = scratch;
  std::uint64_t* next = frontier + cells;
  std::uint64_t* stamp = next + cells;
  std::fill_n(stamp, cells, 0);
  frontier[0] = 0;
  std::size_t size = 1;
  for (int s = 0; s + 1 < net.stages(); ++s) {
    const auto children = stage_children(net, s);
    const auto mark = static_cast<std::uint64_t>(s + 1);
    std::size_t next_size = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const auto x = static_cast<std::uint32_t>(frontier[i]);
      for (unsigned t = 0; t < children.degree(); ++t) {
        const std::uint32_t child = children.child(x, t);
        if (stamp[child] == mark) return false;
        stamp[child] = mark;
        next[next_size++] = child;
      }
    }
    std::swap(frontier, next);
    size = next_size;
  }
  return true;
}

/// The source-0 walk, then every block of 64 * W sources until one
/// fails, on one scratch allocation: the kernel's reach and next lanes
/// (2 * cells * W words), which also hold the walk's three cell arrays.
template <std::size_t W, typename Network>
bool walk_then_blocks(const Network& net, std::uint32_t cells) {
  constexpr std::uint32_t kBlock = 64 * W;
  const auto scratch = std::make_unique_for_overwrite<std::uint64_t[]>(
      std::max<std::size_t>(2 * W, 3) * cells);
  if (!source_zero_has_unique_paths(net, cells, scratch.get())) return false;
  for (std::uint32_t first = 0; first < cells; first += kBlock) {
    if (!block_has_unique_paths<W>(net, cells, first,
                                   std::min(kBlock, cells - first),
                                   scratch.get())) {
      return false;
    }
  }
  return true;
}

/// Shared entry over every representation. A clash-free sweep reaches
/// degree^(stages-1) sinks per source, so the cell count must equal it
/// (always true of MIDigraph and KaryMIDigraph; a FlatWiring from
/// explicit stage tables may differ). Blocks carry one word per cell up
/// to 64 cells and four above.
template <typename Network>
bool has_unique_paths(const Network& net, std::uint32_t cells,
                      unsigned degree) {
  std::uint64_t sinks = 1;
  for (int s = 1; s < net.stages() && sinks <= cells; ++s) sinks *= degree;
  if (sinks != cells) return false;
  if (cells <= 64) return walk_then_blocks<1>(net, cells);
  return walk_then_blocks<4>(net, cells);
}

}  // namespace

std::vector<std::uint64_t> path_counts_from(const MIDigraph& g,
                                            std::uint32_t source,
                                            std::uint64_t cap) {
  return path_counts(g, g.cells_per_stage(), source, cap, nullptr);
}

std::vector<std::uint64_t> path_counts_from(const FlatWiring& w,
                                            std::uint32_t source,
                                            std::uint64_t cap) {
  return on_view(w, [&](const auto& view) {
    return path_counts(view, w.cells_per_stage(), source, cap, nullptr);
  });
}

std::vector<std::uint64_t> path_counts_from(const FlatWiring& w,
                                            const fault::FaultMask& mask,
                                            std::uint32_t source,
                                            std::uint64_t cap) {
  if (!mask.matches(w)) {
    throw std::invalid_argument(
        "path_counts_from: fault mask geometry does not match the wiring");
  }
  return on_view(w, [&](const auto& view) {
    return path_counts(view, w.cells_per_stage(), source, cap, &mask);
  });
}

bool is_banyan(const MIDigraph& g) {
  return has_unique_paths(g, g.cells_per_stage(), 2);
}

bool is_banyan(const FlatWiring& w) {
  return on_view(w, [&](const auto& view) {
    return has_unique_paths(view, w.cells_per_stage(),
                            static_cast<unsigned>(w.radix()));
  });
}

bool kary_is_banyan(const KaryMIDigraph& g) {
  return has_unique_paths(g, g.cells_per_stage(),
                          static_cast<unsigned>(g.radix()));
}

std::optional<BanyanFailure> banyan_failure(const MIDigraph& g) {
  const std::uint32_t cells = g.cells_per_stage();
  for (std::uint32_t u = 0; u < cells; ++u) {
    const auto counts = path_counts_from(g, u, /*cap=*/1000000);
    for (std::uint32_t v = 0; v < cells; ++v) {
      if (counts[v] != 1) {
        return BanyanFailure{u, v, counts[v]};
      }
    }
  }
  return std::nullopt;
}

bool is_banyan_doubling(const MIDigraph& g) {
  const std::uint32_t cells = g.cells_per_stage();
  // Parallel arcs already break uniqueness.
  for (const Connection& conn : g.connections()) {
    if (conn.has_parallel_arcs()) return false;
  }
  // From each source the reachable set must exactly double per stage:
  // 2^s nodes after s connections (capped by construction at cells).
  // With out-degree 2 and 2^{stages-1} last-stage cells, doubling all the
  // way is exactly "2^{n-1} paths reach 2^{n-1} distinct cells", i.e.
  // unique paths everywhere.
  std::vector<char> reach(cells);
  std::vector<char> next(cells);
  for (std::uint32_t u = 0; u < cells; ++u) {
    std::fill(reach.begin(), reach.end(), 0);
    reach[u] = 1;
    std::size_t size = 1;
    for (int s = 0; s + 1 < g.stages(); ++s) {
      const Connection& conn = g.connection(s);
      std::fill(next.begin(), next.end(), 0);
      std::size_t next_size = 0;
      for (std::uint32_t x = 0; x < cells; ++x) {
        if (reach[x] == 0) continue;
        for (std::uint32_t child : conn.children(x)) {
          if (next[child] == 0) {
            next[child] = 1;
            ++next_size;
          }
        }
      }
      reach.swap(next);
      if (next_size != 2 * size) return false;
      size = next_size;
    }
  }
  return true;
}

}  // namespace mineq::min
