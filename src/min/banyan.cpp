#include "min/banyan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "min/kary.hpp"
#include "util/parallel.hpp"

namespace mineq::min {

namespace {

/// Per-stage child accessors for the topology representations, so the
/// path-count DP and the unique-path kernel below are written once. Each
/// accessor exposes the out-degree and the t-th child.
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

/// Scratch words for one worker: the kernel's reach and next lanes (2 *
/// cells * W), which also hold the source-0 walk's three cell arrays.
template <std::size_t W>
[[nodiscard]] constexpr std::size_t scratch_words(std::uint32_t cells) {
  return std::max<std::size_t>(2 * W, 3) * cells;
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

/// All sources in blocks of 64 * W, across \p threads workers (0 =
/// hardware concurrency) that each own one scratch buffer and pull
/// blocks off a shared counter until one fails or none is left. Worker
/// 0 reuses the caller's \p scratch.
template <std::size_t W, typename Network>
bool all_blocks_unique(const Network& net, std::uint32_t cells,
                       std::size_t threads, std::uint64_t* scratch) {
  constexpr std::uint32_t kBlock = 64 * W;
  const std::uint32_t blocks = (cells + kBlock - 1) / kBlock;
  std::atomic<std::uint32_t> next_block(0);
  std::atomic<bool> ok(true);
  const auto work = [&](std::size_t worker) {
    std::unique_ptr<std::uint64_t[]> own;
    std::uint64_t* words = scratch;
    if (worker != 0) {
      own = std::make_unique_for_overwrite<std::uint64_t[]>(
          scratch_words<W>(cells));
      words = own.get();
    }
    while (ok.load(std::memory_order_relaxed)) {
      const std::uint32_t b =
          next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) return;
      const std::uint32_t first = b * kBlock;
      if (!block_has_unique_paths<W>(net, cells, first,
                                     std::min(kBlock, cells - first), words)) {
        ok.store(false, std::memory_order_relaxed);
      }
    }
  };
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t workers = std::min<std::size_t>(threads, blocks);
  util::parallel_for(0, workers, work, workers);
  return ok.load();
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

/// The source-0 walk, then every block, on one scratch allocation.
template <std::size_t W, typename Network>
bool walk_then_blocks(const Network& net, std::uint32_t cells,
                      std::size_t threads) {
  const auto scratch =
      std::make_unique_for_overwrite<std::uint64_t[]>(scratch_words<W>(cells));
  return source_zero_has_unique_paths(net, cells, scratch.get()) &&
         all_blocks_unique<W>(net, cells, threads, scratch.get());
}

/// Shared entry over every representation. A clash-free sweep reaches
/// degree^(stages-1) sinks per source, so the cell count must equal it
/// (always true of MIDigraph and KaryMIDigraph; a FlatWiring from
/// explicit stage tables may differ). Blocks carry one word per cell up
/// to 64 cells and four above.
template <typename Network>
bool has_unique_paths(const Network& net, std::uint32_t cells,
                      unsigned degree, std::size_t threads) {
  std::uint64_t sinks = 1;
  for (int s = 1; s < net.stages() && sinks <= cells; ++s) sinks *= degree;
  if (sinks != cells) return false;
  if (cells <= 64) return walk_then_blocks<1>(net, cells, threads);
  return walk_then_blocks<4>(net, cells, threads);
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

bool is_banyan(const MIDigraph& g, std::size_t threads) {
  return has_unique_paths(g, g.cells_per_stage(), 2, threads);
}

bool is_banyan(const FlatWiring& w, std::size_t threads) {
  return on_view(w, [&](const auto& view) {
    return has_unique_paths(view, w.cells_per_stage(),
                            static_cast<unsigned>(w.radix()), threads);
  });
}

bool kary_is_banyan(const KaryMIDigraph& g) {
  return has_unique_paths(g, g.cells_per_stage(),
                          static_cast<unsigned>(g.radix()), 1);
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
