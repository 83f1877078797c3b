#include "min/properties.hpp"

#include <stdexcept>
#include <unordered_map>

#include "graph/dsu.hpp"
#include "min/stage_children.hpp"

namespace mineq::min {

namespace {

void check_range(const MIDigraph& g, int lo, int hi) {
  if (lo < 0 || hi >= g.stages() || lo > hi) {
    throw std::invalid_argument("P(i,j): bad stage range");
  }
}

/// P(lo, hi)'s component count for span = hi - lo, at any radix:
/// cells / radix^span.
std::size_t expected_count(std::uint32_t cells, unsigned radix, int span) {
  std::size_t expected = cells;
  for (int k = 0; k < span; ++k) expected /= radix;
  return expected;
}

/// Unites every arc of one connection: upper-stage cell x is node
/// base + x and its children are nodes base + cells + child.
template <typename Children>
void unite_stage(const Children& children, std::uint32_t cells,
                 std::uint32_t base, graph::DSU& dsu) {
  for (std::uint32_t x = 0; x < cells; ++x) {
    for (unsigned t = 0; t < children.degree(); ++t) {
      dsu.unite(base + x, base + cells + children.child(x, t));
    }
  }
}

/// The DSU of stages lo..hi with every connection between them united;
/// cell x of stage s is node (s - lo) * cells + x.
template <typename Network>
graph::DSU united_range(const Network& net, std::uint32_t cells, int lo,
                        int hi) {
  graph::DSU dsu(static_cast<std::size_t>(hi - lo + 1) * cells);
  for (int s = lo; s < hi; ++s) {
    unite_stage(detail::stage_children(net, s), cells,
                static_cast<std::uint32_t>(s - lo) * cells, dsu);
  }
  return dsu;
}

/// One incremental DSU sweep over the whole digraph, from stage 0 down
/// (kPrefix) or from the last stage up (kSuffix). After k connections
/// the nodes of the stages not yet reached are singletons, so the
/// span's count is the DSU's count minus them. profile[j] counts
/// (G)_{0..j} for kPrefix and (G)_{j..n-1} for kSuffix.
template <typename Network>
std::vector<std::size_t> component_profile(const Network& net,
                                           std::uint32_t cells,
                                           detail::Sweep sweep) {
  const int stages = net.stages();
  const bool prefix = sweep == detail::Sweep::kPrefix;
  graph::DSU dsu(static_cast<std::size_t>(stages) * cells);
  std::vector<std::size_t> profile(static_cast<std::size_t>(stages));
  for (int k = 0; k < stages; ++k) {
    if (k > 0) {
      const int s = prefix ? k - 1 : stages - 1 - k;
      unite_stage(detail::stage_children(net, s), cells,
                  static_cast<std::uint32_t>(s) * cells, dsu);
    }
    const std::size_t untouched =
        static_cast<std::size_t>(stages - 1 - k) * cells;
    profile[static_cast<std::size_t>(prefix ? k : stages - 1 - k)] =
        dsu.components() - untouched;
  }
  return profile;
}

/// P(1,*) or P(*,n): the span of every profile entry has the expected
/// count.
template <typename Network>
bool profile_holds(const Network& net, std::uint32_t cells, unsigned radix,
                   detail::Sweep sweep) {
  const auto profile = component_profile(net, cells, sweep);
  const int last = net.stages() - 1;
  for (int j = 0; j <= last; ++j) {
    const int span = sweep == detail::Sweep::kPrefix ? j : last - j;
    if (profile[static_cast<std::size_t>(j)] !=
        expected_count(cells, radix, span)) {
      return false;
    }
  }
  return true;
}

}  // namespace

namespace detail {

bool satisfies_star(const MIDigraph& g, Sweep sweep) {
  return profile_holds(g, g.cells_per_stage(), 2, sweep);
}

bool satisfies_star(const FlatWiring& w, Sweep sweep) {
  return on_view(w, [&](const auto& view) {
    return profile_holds(view, w.cells_per_stage(),
                         static_cast<unsigned>(w.radix()), sweep);
  });
}

bool satisfies_star(const KaryMIDigraph& g, Sweep sweep) {
  return profile_holds(g, g.cells_per_stage(),
                       static_cast<unsigned>(g.radix()), sweep);
}

}  // namespace detail

std::size_t component_count_range(const MIDigraph& g, int lo, int hi) {
  check_range(g, lo, hi);
  return united_range(g, g.cells_per_stage(), lo, hi).components();
}

std::size_t expected_components(const MIDigraph& g, int lo, int hi) {
  check_range(g, lo, hi);
  return expected_count(g.cells_per_stage(), 2, hi - lo);
}

bool satisfies_p(const MIDigraph& g, int lo, int hi) {
  return component_count_range(g, lo, hi) == expected_components(g, lo, hi);
}

std::vector<std::size_t> prefix_component_profile(const MIDigraph& g) {
  return component_profile(g, g.cells_per_stage(), detail::Sweep::kPrefix);
}

std::vector<std::size_t> suffix_component_profile(const MIDigraph& g) {
  return component_profile(g, g.cells_per_stage(), detail::Sweep::kSuffix);
}

bool satisfies_p1_star(const MIDigraph& g) {
  return detail::satisfies_star(g, detail::Sweep::kPrefix);
}

bool satisfies_p_star_n(const MIDigraph& g) {
  return detail::satisfies_star(g, detail::Sweep::kSuffix);
}

SuffixStructure suffix_component_structure(const MIDigraph& g, int from) {
  check_range(g, from, g.stages() - 1);
  const std::uint32_t cells = g.cells_per_stage();
  const int span = g.stages() - from;
  graph::DSU dsu = united_range(g, cells, from, g.stages() - 1);
  SuffixStructure out;
  std::unordered_map<std::uint32_t, std::size_t> root_index;
  for (int s = 0; s < span; ++s) {
    for (std::uint32_t x = 0; x < cells; ++x) {
      const std::uint32_t node = static_cast<std::uint32_t>(s) * cells + x;
      const std::uint32_t root = dsu.find(node);
      const auto [it, inserted] =
          root_index.emplace(root, root_index.size());
      if (inserted) {
        out.intersections.emplace_back(static_cast<std::size_t>(span), 0);
      }
      ++out.intersections[it->second][static_cast<std::size_t>(s)];
    }
  }
  out.component_count = root_index.size();
  return out;
}

}  // namespace mineq::min
