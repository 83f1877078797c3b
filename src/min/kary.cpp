#include "min/kary.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/dsu.hpp"
#include "perm/permutation.hpp"

namespace mineq::min {

namespace {

void check_shape(int radix, int digits) {
  if (radix < 2 || radix > 16) {
    throw std::invalid_argument("kary: radix out of range [2,16]");
  }
  if (digits < 0 || digits > 20) {
    throw std::invalid_argument("kary: digits out of range [0,20]");
  }
  double cells = 1;
  for (int i = 0; i < digits; ++i) cells *= radix;
  if (cells > 1 << 22) {
    throw std::invalid_argument("kary: too many cells");
  }
}

/// A random additive bijection of Z_r^d as a d x d matrix over Z_r,
/// generated from the identity by random row operations (always
/// invertible regardless of whether r is prime).
std::vector<std::vector<unsigned>> random_additive_matrix(
    int radix, int digits, util::SplitMix64& rng) {
  std::vector<std::vector<unsigned>> m(
      static_cast<std::size_t>(digits),
      std::vector<unsigned>(static_cast<std::size_t>(digits), 0));
  for (int i = 0; i < digits; ++i) {
    m[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1;
  }
  const int ops = digits * digits * 2;
  for (int op = 0; op < ops; ++op) {
    const auto i = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(digits)));
    auto j = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(digits)));
    if (digits > 1) {
      while (j == i) {
        j = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(digits)));
      }
    }
    if (i == j) continue;
    if (rng.chance(1, 4)) {
      std::swap(m[i], m[j]);  // row swap
    } else {
      // row_i += k * row_j  (invertible for any k).
      const unsigned k = static_cast<unsigned>(
          rng.below(static_cast<std::uint64_t>(radix)));
      for (int c = 0; c < digits; ++c) {
        auto& cell = m[i][static_cast<std::size_t>(c)];
        cell = (cell + k * m[j][static_cast<std::size_t>(c)]) %
               static_cast<unsigned>(radix);
      }
    }
  }
  return m;
}

}  // namespace

RadixLabel::RadixLabel(int radix, int digits)
    : radix_(radix), digits_(digits) {
  check_shape(radix, digits);
  power_.resize(static_cast<std::size_t>(digits) + 1);
  power_[0] = 1;
  for (int i = 0; i < digits; ++i) {
    power_[static_cast<std::size_t>(i) + 1] =
        power_[static_cast<std::size_t>(i)] *
        static_cast<std::uint32_t>(radix);
  }
  cells_ = power_.back();
}

std::uint32_t RadixLabel::add(std::uint32_t a, std::uint32_t b) const {
  std::uint32_t out = 0;
  for (int i = 0; i < digits_; ++i) {
    const unsigned sum = digit(a, i) + digit(b, i);
    out += (sum % static_cast<unsigned>(radix_)) *
           power_[static_cast<std::size_t>(i)];
  }
  return out;
}

std::uint32_t RadixLabel::sub(std::uint32_t a, std::uint32_t b) const {
  std::uint32_t out = 0;
  for (int i = 0; i < digits_; ++i) {
    const unsigned diff =
        digit(a, i) + static_cast<unsigned>(radix_) - digit(b, i);
    out += (diff % static_cast<unsigned>(radix_)) *
           power_[static_cast<std::size_t>(i)];
  }
  return out;
}

unsigned RadixLabel::digit(std::uint32_t value, int i) const {
  return (value / power_[static_cast<std::size_t>(i)]) %
         static_cast<unsigned>(radix_);
}

std::uint32_t RadixLabel::with_digit(std::uint32_t value, int i,
                                     unsigned d) const {
  const std::uint32_t stripped =
      value - digit(value, i) * power_[static_cast<std::size_t>(i)];
  return stripped + d * power_[static_cast<std::size_t>(i)];
}

KaryConnection::KaryConnection(
    std::vector<std::vector<std::uint32_t>> tables, int radix, int digits)
    : radix_(radix), digits_(digits), tables_(std::move(tables)) {
  check_shape(radix, digits);
  const RadixLabel label(radix, digits);
  if (tables_.size() != static_cast<std::size_t>(radix)) {
    throw std::invalid_argument("KaryConnection: need radix tables");
  }
  for (const auto& t : tables_) {
    if (t.size() != label.cells()) {
      throw std::invalid_argument("KaryConnection: table size mismatch");
    }
    for (std::uint32_t v : t) {
      if (v >= label.cells()) {
        throw std::invalid_argument("KaryConnection: entry out of range");
      }
    }
  }
}

KaryConnection KaryConnection::from_functions(
    int radix, int digits,
    const std::function<std::uint32_t(unsigned, std::uint32_t)>& child) {
  const RadixLabel label(radix, digits);
  std::vector<std::vector<std::uint32_t>> tables(
      static_cast<std::size_t>(radix));
  for (unsigned t = 0; t < static_cast<unsigned>(radix); ++t) {
    tables[t].resize(label.cells());
    for (std::uint32_t x = 0; x < label.cells(); ++x) {
      tables[t][x] = child(t, x);
    }
  }
  return KaryConnection(std::move(tables), radix, digits);
}

KaryConnection KaryConnection::random_independent(int radix, int digits,
                                                  util::SplitMix64& rng) {
  const RadixLabel label(radix, digits);
  const auto matrix = random_additive_matrix(radix, digits, rng);
  auto apply_l = [&](std::uint32_t x) {
    std::uint32_t out = 0;
    for (int i = 0; i < digits; ++i) {
      unsigned acc = 0;
      for (int j = 0; j < digits; ++j) {
        acc += matrix[static_cast<std::size_t>(i)]
                     [static_cast<std::size_t>(j)] *
               label.digit(x, j);
      }
      out = label.with_digit(out, i, acc % static_cast<unsigned>(radix));
    }
    return out;
  };
  // Distinct per-port translations keep the stage simple (all ports are
  // bijections, in-degree exactly r when the c_t are pairwise distinct —
  // in-degree is r regardless, parallel arcs only when c_t collide).
  std::vector<std::uint32_t> c(static_cast<std::size_t>(radix));
  for (auto& v : c) {
    v = static_cast<std::uint32_t>(rng.below(label.cells()));
  }
  return from_functions(radix, digits,
                        [&](unsigned t, std::uint32_t x) {
                          return label.add(apply_l(x), c[t]);
                        });
}

unsigned KaryConnection::element_order(int radix, int digits,
                                       std::uint32_t h) {
  const RadixLabel label(radix, digits);
  std::uint32_t acc = h;
  unsigned order = 1;
  while (acc != 0) {
    acc = label.add(acc, h);
    ++order;
    if (order > static_cast<unsigned>(radix)) {
      throw std::logic_error("element_order: order exceeds radix");
    }
  }
  return order;
}

KaryConnection KaryConnection::random_independent_aligned(
    int radix, int digits, util::SplitMix64& rng) {
  if (digits < 1) {
    throw std::invalid_argument(
        "random_independent_aligned: digits must be >= 1");
  }
  const RadixLabel label(radix, digits);
  const auto matrix = random_additive_matrix(radix, digits, rng);
  auto apply_l = [&](std::uint32_t x) {
    std::uint32_t out = 0;
    for (int i = 0; i < digits; ++i) {
      unsigned acc = 0;
      for (int j = 0; j < digits; ++j) {
        acc += matrix[static_cast<std::size_t>(i)]
                     [static_cast<std::size_t>(j)] *
               label.digit(x, j);
      }
      out = label.with_digit(out, i, acc % static_cast<unsigned>(radix));
    }
    return out;
  };
  // h of full additive order r (exists: any unit vector qualifies), then
  // translations c, c+h, c+2h, ..., c+(r-1)h — one full coset of <h>.
  std::uint32_t h = 0;
  do {
    h = static_cast<std::uint32_t>(rng.below(label.cells()));
  } while (h == 0 ||
           element_order(radix, digits, h) !=
               static_cast<unsigned>(radix));
  const auto c = static_cast<std::uint32_t>(rng.below(label.cells()));
  std::vector<std::uint32_t> translations(static_cast<std::size_t>(radix));
  std::uint32_t current = c;
  for (int t = 0; t < radix; ++t) {
    translations[static_cast<std::size_t>(t)] = current;
    current = label.add(current, h);
  }
  return from_functions(radix, digits,
                        [&](unsigned t, std::uint32_t x) {
                          return label.add(apply_l(x), translations[t]);
                        });
}

KaryConnection KaryConnection::random_valid(int radix, int digits,
                                            util::SplitMix64& rng) {
  const RadixLabel label(radix, digits);
  std::vector<std::vector<std::uint32_t>> tables;
  tables.reserve(static_cast<std::size_t>(radix));
  for (int t = 0; t < radix; ++t) {
    tables.push_back(
        perm::Permutation::random(label.cells(), rng).image());
  }
  return KaryConnection(std::move(tables), radix, digits);
}

std::uint32_t KaryConnection::child(unsigned port, std::uint32_t x) const {
  if (port >= static_cast<unsigned>(radix_) || x >= cells()) {
    throw std::invalid_argument("KaryConnection::child: out of range");
  }
  return tables_[port][x];
}

const std::vector<std::uint32_t>& KaryConnection::table(unsigned port) const {
  if (port >= static_cast<unsigned>(radix_)) {
    throw std::invalid_argument("KaryConnection::table: port out of range");
  }
  return tables_[port];
}

bool KaryConnection::is_valid_stage() const {
  std::vector<std::uint32_t> indeg(cells(), 0);
  for (const auto& t : tables_) {
    for (std::uint32_t v : t) ++indeg[v];
  }
  return std::all_of(indeg.begin(), indeg.end(), [this](std::uint32_t d) {
    return d == static_cast<std::uint32_t>(radix_);
  });
}

bool KaryConnection::is_independent_definition() const {
  const RadixLabel label(radix_, digits_);
  for (std::uint32_t alpha = 1; alpha < cells(); ++alpha) {
    const std::uint32_t beta = label.sub(tables_[0][alpha], tables_[0][0]);
    for (const auto& t : tables_) {
      for (std::uint32_t x = 0; x < cells(); ++x) {
        if (t[label.add(x, alpha)] != label.add(beta, t[x])) return false;
      }
    }
  }
  return true;
}

bool KaryConnection::is_independent() const {
  const RadixLabel label(radix_, digits_);
  // Shared difference map: D(x) = table_t[x] (-) table_t[0] must agree for
  // all t and be additive.
  std::vector<std::uint32_t> d(cells());
  for (std::uint32_t x = 0; x < cells(); ++x) {
    d[x] = label.sub(tables_[0][x], tables_[0][0]);
  }
  for (std::size_t t = 1; t < tables_.size(); ++t) {
    for (std::uint32_t x = 0; x < cells(); ++x) {
      if (label.sub(tables_[t][x], tables_[t][0]) != d[x]) return false;
    }
  }
  // Additivity by peeling one unit off the lowest nonzero digit:
  // x = e_i (+) x'  with  x' = x - r^i  (no borrow), so
  // D(x) must equal D(e_i) (+) D(x').
  for (std::uint32_t x = 1; x < cells(); ++x) {
    int lowest = 0;
    while (label.digit(x, lowest) == 0) ++lowest;
    std::uint32_t unit = 1;
    for (int i = 0; i < lowest; ++i) {
      unit *= static_cast<std::uint32_t>(radix_);
    }
    const std::uint32_t rest = x - unit;
    if (rest == 0) continue;  // D(e_i * k) chain anchored at units below
    if (d[x] != label.add(d[unit], d[rest])) return false;
  }
  return true;
}

KaryMIDigraph::KaryMIDigraph(int stages, int radix,
                             std::vector<KaryConnection> connections)
    : stages_(stages), radix_(radix), connections_(std::move(connections)) {
  if (stages < 1) {
    throw std::invalid_argument("KaryMIDigraph: stages must be >= 1");
  }
  check_shape(radix, stages - 1);
  if (connections_.size() != static_cast<std::size_t>(stages - 1)) {
    throw std::invalid_argument("KaryMIDigraph: need stages-1 connections");
  }
  for (const auto& c : connections_) {
    if (c.radix() != radix || c.digits() != stages - 1) {
      throw std::invalid_argument("KaryMIDigraph: connection shape mismatch");
    }
  }
}

std::uint32_t KaryMIDigraph::cells_per_stage() const {
  return RadixLabel(radix_, stages_ - 1).cells();
}

const KaryConnection& KaryMIDigraph::connection(int index) const {
  if (index < 0 || index >= stages_ - 1) {
    throw std::invalid_argument("KaryMIDigraph::connection: range");
  }
  return connections_[static_cast<std::size_t>(index)];
}

bool KaryMIDigraph::is_valid() const {
  return std::all_of(connections_.begin(), connections_.end(),
                     [](const KaryConnection& c) {
                       return c.is_valid_stage();
                     });
}

void KaryMIDigraph::attach_schedule(DigitSchedule schedule) {
  const auto digits = static_cast<std::size_t>(stages_ - 1);
  if (schedule.radix != radix_ || schedule.digit.size() != digits ||
      schedule.port_of_value.size() != digits) {
    throw std::invalid_argument(
        "KaryMIDigraph::attach_schedule: schedule shape does not match "
        "this network (radix or stage count)");
  }
  schedule_ = std::move(schedule);
}

KaryMIDigraph kary_baseline(int stages, int radix) {
  check_shape(radix, stages - 1);
  const int digits = stages - 1;
  std::vector<KaryConnection> connections;
  for (int s = 0; s < digits; ++s) {
    // Block size r^(digits - s); within each block, position p maps to
    // p / r plus port * blocksize / r (the r sub-networks side by side).
    std::uint32_t block = 1;
    for (int i = 0; i < digits - s; ++i) {
      block *= static_cast<std::uint32_t>(radix);
    }
    const std::uint32_t sub = block / static_cast<std::uint32_t>(radix);
    connections.push_back(KaryConnection::from_functions(
        radix, digits, [&](unsigned t, std::uint32_t y) {
          const std::uint32_t p = y % block;
          return (y - p) + p / static_cast<std::uint32_t>(radix) + t * sub;
        }));
  }
  KaryMIDigraph g(stages, radix, std::move(connections));
  if (stages >= 2) {
    g.attach_schedule(
        kary_network_schedule(NetworkKind::kBaseline, stages, radix));
  }
  return g;
}

KaryMIDigraph kary_omega(int stages, int radix) {
  check_shape(radix, stages - 1);
  const int digits = stages - 1;
  const RadixLabel label(radix, digits);
  const std::uint32_t cells = label.cells();
  std::vector<KaryConnection> connections;
  for (int s = 0; s < digits; ++s) {
    // Digit rotate-left on the n-digit link label (x * r + t): the child
    // cell is (x * r + t) mod r^(n-1).
    connections.push_back(KaryConnection::from_functions(
        radix, digits, [&](unsigned t, std::uint32_t x) {
          return (x * static_cast<std::uint32_t>(radix) + t) % cells;
        }));
  }
  KaryMIDigraph g(stages, radix, std::move(connections));
  if (stages >= 2) {
    g.attach_schedule(
        kary_network_schedule(NetworkKind::kOmega, stages, radix));
  }
  return g;
}

KaryMIDigraph kary_flip(int stages, int radix) {
  check_shape(radix, stages - 1);
  const int digits = stages - 1;
  const RadixLabel label(radix, digits);
  const std::uint32_t cells = label.cells();
  const std::uint32_t sub = cells / static_cast<std::uint32_t>(radix);
  std::vector<KaryConnection> connections;
  for (int s = 0; s < digits; ++s) {
    // Digit rotate-right on the n-digit link label (x * r + t): drop the
    // port digit into the top position, shift the cell digits down.
    connections.push_back(KaryConnection::from_functions(
        radix, digits, [&](unsigned t, std::uint32_t x) {
          return x / static_cast<std::uint32_t>(radix) + t * sub;
        }));
  }
  KaryMIDigraph g(stages, radix, std::move(connections));
  if (stages >= 2) {
    g.attach_schedule(
        kary_network_schedule(NetworkKind::kFlip, stages, radix));
  }
  return g;
}

bool kary_network_supported(NetworkKind kind) {
  return kind == NetworkKind::kOmega || kind == NetworkKind::kFlip ||
         kind == NetworkKind::kBaseline;
}

DigitSchedule kary_network_schedule(NetworkKind kind, int stages, int radix) {
  if (!kary_network_supported(kind)) {
    throw std::invalid_argument(
        "kary_network_schedule: no closed-form schedule for " +
        network_name(kind));
  }
  if (stages < 2) {
    throw std::invalid_argument("kary_network_schedule: stages must be >= 2");
  }
  check_shape(radix, stages - 1);
  const int digits = stages - 1;
  DigitSchedule schedule;
  schedule.radix = radix;
  schedule.digit.resize(static_cast<std::size_t>(digits));
  std::vector<unsigned> identity(static_cast<std::size_t>(radix));
  for (int v = 0; v < radix; ++v) {
    identity[static_cast<std::size_t>(v)] = static_cast<unsigned>(v);
  }
  schedule.port_of_value.assign(static_cast<std::size_t>(digits), identity);
  for (int s = 0; s < digits; ++s) {
    // Omega: stage s rotates the link label left, so the port chosen at
    // stage s becomes digit (digits - 1 - s) of the final cell label —
    // consume the destination MSB first. Baseline: stage s splits into r
    // sub-blocks by the same high digit. Flip: the rotate-right drops
    // the port into the top digit and shifts the rest down, so stage s
    // decides digit s — LSB first. All three take the digit value as
    // the port unchanged (identity maps).
    schedule.digit[static_cast<std::size_t>(s)] =
        kind == NetworkKind::kFlip ? s : digits - 1 - s;
  }
  return schedule;
}

KaryMIDigraph build_kary_network(NetworkKind kind, int stages, int radix) {
  switch (kind) {
    case NetworkKind::kOmega:
      return kary_omega(stages, radix);
    case NetworkKind::kFlip:
      return kary_flip(stages, radix);
    case NetworkKind::kBaseline:
      return kary_baseline(stages, radix);
    default:
      throw std::invalid_argument(
          "build_kary_network: no radix-r construction for " +
          network_name(kind) +
          " (supported at radix > 2: omega, flip, baseline)");
  }
}

std::size_t kary_component_count_range(const KaryMIDigraph& g, int lo,
                                       int hi) {
  if (lo < 0 || hi >= g.stages() || lo > hi) {
    throw std::invalid_argument("kary P(i,j): bad stage range");
  }
  const std::uint32_t cells = g.cells_per_stage();
  graph::DSU dsu(static_cast<std::size_t>(hi - lo + 1) * cells);
  for (int s = lo; s < hi; ++s) {
    const KaryConnection& conn = g.connection(s);
    const std::uint32_t base = static_cast<std::uint32_t>(s - lo) * cells;
    for (unsigned t = 0; t < static_cast<unsigned>(g.radix()); ++t) {
      for (std::uint32_t x = 0; x < cells; ++x) {
        dsu.unite(base + x, base + cells + conn.table(t)[x]);
      }
    }
  }
  return dsu.components();
}

namespace {

/// Generalized P(lo, hi): exactly cells / r^(hi-lo) components.
bool kary_satisfies_p(const KaryMIDigraph& g, int lo, int hi) {
  std::size_t expected = g.cells_per_stage();
  for (int i = 0; i < hi - lo; ++i) {
    expected /= static_cast<std::size_t>(g.radix());
  }
  return kary_component_count_range(g, lo, hi) == expected;
}

}  // namespace

bool kary_satisfies_p1_star(const KaryMIDigraph& g) {
  for (int j = 0; j < g.stages(); ++j) {
    if (!kary_satisfies_p(g, 0, j)) return false;
  }
  return true;
}

bool kary_satisfies_p_star_n(const KaryMIDigraph& g) {
  for (int i = 0; i < g.stages(); ++i) {
    if (!kary_satisfies_p(g, i, g.stages() - 1)) return false;
  }
  return true;
}

bool kary_is_baseline_equivalent(const KaryMIDigraph& g) {
  return g.is_valid() && kary_is_banyan(g) && kary_satisfies_p1_star(g) &&
         kary_satisfies_p_star_n(g);
}

}  // namespace mineq::min
