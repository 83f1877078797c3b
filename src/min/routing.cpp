#include "min/routing.hpp"

#include <stdexcept>
#include <string>

#include "util/bitops.hpp"

namespace mineq::min {

std::optional<Route> find_route(const MIDigraph& g, std::uint32_t source,
                                std::uint32_t sink) {
  const std::uint32_t cells = g.cells_per_stage();
  if (source >= cells || sink >= cells) {
    throw std::invalid_argument("find_route: endpoint out of range");
  }
  const int n = g.stages();
  // Backward sweep: can_reach[s][x] = does x at stage s reach sink?
  std::vector<std::vector<char>> can_reach(
      static_cast<std::size_t>(n), std::vector<char>(cells, 0));
  can_reach[static_cast<std::size_t>(n - 1)][sink] = 1;
  for (int s = n - 2; s >= 0; --s) {
    const Connection& conn = g.connection(s);
    for (std::uint32_t x = 0; x < cells; ++x) {
      can_reach[static_cast<std::size_t>(s)][x] =
          can_reach[static_cast<std::size_t>(s + 1)][conn.f_table()[x]] ||
          can_reach[static_cast<std::size_t>(s + 1)][conn.g_table()[x]];
    }
  }
  if (!can_reach[0][source]) return std::nullopt;

  Route route;
  route.cells.push_back(source);
  std::uint32_t x = source;
  for (int s = 0; s + 1 < n; ++s) {
    const Connection& conn = g.connection(s);
    const std::uint32_t via_f = conn.f_table()[x];
    if (can_reach[static_cast<std::size_t>(s + 1)][via_f]) {
      route.ports.push_back(0);
      x = via_f;
    } else {
      route.ports.push_back(1);
      x = conn.g_table()[x];
    }
    route.cells.push_back(x);
  }
  return route;
}

std::optional<DigitSchedule> find_digit_schedule(const FlatWiring& w) {
  const auto radix = static_cast<unsigned>(w.radix());
  const std::uint32_t cells = w.cells_per_stage();
  const int n = w.stages();
  DigitSchedule schedule;
  schedule.radix = w.radix();
  if (n < 2) return schedule;
  const int digits = n - 1;

  // Per (stage, sink): the single out-port every on-path cell takes
  // toward the sink, via one backward reachability sweep per sink.
  std::vector<std::vector<unsigned>> port(
      static_cast<std::size_t>(n - 1), std::vector<unsigned>(cells, 0));
  std::vector<std::vector<char>> reach(
      static_cast<std::size_t>(n), std::vector<char>(cells, 0));
  for (std::uint32_t sink = 0; sink < cells; ++sink) {
    for (auto& row : reach) std::fill(row.begin(), row.end(), 0);
    reach[static_cast<std::size_t>(n - 1)][sink] = 1;
    for (int s = n - 2; s >= 0; --s) {
      const auto& next = reach[static_cast<std::size_t>(s + 1)];
      auto& here = reach[static_cast<std::size_t>(s)];
      for (std::uint32_t x = 0; x < cells; ++x) {
        for (unsigned t = 0; t < radix; ++t) {
          if (next[w.child(s, x, t)] != 0) {
            here[x] = 1;
            break;
          }
        }
      }
    }
    for (std::uint32_t src = 0; src < cells; ++src) {
      if (reach[0][src] == 0) return std::nullopt;  // no full access
    }
    // Destination-tag routing means the port toward `sink` at stage s is
    // the same from every on-path cell; with multiple valid ports the
    // lexicographically first is fitted (exact for unique-path fabrics).
    for (int s = 0; s + 1 < n; ++s) {
      const auto& here = reach[static_cast<std::size_t>(s)];
      const auto& next = reach[static_cast<std::size_t>(s + 1)];
      int chosen = -1;
      for (std::uint32_t x = 0; x < cells; ++x) {
        if (here[x] == 0) continue;
        int first = -1;
        for (unsigned t = 0; t < radix; ++t) {
          if (next[w.child(s, x, t)] != 0) {
            first = static_cast<int>(t);
            break;
          }
        }
        if (chosen < 0) {
          chosen = first;
        } else if (chosen != first) {
          return std::nullopt;  // port depends on the current cell
        }
      }
      port[static_cast<std::size_t>(s)][sink] =
          static_cast<unsigned>(chosen);
    }
  }

  // Fit one destination digit (and its value-to-port map) per stage.
  std::vector<std::uint32_t> power(static_cast<std::size_t>(digits), 1);
  for (int i = 1; i < digits; ++i) {
    power[static_cast<std::size_t>(i)] =
        power[static_cast<std::size_t>(i - 1)] * radix;
  }
  for (int s = 0; s + 1 < n; ++s) {
    const auto& stage_port = port[static_cast<std::size_t>(s)];
    bool fitted = false;
    for (int i = 0; i < digits && !fitted; ++i) {
      std::vector<int> map(radix, -1);
      bool ok = true;
      for (std::uint32_t sink = 0; sink < cells && ok; ++sink) {
        const unsigned value =
            (sink / power[static_cast<std::size_t>(i)]) % radix;
        if (map[value] < 0) {
          map[value] = static_cast<int>(stage_port[sink]);
        } else if (map[value] != static_cast<int>(stage_port[sink])) {
          ok = false;
        }
      }
      if (!ok) continue;
      schedule.digit.push_back(i);
      std::vector<unsigned> values(radix, 0);
      for (unsigned v = 0; v < radix; ++v) {
        values[v] = static_cast<unsigned>(map[v]);
      }
      schedule.port_of_value.push_back(std::move(values));
      fitted = true;
    }
    if (!fitted) return std::nullopt;  // not digit-routable
  }
  return schedule;
}

void check_schedule_shape(const DigitSchedule& schedule, int stages,
                          int radix, const char* what) {
  const auto hops = static_cast<std::size_t>(stages - 1);
  const auto r = static_cast<std::size_t>(radix);
  if (schedule.radix != radix || schedule.digit.size() != hops ||
      schedule.port_of_value.size() != hops) {
    throw std::invalid_argument(std::string(what) +
                                " does not match the fabric arity");
  }
  for (std::size_t s = 0; s < hops; ++s) {
    if (schedule.digit[s] < 0 || schedule.digit[s] + 1 >= stages) {
      throw std::invalid_argument(std::string(what) +
                                  " reads an out-of-range digit");
    }
    const std::vector<unsigned>& map = schedule.port_of_value[s];
    if (map.size() != r) {
      throw std::invalid_argument(std::string(what) +
                                  " has a non-radix value map");
    }
    std::vector<bool> seen(r, false);
    for (const unsigned port : map) {
      if (port >= r || seen[port]) {
        throw std::invalid_argument(std::string(what) +
                                    " map is not a port bijection");
      }
      seen[port] = true;
    }
  }
}

bool verify_digit_schedule(const FlatWiring& w,
                           const DigitSchedule& schedule) {
  const int n = w.stages();
  check_schedule_shape(schedule, n, w.radix(),
                       "verify_digit_schedule: schedule");
  const auto radix = static_cast<std::uint32_t>(w.radix());
  std::vector<std::uint32_t> scale(static_cast<std::size_t>(n - 1), 1);
  for (std::size_t s = 0; s < scale.size(); ++s) {
    for (int i = 0; i < schedule.digit[s]; ++i) scale[s] *= radix;
  }
  const std::uint32_t cells = w.cells_per_stage();
  for (std::uint32_t src = 0; src < cells; ++src) {
    for (std::uint32_t dst = 0; dst < cells; ++dst) {
      std::uint32_t x = src;
      for (int s = 0; s + 1 < n; ++s) {
        const auto hop = static_cast<std::size_t>(s);
        x = w.child(s, x,
                    schedule.port_of_value[hop][(dst / scale[hop]) % radix]);
      }
      if (x != dst) return false;
    }
  }
  return true;
}

std::optional<DigitSchedule> find_bit_schedule(const MIDigraph& g) {
  if (!g.is_valid()) return std::nullopt;
  return find_digit_schedule(FlatWiring::from_digraph(g));
}

Route route_with_schedule(const MIDigraph& g, const DigitSchedule& schedule,
                          std::uint32_t source, std::uint32_t sink) {
  const int n = g.stages();
  const auto hops = static_cast<std::size_t>(n - 1);
  if (schedule.radix != 2 || schedule.digit.size() != hops ||
      schedule.port_of_value.size() != hops) {
    throw std::invalid_argument("route_with_schedule: schedule arity");
  }
  Route route;
  route.cells.push_back(source);
  std::uint32_t x = source;
  for (int s = 0; s + 1 < n; ++s) {
    const auto hop = static_cast<std::size_t>(s);
    const int bit = schedule.digit[hop];
    const std::vector<unsigned>& map = schedule.port_of_value[hop];
    if (bit < 0 || bit >= g.width() || map.size() != 2) {
      throw std::invalid_argument("route_with_schedule: schedule arity");
    }
    const unsigned port = map[util::get_bit(sink, bit)];
    route.ports.push_back(port);
    const Connection& conn = g.connection(s);
    x = port == 0 ? conn.f_table()[x] : conn.g_table()[x];
    route.cells.push_back(x);
  }
  return route;
}

bool verify_bit_schedule(const MIDigraph& g, const DigitSchedule& schedule) {
  return g.is_valid() &&
         verify_digit_schedule(FlatWiring::from_digraph(g), schedule);
}

}  // namespace mineq::min
