/// \file bench.cpp
/// \brief Tracer, order statistics, digest and run checks (bench.hpp).

#include "bench.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace e2ebench {

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.iteration = iteration_;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  // Spans are scoped, so the one closing is the innermost open one.
  stack_.pop_back();
}

std::map<std::string, double> Tracer::inclusive_s(int iteration) const {
  std::map<std::string, double> out;
  for (const Span& span : spans_) {
    if (span.iteration != iteration) continue;
    out[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return out;
}

std::map<std::string, double> Tracer::module_self_s(int iteration) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.iteration == iteration && span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.iteration != iteration) continue;
    const std::string name(span.name);
    const std::string module = name.substr(0, name.find('.'));
    out[module] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &mask)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

CpuPin::CpuPin(int cpu) {
  if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xFFU;
    hash_ *= 0x100000001B3ULL;
  }
}

void Digest::add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

void Digest::add(const mineq::sim::SimResult& r) {
  for (const std::uint64_t v :
       {r.offered, r.injected, r.delivered, r.window_stall_cycles,
        r.reply_orphans, r.flits_injected, r.flits_delivered,
        r.flits_in_flight, r.hol_blocking_cycles, r.credit_stall_cycles,
        r.credit_violations, r.packets_dropped_faulted, r.packets_rerouted,
        r.packets_misdelivered, r.flits_dropped_faulted, r.paths_available,
        r.path_reroutes, r.stall_lost_arbitration, r.stall_downstream_full,
        r.stall_no_free_lane, r.stall_zero_credits, r.stall_masked_arc,
        static_cast<std::uint64_t>(r.workload_trace.size()),
        static_cast<std::uint64_t>(r.trace.size())}) {
    add(v);
  }
  add(r.latency.mean());
  add(r.latency.max());
  add(r.link_utilization);
  add(r.offered_rate_effective);
}

double flit_hops(const mineq::sim::SimResult& result,
                 const mineq::sim::Engine& engine,
                 std::uint64_t measure_cycles) {
  const mineq::min::FlatWiring& w = engine.wiring();
  return flit_hops(result, w.stages(),
                   static_cast<std::uint64_t>(w.radix()) * w.cells_per_stage(),
                   measure_cycles);
}

double flit_hops(const mineq::sim::SimResult& result, int stages,
                 std::uint64_t ports, std::uint64_t measure_cycles) {
  // link_utilization = link moves / ((stages - 1) * ports * cycles).
  return std::round(result.link_utilization *
                    static_cast<double>(stages - 1) *
                    static_cast<double>(ports) *
                    static_cast<double>(measure_cycles));
}

bool check_run(const mineq::sim::SimResult& r,
               const mineq::sim::SimConfig& config, const char* what,
               std::vector<std::string>& problems) {
  const std::size_t before = problems.size();
  const auto fail = [&](const char* check) {
    std::string message(what);
    message += ": ";
    message += check;
    problems.push_back(std::move(message));
  };
  if (config.warmup_cycles == 0 &&
      r.flits_injected !=
          r.flits_delivered + r.flits_in_flight + r.flits_dropped_faulted) {
    fail("flit ledger (injected != delivered + in flight + dropped)");
  }
  if (r.credit_violations != 0) fail("credit_violations != 0");
  if (config.obs.any() && r.stall_attributed() != r.hol_blocking_cycles) {
    fail("stall attribution sum != hol_blocking_cycles");
  }
  if (r.delivered == 0) fail("nothing delivered");
  return problems.size() == before;
}

}  // namespace e2ebench
