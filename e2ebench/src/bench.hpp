/// \file bench.hpp
/// \brief Shared machinery of the end-to-end benchmark: the span tracer,
/// order statistics, the simulated-result digest, the output checks and
/// the per-iteration record every workload fills in.
///
/// Every span is opened from the benchmark's own code, around a call into
/// one of the library's public functions — never from inside `src/`. A
/// span name is `<module>.<metric>`, so a span's module (the part before
/// the first '.') is the layer that the call entered.

#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Spans kept in memory for the whole run and written when it ends.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;     ///< index into spans(), -1 for a root span
    int iteration = 0;   ///< the benchmark iteration that opened it
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_iteration(int iteration) { iteration_ = iteration; }

  [[nodiscard]] int open(const char* name);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Inclusive seconds per span name over the spans of \p iteration.
  [[nodiscard]] std::map<std::string, double> inclusive_s(int iteration) const;
  /// Self seconds per module (span duration minus the part of it that
  /// child spans cover) over the spans of \p iteration.
  [[nodiscard]] std::map<std::string, double> module_self_s(
      int iteration) const;

 private:
  bool enabled_ = false;
  int iteration_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span: a no-op branch when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Runs \p fn inside a span named \p name and returns its result.
template <class Fn>
decltype(auto) traced(const char* name, Fn&& fn) {
  const ScopedSpan span(name);
  return fn();
}

/// The CPUs the process may run on, from its affinity mask at first call.
[[nodiscard]] const std::vector<int>& allowed_cpus();

/// Pins the calling thread to one CPU while in scope and then restores its
/// mask; a negative CPU leaves the thread alone. Threads started inside
/// the scope inherit the pin, so only serial phases are pinned.
class CpuPin {
 public:
  explicit CpuPin(int cpu);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t saved_{};
};

/// Median of \p values (0 for an empty vector).
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1] (0 for an empty vector).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// FNV-1a digest of the simulated statistics of a run: a host-only change
/// must leave it identical.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  void add(const mineq::sim::SimResult& result);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Simulated inter-stage flit-hops of the measured window, recovered from
/// the link utilization the run reports.
[[nodiscard]] double flit_hops(const mineq::sim::SimResult& result,
                               const mineq::sim::Engine& engine,
                               std::uint64_t measure_cycles);
[[nodiscard]] double flit_hops(const mineq::sim::SimResult& result, int stages,
                               std::uint64_t ports,
                               std::uint64_t measure_cycles);

/// The output checks every simulation run must pass (runs are made with
/// warmup_cycles == 0, so the flit ledger is exact). Appends a message per
/// failed check to \p problems and returns whether all passed.
bool check_run(const mineq::sim::SimResult& result,
               const mineq::sim::SimConfig& config, const char* what,
               std::vector<std::string>& problems);

/// What one benchmark iteration measured and checked.
struct Iteration {
  bool traced = false;
  double setup_s = 0.0;  ///< median over the iteration's set-up repeats
  int setup_cpu = -1;    ///< the CPU a serial set-up was pinned to, or -1
  double wall_s = 0.0;   ///< setup through the rendered report
  double work_s = 0.0;   ///< host time of the phase that does the operations
  std::size_t ops = 0;   ///< operations attempted
  std::size_t failed = 0;
  std::uint64_t digest = 0;
  double flit_hops = 0.0;
  double sim_s = 0.0;  ///< host time of the simulate phase (sim workloads)
  std::vector<double> latencies_ms;  ///< per-operation decision latency
  std::map<std::string, double> counts;  ///< per-layer counts and ratios
  std::vector<std::string> problems;
};

/// Resolved inputs of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool verify = false;   ///< also compare with sim_threads=1 / 1 sweep thread
  bool perturb = false;  ///< corrupt one simulated result (tests the checks)
  bool small = false;    ///< test-sized inputs
  std::size_t threads = 1;  ///< min(4, nproc)
};

/// One workload: parameters rendered for the manifest, and one iteration.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// The resolved parameters as a JSON object.
  [[nodiscard]] virtual std::string params_json() const = 0;
  /// Runs one iteration; \p index counts from 0. A serial set-up phase
  /// runs pinned to \p setup_cpu (see CpuPin) and records it.
  [[nodiscard]] virtual Iteration run(int index, bool traced,
                                      int setup_cpu) = 0;
  /// Name of the end-to-end throughput `ops_per_s` stands for here.
  [[nodiscard]] virtual const char* ops_name() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_classify(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_sweep(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_megafabric(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_resilience(const Options& options);

}  // namespace e2ebench
