/// \file main.cpp
/// \brief The end-to-end benchmark program: runs one workload for a time
/// budget, checks every output, and prints every metric with its unit.
///
///   e2ebench --workload <classify|sweep|megafabric|resilience> --seed <n>
///            --seconds <s> --trace <0|1> [--verify] [--perturb] [--small]
///
/// The last line of standard output is one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1. A traced run also
/// writes its spans to .bench_out/ under the working directory.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_CXX_FLAGS
#define E2EBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace e2ebench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order. A metric the workload does not
/// exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"min.build_s", "s"},
    {"min.flatten_s", "s"},
    {"min.equivalence_s", "s"},
    {"min.equivalence_wiring_s", "s"},
    {"min.banyan_s", "s"},
    {"min.independence_s", "s"},
    {"min.verdict_equivalent", "count"},
    {"min.verdict_failfast", "count"},
    {"min.verdict_profile", "count"},
    {"min.bit_schedule_s", "s"},
    {"min.verify_schedule_s", "s"},
    {"min.self_s", "s"},
    {"sim.engine_s", "s"},
    {"sim.run_serial_saf_s", "s"},
    {"sim.run_serial_wormhole_s", "s"},
    {"sim.ns_per_terminal_cycle_saf", "ns"},
    {"sim.ns_per_terminal_cycle_wormhole", "ns"},
    {"sim.run_sharded_s", "s"},
    {"sim.run_serial_ref_s", "s"},
    {"sim.shard_speedup", "x"},
    {"sim.shard_efficiency", "ratio"},
    {"sim.shard_speedup_saf", "x"},
    {"sim.shard_speedup_wormhole", "x"},
    {"sim.shard_efficiency_saf", "ratio"},
    {"sim.shard_efficiency_wormhole", "ratio"},
    {"sim.flit_hops", "count"},
    {"sim.delivered", "count"},
    {"sim.hol_blocking_cycles", "count"},
    {"sim.credit_stall_cycles", "count"},
    {"sim.self_s", "s"},
    {"util.barrier_ns", "ns"},
    {"util.team_dispatch_ns", "ns"},
    {"fault.mask_s", "s"},
    {"fault.classify_s", "s"},
    {"fault.dropped", "count"},
    {"fault.rerouted", "count"},
    {"fault.self_s", "s"},
    {"multipath.engine_s", "s"},
    {"multipath.run_s", "s"},
    {"multipath.path_reroutes", "count"},
    {"multipath.self_s", "s"},
    {"workload.record_run_s", "s"},
    {"workload.replay_run_s", "s"},
    {"workload.write_trace_s", "s"},
    {"workload.parse_trace_s", "s"},
    {"workload.trace_records", "count"},
    {"workload.window_stall_cycles", "count"},
    {"workload.offered_rate_effective", "pkt/term/cycle"},
    {"workload.self_s", "s"},
    {"obs.overhead_ratio", "ratio"},
    {"obs.trace_json_s", "s"},
    {"obs.trace_events", "count"},
    {"obs.self_s", "s"},
    {"exp.run_sweep_s", "s"},
    {"exp.csv_s", "s"},
    {"exp.json_s", "s"},
    {"exp.setup_share", "ratio"},
    {"exp.self_s", "s"},
    {"bench.self_s", "s"},
    {"bench.flit_hops_per_s", "1/s"},
    {"bench.points_per_s", "1/s"},
    {"bench.networks_per_s", "1/s"},
    {"bench.check_p50_ms", "ms"},
    {"bench.check_p90_ms", "ms"},
    {"bench.check_samples", "count"},
    {"bench.failed_frac", "ratio"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.spans", "count"},
};

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) < 0x80000004U) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
  model = model.c_str();
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Cli {
  Options options;
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string source_digest = "unknown";
};

Cli parse(int argc, char** argv) {
  Cli cli;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      cli.options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      cli.options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      cli.options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace is 0 or 1");
      }
      cli.options.trace = v == "1";
    } else if (arg == "--verify") {
      cli.options.verify = true;
    } else if (arg == "--perturb") {
      cli.options.perturb = true;
    } else if (arg == "--small") {
      cli.options.small = true;
    } else if (arg == "--git-sha") {
      cli.git_sha = value();
    } else if (arg == "--git-dirty") {
      cli.git_dirty = value();
    } else if (arg == "--source-digest") {
      cli.source_digest = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(cli.options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  cli.options.threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  return cli;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "classify") return make_classify(options);
  if (options.workload == "sweep") return make_sweep(options);
  if (options.workload == "megafabric") return make_megafabric(options);
  if (options.workload == "resilience") return make_resilience(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

std::string manifest_json(const Cli& cli, const Workload& workload) {
  const Options& o = cli.options;
  std::ostringstream out;
  out << "{\"benchmark\":\"e2ebench\",\"git_sha\":\""
      << json_escape(cli.git_sha) << "\",\"git_dirty\":\""
      << json_escape(cli.git_dirty) << "\",\"source_digest\":\""
      << json_escape(cli.source_digest) << "\",\"build_type\":\""
      << json_escape(E2EBENCH_BUILD_TYPE) << "\",\"compiler\":\""
      << json_escape(__VERSION__) << "\",\"cxx_flags\":\""
      << json_escape(E2EBENCH_CXX_FLAGS)
      << "\",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"threads_used\":" << o.threads << ",\"cpu_model\":\""
      << json_escape(cpu_model())
      << "\",\"governor\":\"not read (the benchmark reads only its "
         "checkout)\",\"workload\":\""
      << json_escape(o.workload) << "\",\"seed\":" << o.seed
      << ",\"seconds\":" << json_number(o.seconds)
      << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"verify\":" << (o.verify ? 1 : 0)
      << ",\"perturb\":" << (o.perturb ? 1 : 0)
      << ",\"small\":" << (o.small ? 1 : 0)
      << ",\"params\":" << workload.params_json() << "}";
  return out.str();
}

void write_spans(const std::string& manifest, const Options& o) {
  const std::filesystem::path dir(".bench_out");
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / ("spans-" + o.workload + "-seed" + std::to_string(o.seed) +
             ".json");
  std::ofstream out(path);
  out << "{\"manifest\":" << manifest << ",\"spans\":[";
  const auto& spans = tracer().spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"iteration\":" << s.iteration
        << "}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
  std::cerr << "spans written to " << path.string() << "\n";
}

template <class Get>
double median_over(const std::vector<Iteration>& its, bool traced, Get get) {
  std::vector<double> values;
  for (std::size_t i = 0; i < its.size(); ++i) {
    if (its[i].traced == traced) values.push_back(get(its[i], i));
  }
  return median(values);
}

/// Iterates until the budget is spent. A traced run alternates untraced and
/// traced iterations, so it measures its own overhead.
///
/// A serial set-up phase runs on each allowed CPU in turn (a traced run
/// moves on every other iteration, so its untraced ones see every CPU):
/// the host runs its vCPUs at different speeds that change over tens of
/// seconds, up to 1.8x apart for the same set-up, so a set-up timed on
/// whichever CPU the scheduler picked reads the CPU more than the code.
std::vector<Iteration> iterate(Workload& workload, const Options& o) {
  std::vector<Iteration> its;
  std::vector<double> iteration_s;
  const std::vector<int>& cpus = allowed_cpus();
  const auto start = Clock::now();
  for (int index = 0;; ++index) {
    const bool traced = o.trace && index % 2 == 1;
    const auto turn = static_cast<std::size_t>(o.trace ? index / 2 : index);
    const int setup_cpu = cpus.empty() ? -1 : cpus[turn % cpus.size()];
    const auto iteration_start = Clock::now();
    tracer().set_iteration(index);
    tracer().set_enabled(traced);
    {
      const ScopedSpan root("bench.iteration");
      its.push_back(workload.run(index, traced, setup_cpu));
    }
    tracer().set_enabled(false);
    iteration_s.push_back(seconds_since(iteration_start));
    const bool enough = o.trace ? its.size() >= 2 : !its.empty();
    if (enough && seconds_since(start) + median(iteration_s) > o.seconds) {
      return its;
    }
  }
}

/// The end-to-end figures, from untraced iterations only, and the checks.
struct Summary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double ops_per_s = 0.0;
  double hops_per_s = 0.0;
  std::vector<double> latencies_ms;

  [[nodiscard]] double failed_frac() const {
    return static_cast<double>(failed) /
           static_cast<double>(std::max<std::size_t>(1, attempted));
  }
};

/// The untraced set-up times' median per set-up CPU, averaged over the
/// CPUs, so every CPU weighs the same however many turns it had.
double setup_over_cpus(const std::vector<Iteration>& its) {
  std::map<int, std::vector<double>> by_cpu;
  for (const Iteration& it : its) {
    if (!it.traced) by_cpu[it.setup_cpu].push_back(it.setup_s);
  }
  double sum = 0.0;
  for (const auto& [cpu, values] : by_cpu) sum += median(values);
  return by_cpu.empty() ? 0.0 : sum / static_cast<double>(by_cpu.size());
}

Summary summarize(std::vector<Iteration>& its) {
  Summary sum;
  for (Iteration& it : its) {
    if (it.digest != its.front().digest) {
      it.problems.push_back("simulated-statistics digest differs from the "
                            "first iteration");
      it.failed = it.ops;
    }
    sum.attempted += it.ops;
    sum.failed += std::min(it.failed, it.ops);
    sum.problems.insert(sum.problems.end(), it.problems.begin(),
                        it.problems.end());
    if (!it.traced) {
      sum.latencies_ms.insert(sum.latencies_ms.end(), it.latencies_ms.begin(),
                              it.latencies_ms.end());
    }
  }
  sum.setup_s = setup_over_cpus(its);
  sum.wall_s = median_over(
      its, false, [](const Iteration& it, auto) { return it.wall_s; });
  sum.ops_per_s = median_over(its, false, [](const Iteration& it, auto) {
    return static_cast<double>(it.ops) / it.work_s;
  });
  sum.hops_per_s = median_over(its, false, [](const Iteration& it, auto) {
    return it.sim_s > 0.0 ? it.flit_hops / it.sim_s : 0.0;
  });
  return sum;
}

/// The human-readable report: every metric the workload has, by name and
/// with its unit, including the workload-specific ones.
void print_report(const std::vector<Iteration>& its, const Summary& sum,
                  const Options& o, const Workload& workload) {
  for (std::size_t i = 0; i < sum.problems.size() && i < 20; ++i) {
    std::cout << "CHECK FAILED: " << sum.problems[i] << "\n";
  }
  const auto untraced = std::count_if(
      its.begin(), its.end(), [](const Iteration& it) { return !it.traced; });
  std::cout << "workload " << o.workload << " seed " << o.seed << ": "
            << its.size() << " iterations (" << untraced << " untraced), "
            << sum.attempted << " operations, " << sum.failed << " failed\n";
  std::cout << "  per-iteration wall_s:";
  for (const Iteration& it : its) {
    std::cout << " " << json_number(it.wall_s)
              << (it.traced ? "(traced)" : "");
  }
  std::cout << "\n";
  const auto line = [](const char* name, double value, const char* unit) {
    std::cout << "  " << name << " = " << json_number(value) << " " << unit
              << "\n";
  };
  line("setup_s", sum.setup_s, "s");
  line("wall_s", sum.wall_s, "s");
  line("ops_per_s", sum.ops_per_s, "1/s");
  std::cout << "  (ops_per_s is " << workload.ops_name() << " here)\n";
  if (sum.hops_per_s > 0.0) line("flit_hops_per_s", sum.hops_per_s, "1/s");
  if (!sum.latencies_ms.empty()) {
    line("check_p50_ms", quantile(sum.latencies_ms, 0.5), "ms");
    line("check_p90_ms", quantile(sum.latencies_ms, 0.9), "ms");
    line("check_samples", static_cast<double>(sum.latencies_ms.size()),
         "count");
  }
  line("failed_frac", sum.failed_frac(), "ratio");
  line("peak_rss_mb", peak_rss_mb(), "MB");
  std::cout << "  digest = " << std::hex << its.front().digest << std::dec
            << "\n";
}

/// Per iteration: inclusive seconds per span name, self seconds per module.
struct SpanTotals {
  std::vector<std::map<std::string, double>> inclusive;
  std::vector<std::map<std::string, double>> self;

  explicit SpanTotals(std::size_t iterations) {
    for (std::size_t i = 0; i < iterations; ++i) {
      inclusive.push_back(tracer().inclusive_s(static_cast<int>(i)));
      self.push_back(tracer().module_self_s(static_cast<int>(i)));
    }
  }
};

double find_or_zero(const std::map<std::string, double>& map,
                    const std::string& key) {
  const auto found = map.find(key);
  return found == map.end() ? 0.0 : found->second;
}

/// One per-layer metric: a benchmark-level figure, a module's self time,
/// or else the median over traced iterations of the iteration's count or,
/// failing that, the inclusive time of the spans of that name.
double per_layer_value(const std::string& name,
                       const std::vector<Iteration>& its, const Summary& sum,
                       const SpanTotals& spans, const Options& o) {
  if (name == "bench.flit_hops_per_s") return sum.hops_per_s;
  if (name == "bench.points_per_s") {
    return o.workload == "sweep" ? sum.ops_per_s : 0.0;
  }
  if (name == "bench.networks_per_s") {
    return o.workload == "classify" ? sum.ops_per_s : 0.0;
  }
  if (name == "bench.check_p50_ms") return quantile(sum.latencies_ms, 0.5);
  if (name == "bench.check_p90_ms") return quantile(sum.latencies_ms, 0.9);
  if (name == "bench.check_samples") {
    return static_cast<double>(sum.latencies_ms.size());
  }
  if (name == "bench.failed_frac") return sum.failed_frac();
  if (name == "bench.trace_overhead_ratio") {
    return median_over(its, true,
                       [](const Iteration& it, auto) { return it.wall_s; }) /
           sum.wall_s;
  }
  if (name == "bench.spans") {
    return static_cast<double>(tracer().spans().size());
  }
  if (name.ends_with(".self_s")) {
    const std::string module = name.substr(0, name.find('.'));
    return median_over(its, true, [&](const Iteration&, std::size_t i) {
      return find_or_zero(spans.self[i], module);
    });
  }
  return median_over(its, true, [&](const Iteration& it, std::size_t i) {
    return it.counts.contains(name) ? it.counts.at(name)
                                    : find_or_zero(spans.inclusive[i], name);
  });
}

int run(const Cli& cli) {
  const Options& o = cli.options;
  const std::unique_ptr<Workload> workload = make_workload(o);
  const std::string manifest = manifest_json(cli, *workload);
  std::vector<Iteration> its = iterate(*workload, o);
  const Summary sum = summarize(its);
  print_report(its, sum, o, *workload);

  std::ostringstream metrics;
  const char* separator = "";
  const auto metric = [&](const std::string& name, double value,
                          const char* unit) {
    metrics << separator << "\"" << name << "\": {\"value\": "
            << json_number(value) << ", \"unit\": \"" << unit << "\"}";
    separator = ", ";
  };
  if (!o.trace) {
    metric("setup_s", sum.setup_s, "s");
    metric("wall_s", sum.wall_s, "s");
    metric("ops_per_s", sum.ops_per_s, "1/s");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const SpanTotals spans(its.size());
    for (const MetricSpec& spec : kPerLayer) {
      metric(spec.name, per_layer_value(spec.name, its, sum, spans, o),
             spec.unit);
    }
    write_spans(manifest, o);
  }
  std::cout << "manifest " << manifest << "\n";
  std::cout << "{\"correct\": " << (sum.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << sum.attempted
            << ", \"failed\": " << sum.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "e2ebench: " << error.what() << "\n";
    return 2;
  }
}
