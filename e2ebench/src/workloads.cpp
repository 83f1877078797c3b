/// \file workloads.cpp
/// \brief The four benchmark workloads. Each iteration rebuilds its inputs
/// from the seed, so every iteration of a run does identical work and
/// produces an identical digest of simulated statistics.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "fault/fault_model.hpp"
#include "min/banyan.hpp"
#include "min/equivalence.hpp"
#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "min/routing.hpp"
#include "multipath/multipath_wiring.hpp"
#include "obs/trace.hpp"
#include "perm/permutation.hpp"
#include "sim/engine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace e2ebench {

namespace {

using namespace mineq;

/// Median set-up time over repeated calls of \p build, each of which
/// rebuilds every set-up object from scratch and replaces the previous
/// ones: at least 5 calls and at least 50 ms, at most 1000 calls. A traced
/// iteration sets up once, so its spans time a single set-up.
template <class Fn>
double timed_setup(bool traced_run, Fn&& build) {
  std::vector<double> times;
  const auto start = Clock::now();
  do {
    const auto call_start = Clock::now();
    build();
    times.push_back(seconds_since(call_start));
  } while (!traced_run && times.size() < 1000 &&
           (times.size() < 5 || seconds_since(start) < 0.05));
  return median(times);
}

void add_sim_counts(Iteration& it, const sim::SimResult& r, double hops) {
  it.counts["sim.flit_hops"] += hops;
  it.counts["sim.delivered"] += static_cast<double>(r.delivered);
  it.counts["sim.hol_blocking_cycles"] +=
      static_cast<double>(r.hol_blocking_cycles);
  it.counts["sim.credit_stall_cycles"] +=
      static_cast<double>(r.credit_stall_cycles);
  it.flit_hops += hops;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// classify: the paper's decision procedure over a mixed batch.
// ---------------------------------------------------------------------------

enum class Family : std::uint8_t {
  kRandomPipid,
  kRandomIndependent,
  kBuiltinRelabelled,
  kMutatedNonBanyan,
};

/// A copy of \p g in which one cell sends both arcs to the same child.
/// The child's other parent takes over the freed arc, so every in-degree
/// stays 2 (the network stays a valid MI-digraph) while the doubled arc
/// gives every path through that cell a twin: the result is never Banyan.
min::MIDigraph with_parallel_arc(const min::MIDigraph& g,
                                 util::SplitMix64& rng) {
  std::vector<min::Connection> connections = g.connections();
  const auto stage = static_cast<std::size_t>(
      rng.next() % static_cast<std::uint64_t>(connections.size()));
  const min::Connection& conn = connections[stage];
  std::vector<std::uint32_t> f = conn.f_table();
  std::vector<std::uint32_t> h = conn.g_table();
  for (;;) {
    const auto x = static_cast<std::uint32_t>(rng.next() % conn.cells());
    const std::uint32_t a = f[x];
    const std::uint32_t b = h[x];
    if (a == b) continue;
    for (std::uint32_t p = 0; p < conn.cells(); ++p) {
      if (p == x) continue;
      if (f[p] == a || h[p] == a) {
        (f[p] == a ? f[p] : h[p]) = b;
        h[x] = a;
        connections[stage] = min::Connection(f, h, conn.width());
        return min::MIDigraph(g.stages(), std::move(connections));
      }
    }
  }
}

/// Runs fn(i) for every i in [0, n) on \p threads threads (the caller is
/// one of them), each taking the next index as it finishes one, so a slow
/// core holds back no more than the item it is on.
template <class Fn>
void for_each_index(std::size_t n, std::size_t threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::jthread> team;
  for (std::size_t t = 1; t < std::min(threads, n); ++t) {
    team.emplace_back(worker);
  }
  worker();
}

class Classify final : public Workload {
 public:
  // A traced run classifies on one thread, so its spans nest on a single
  // stack; its untraced iterations do too, so the tracing overhead it
  // reports compares like with like.
  explicit Classify(const Options& options)
      : options_(options),
        stages_(options.small ? 6 : 12),
        per_family_(options.small ? 4 : 25),
        threads_(options.trace ? 1 : options.threads) {
    util::SplitMix64 slots(options_.seed);
    for (int j = 0; j < 4 * per_family_; ++j) {
      slot_seeds_.push_back(slots.next());
    }
    choose_independent_seeds();
  }

  [[nodiscard]] std::string params_json() const override {
    return "{\"stages\":" + std::to_string(stages_) +
           ",\"batch\":" + std::to_string(4 * per_family_) +
           ",\"families\":[\"random_pipid\",\"random_independent\","
           "\"builtin_relabelled\",\"mutated_non_banyan\"]"
           ",\"per_family\":" +
           std::to_string(per_family_) +
           ",\"threads\":" + std::to_string(threads_) + "}";
  }
  [[nodiscard]] const char* ops_name() const override {
    return "networks_per_s";
  }

  /// The set-up is parallel, so it is not pinned.
  [[nodiscard]] Iteration run(int /*index*/, bool traced_run,
                              int /*setup_cpu*/) override {
    Iteration it;
    it.traced = traced_run;
    const auto start = Clock::now();
    std::vector<min::MIDigraph> batch;
    {
      const ScopedSpan span("bench.setup");
      it.setup_s = timed_setup(traced_run, [&] { batch = build_batch(); });
    }
    const auto setup_end = Clock::now();

    std::vector<Verdict> verdicts = decide(batch, threads_);
    it.work_s = seconds_since(setup_end);
    Digest digest;
    for (Verdict& v : verdicts) {
      it.latencies_ms.push_back(v.latency_ms);
      it.counts[v.verdict] += 1;
      digest.add(v.bits);
      if (!v.problems.empty()) ++it.failed;
      for (std::string& p : v.problems) it.problems.push_back(std::move(p));
    }
    it.ops = batch.size();
    it.digest = digest.value();
    it.wall_s = seconds_since(start) -
                std::chrono::duration<double>(setup_end - start).count() +
                it.setup_s;

    if (options_.verify) {
      Digest single;
      for (const Verdict& v : decide(batch, 1)) single.add(v.bits);
      if (single.value() != it.digest) {
        it.problems.push_back("1-thread verdicts differ");
        it.failed = it.ops;
      }
    }
    return it;
  }

 private:
  /// What one network's decision returned, merged in batch order.
  struct Verdict {
    double latency_ms = 0.0;
    const char* verdict = "";
    std::uint64_t bits = 0;
    std::vector<std::string> problems;
  };

  [[nodiscard]] std::vector<Verdict> decide(
      const std::vector<min::MIDigraph>& batch, std::size_t threads) const {
    std::vector<Verdict> verdicts(batch.size());
    for_each_index(batch.size(), threads, [&](std::size_t i) {
      verdicts[i] = classify_one(family_of(i), batch[i], i);
    });
    return verdicts;
  }

  /// The batch interleaves the families, so every stretch of it mixes
  /// cheap fail-fast verdicts with full-profile ones.
  [[nodiscard]] static Family family_of(std::size_t slot) {
    return static_cast<Family>(slot % 4);
  }

  /// Slot j draws from its own stream, so the slots build independently
  /// and in parallel, and every call builds the same batch.
  [[nodiscard]] std::vector<min::MIDigraph> build_batch() const {
    std::vector<std::optional<min::MIDigraph>> slots(slot_seeds_.size());
    for_each_index(slots.size(), threads_, [&](std::size_t j) {
      slots[j].emplace(traced("min.build_s", [&] { return build_slot(j); }));
    });
    std::vector<min::MIDigraph> batch;
    batch.reserve(slots.size());
    for (std::optional<min::MIDigraph>& g : slots) {
      batch.push_back(std::move(*g));
    }
    return batch;
  }

  [[nodiscard]] min::MIDigraph build_slot(std::size_t j) const {
    util::SplitMix64 rng(slot_seeds_[j]);
    const auto& kinds = min::all_network_kinds();
    const min::NetworkKind kind = kinds[(j / 4) % kinds.size()];
    switch (family_of(j)) {
      case Family::kRandomPipid:
        return min::random_pipid_network(stages_, rng);
      case Family::kRandomIndependent: {
        util::SplitMix64 slot(independent_seeds_[j / 4]);
        return min::random_independent_network(stages_, slot);
      }
      case Family::kBuiltinRelabelled: {
        const min::MIDigraph g = min::build_network(kind, stages_);
        std::vector<perm::Permutation> maps;
        for (int s = 0; s < stages_; ++s) {
          maps.push_back(perm::Permutation::random(g.cells_per_stage(), rng));
        }
        return g.relabelled(maps);
      }
      case Family::kMutatedNonBanyan:
        return with_parallel_arc(min::build_network(kind, stages_), rng);
    }
    throw std::logic_error("unknown network family");
  }

  /// A full-profile verdict costs ~100x a fail-fast one, so the share of
  /// Banyan networks among the random independent ones would make the
  /// batch's cost depend on the seed. Fix the mix instead: pick, once per
  /// run and untimed, a generator seed per slot such that exactly half of
  /// the slots hold a Banyan (hence, by Theorem 3, equivalent) network.
  void choose_independent_seeds() {
    util::SplitMix64 seeds(options_.seed ^ 0x5EEDBA5EULL);
    for (int i = 0; i < per_family_; ++i) {
      const bool want_banyan = i % 2 == 0;
      for (;;) {
        const std::uint64_t seed = seeds.next();
        util::SplitMix64 slot(seed);
        const min::MIDigraph g = min::random_independent_network(stages_, slot);
        if ((g.is_valid() && min::is_banyan(g)) == want_banyan) {
          independent_seeds_.push_back(seed);
          break;
        }
      }
    }
  }

  [[nodiscard]] Verdict classify_one(Family family, const min::MIDigraph& g,
                                     std::size_t index) const {
    Verdict v;
    const auto start = Clock::now();
    const min::EquivalenceReport full = traced("min.equivalence_s", [&] {
      return min::check_baseline_equivalence(g);
    });
    v.latency_ms = seconds_since(start) * 1e3;

    if (full.equivalent) {
      v.verdict = "min.verdict_equivalent";
    } else if (!full.valid_degrees || !full.banyan) {
      v.verdict = "min.verdict_failfast";
    } else {
      v.verdict = "min.verdict_profile";
    }
    v.bits = static_cast<std::uint64_t>(full.valid_degrees) |
             static_cast<std::uint64_t>(full.banyan) << 1 |
             static_cast<std::uint64_t>(full.p1_star) << 2 |
             static_cast<std::uint64_t>(full.p_star_n) << 3 |
             static_cast<std::uint64_t>(full.equivalent) << 4;

    const std::string who = "network " + std::to_string(index);
    if (full.valid_degrees) {
      // Only a valid MI-digraph is representable as a FlatWiring.
      const min::FlatWiring w = traced(
          "min.flatten_s", [&] { return min::FlatWiring::from_digraph(g); });
      min::EquivalenceReport wired =
          traced("min.equivalence_wiring_s",
                 [&] { return min::check_baseline_equivalence(w); });
      if (options_.perturb && index == 0) wired.equivalent = !wired.equivalent;
      const bool banyan =
          traced("min.banyan_s", [&] { return min::is_banyan(w); });
      if (wired.equivalent != full.equivalent || wired.banyan != full.banyan ||
          wired.p1_star != full.p1_star || wired.p_star_n != full.p_star_n) {
        v.problems.push_back(who + ": MIDigraph and FlatWiring verdicts "
                                   "disagree");
      }
      if (banyan != full.banyan) {
        v.problems.push_back(who + ": is_banyan disagrees with the report");
      }
    }
    const bool via_independence =
        traced("min.independence_s", [&] {
          return min::is_baseline_equivalent_via_independence(g);
        });
    if (via_independence && !full.equivalent) {
      v.problems.push_back(who + ": Theorem-3 yes but full check no");
    }
    const bool independent_family = family == Family::kRandomPipid ||
                                    family == Family::kRandomIndependent;
    if (independent_family && via_independence != full.equivalent) {
      // Every connection is independent, so Banyan <=> equivalent.
      v.problems.push_back(who + ": Theorem 3 and full check disagree");
    }
    if (family == Family::kBuiltinRelabelled && !full.equivalent) {
      v.problems.push_back(who + ": relabelled built-in not equivalent");
    }
    if (family == Family::kMutatedNonBanyan && full.failure != "banyan") {
      v.problems.push_back(who + ": parallel-arc mutant not rejected as "
                                 "non-Banyan");
    }
    return v;
  }

  Options options_;
  int stages_;
  int per_family_;
  std::size_t threads_;
  std::vector<std::uint64_t> slot_seeds_;
  std::vector<std::uint64_t> independent_seeds_;
};

// ---------------------------------------------------------------------------
// megafabric: two sharded runs on either side of the sharding crossover.
// ---------------------------------------------------------------------------

/// The megafabric pair: one wormhole run at n=14 and one SAF run at n=13 on
/// the closed-form radix-2 omega, each sharded over a thread team.
class ShardedPair {
 public:
  // The team leaves one core to the rest of the machine: the sharded
  // kernels rendezvous on spin barriers several times a cycle, so one busy
  // core stalls a team that fills every core (measured on 4 cores with one
  // core busy: a 4-thread team ran 40% slower, a 3-thread team unchanged).
  explicit ShardedPair(const Options& options)
      : team_(std::max<std::size_t>(1, options.threads - 1)) {
    sim::SimConfig base;
    base.injection_rate = 0.6;
    base.warmup_cycles = 0;
    base.measure_cycles = options.small ? 60 : 200;
    base.seed = options.seed;
    base.sim_threads = team_;
    sim::SimConfig wormhole = base;
    wormhole.mode = sim::SwitchingMode::kWormhole;
    wormhole.lanes = 2;
    wormhole.packet_length = 4;
    runs_ = {{"wormhole", options.small ? 8 : 14, wormhole},
             {"saf", options.small ? 7 : 13, base}};
  }

  [[nodiscard]] std::string params_json() const {
    std::string out = "{\"network\":\"omega\",\"radix\":2,"
                      "\"schedule\":\"closed-form\",\"pattern\":\"uniform\","
                      "\"rate\":0.6,\"warmup_cycles\":0,\"measure_cycles\":" +
                      std::to_string(runs_.front().config.measure_cycles) +
                      ",\"sim_threads\":" + std::to_string(team_) +
                      ",\"runs\":[";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (i > 0) out += ",";
      out += "{\"mode\":\"" + std::string(runs_[i].discipline) +
             "\",\"stages\":" + std::to_string(runs_[i].stages) +
             ",\"lanes\":" + std::to_string(runs_[i].config.lanes) +
             ",\"packet_length\":" +
             std::to_string(runs_[i].config.packet_length) + "}";
    }
    return out + "]}";
  }

  using Engines = std::vector<std::optional<sim::Engine>>;

  /// Builds both engines; \p spans times each call into min and sim.
  void build(Engines& engines, bool spans) const {
    engines.resize(runs_.size());
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const auto net = [&] {
        return min::build_kary_network(min::NetworkKind::kOmega,
                                       runs_[i].stages, 2);
      };
      if (spans) {
        const min::KaryMIDigraph g = traced("min.build_s", net);
        traced("sim.engine_s", [&] { engines[i].emplace(g); });
      } else {
        engines[i].emplace(net());
      }
    }
  }

  /// Runs both configs sharded; \p seconds receives each run's host time.
  [[nodiscard]] std::vector<sim::SimResult> run_sharded(
      const Engines& engines, std::vector<double>& seconds) const {
    std::vector<sim::SimResult> results;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const auto start = Clock::now();
      results.push_back(traced("sim.run_sharded_s", [&] {
        return engines[i]->run(sim::Pattern::kUniform, runs_[i].config);
      }));
      seconds.push_back(seconds_since(start));
    }
    return results;
  }

  /// The output checks of both runs; returns the digest of their results.
  std::uint64_t check(const Engines& engines,
                      const std::vector<sim::SimResult>& results,
                      Iteration& it) const {
    Digest digest;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (!check_run(results[i], runs_[i].config, runs_[i].discipline,
                     it.problems)) {
        ++it.failed;
      }
      digest.add(results[i]);
      add_sim_counts(it, results[i],
                     flit_hops(results[i], *engines[i],
                               runs_[i].config.measure_cycles));
    }
    return digest.value();
  }

  /// The same configs at sim_threads=1: results must match bit for bit,
  /// and the time ratio is the sharding speed-up.
  void compare_serial(const Engines& engines,
                      const std::vector<sim::SimResult>& sharded,
                      const std::vector<double>& sharded_s,
                      Iteration& it) const {
    double serial_total = 0.0;
    double sharded_total = 0.0;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      sim::SimConfig config = runs_[i].config;
      config.sim_threads = 1;
      const auto start = Clock::now();
      const sim::SimResult serial = traced("sim.run_serial_ref_s", [&] {
        return engines[i]->run(sim::Pattern::kUniform, config);
      });
      const double seconds = seconds_since(start);
      Digest a;
      Digest b;
      a.add(serial);
      b.add(sharded[i]);
      if (a.value() != b.value()) {
        it.problems.push_back(std::string(runs_[i].discipline) +
                              ": sharded result differs from sim_threads=1");
        ++it.failed;
      }
      const double speedup = seconds / sharded_s[i];
      const std::string suffix(runs_[i].discipline);
      it.counts["sim.shard_speedup_" + suffix] = speedup;
      it.counts["sim.shard_efficiency_" + suffix] =
          speedup / static_cast<double>(team_);
      serial_total += seconds;
      sharded_total += sharded_s[i];
    }
    it.counts["sim.shard_speedup"] = serial_total / sharded_total;
    it.counts["sim.shard_efficiency"] =
        serial_total / sharded_total / static_cast<double>(team_);
  }

  /// One SpinBarrier round and one run_team round trip at the team size
  /// the sharded runs use.
  void time_team_sync(Iteration& it) const {
    constexpr int kRounds = 20000;
    constexpr int kDispatches = 2000;
    util::ThreadPool pool(1);
    util::SpinBarrier barrier(team_);
    const auto barrier_start = Clock::now();
    traced("util.barrier_ns", [&] {
      pool.run_team(team_, [&](std::size_t, std::size_t) {
        for (int r = 0; r < kRounds; ++r) barrier.arrive_and_wait();
      });
    });
    it.counts["util.barrier_ns"] =
        seconds_since(barrier_start) * 1e9 / kRounds;
    std::atomic<std::size_t> touched{0};
    const auto dispatch_start = Clock::now();
    traced("util.team_dispatch_ns", [&] {
      for (int d = 0; d < kDispatches; ++d) {
        pool.run_team(team_, [&](std::size_t, std::size_t) {
          touched.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
    it.counts["util.team_dispatch_ns"] =
        seconds_since(dispatch_start) * 1e9 / kDispatches;
    if (touched.load() != team_ * kDispatches) {
      it.problems.push_back("run_team skipped a worker");
    }
  }

  /// The sharded layer timed from outside, for a traced run of another
  /// workload: sharded and serial runs of the pair, and the sync costs.
  /// The engines are built outside any span, and the runs' simulated
  /// counts stay out of \p it.
  void measure_layer(Iteration& it) const {
    Engines engines;
    build(engines, false);
    std::vector<double> seconds;
    const std::vector<sim::SimResult> results = run_sharded(engines, seconds);
    Iteration own;
    check(engines, results, own);
    compare_serial(engines, results, seconds, own);
    time_team_sync(own);
    for (const auto& [name, value] : own.counts) {
      if (name.starts_with("sim.shard_") || name.starts_with("util.")) {
        it.counts[name] = value;
      }
    }
    it.problems.insert(it.problems.end(), own.problems.begin(),
                       own.problems.end());
    it.failed += own.failed;
  }

 private:
  struct Run {
    const char* discipline;
    int stages;
    sim::SimConfig config;
  };
  std::size_t team_;
  std::vector<Run> runs_;
};

/// Not gated in BENCHMARK.json: on a shared host the spin-barrier team is
/// too unsteady to gate on (see README.md). The sweep's traced run
/// measures the sharded layer instead.
class Megafabric final : public Workload {
 public:
  explicit Megafabric(const Options& options)
      : options_(options), pair_(options) {}

  [[nodiscard]] std::string params_json() const override {
    return pair_.params_json();
  }
  [[nodiscard]] const char* ops_name() const override {
    return "sim_runs_per_s";
  }

  [[nodiscard]] Iteration run(int /*index*/, bool traced_run,
                              int setup_cpu) override {
    Iteration it;
    it.traced = traced_run;
    const auto start = Clock::now();
    ShardedPair::Engines engines;
    {
      const ScopedSpan span("bench.setup");
      const CpuPin pin(setup_cpu);
      it.setup_cpu = setup_cpu;
      it.setup_s =
          timed_setup(traced_run, [&] { pair_.build(engines, true); });
    }
    const auto setup_end = Clock::now();
    std::vector<double> sharded_s;
    std::vector<sim::SimResult> results = pair_.run_sharded(engines, sharded_s);
    it.sim_s = it.work_s = seconds_since(setup_end);
    it.wall_s = seconds_since(start) -
                std::chrono::duration<double>(setup_end - start).count() +
                it.setup_s;

    if (options_.perturb) results.front().flits_delivered += 1;
    it.digest = pair_.check(engines, results, it);
    it.ops = results.size();
    if (traced_run || options_.verify) {
      pair_.compare_serial(engines, results, sharded_s, it);
    }
    if (traced_run) pair_.time_team_sync(it);
    return it;
  }

 private:
  Options options_;
  ShardedPair pair_;
};

// ---------------------------------------------------------------------------
// sweep: exp::run_sweep at radix 2, rendered as CSV and JSON.
// ---------------------------------------------------------------------------

std::uint64_t sweep_digest(const exp::SweepResult& result) {
  Digest digest;
  for (const exp::SweepPoint& point : result.points) digest.add(point.result);
  return digest.value();
}

class Sweep final : public Workload {
 public:
  explicit Sweep(const Options& options)
      : options_(options), sharded_(options) {
    grid_.networks = {min::NetworkKind::kOmega, min::NetworkKind::kBaseline};
    grid_.patterns = {sim::Pattern::kUniform, sim::Pattern::kBitReversal,
                      sim::Pattern::kHotSpot};
    grid_.modes = {sim::SwitchingMode::kStoreAndForward,
                   sim::SwitchingMode::kWormhole};
    grid_.lane_counts = {2};
    // Offered flit load 0.2 / 0.6 / 1.2 per terminal-cycle at 4-flit
    // packets: below, near and past saturation.
    grid_.rates = {0.05, 0.15, 0.3};
    // n=9, not 10: at n=10 the serial schedule recovery (~3 s a network,
    // twice per iteration) made run-to-run spread 12-22% on a shared host,
    // against 6-9% at n=9 under the same conditions; n=9 still pays it.
    grid_.stages = options.small ? 5 : 9;
    grid_.base.packet_length = 4;
    grid_.base.warmup_cycles = 0;
    grid_.base.measure_cycles = options.small ? 100 : 1600;
    grid_.base.seed = options.seed;
  }

  [[nodiscard]] std::string params_json() const override {
    return "{\"stages\":" + std::to_string(grid_.stages) +
           ",\"radix\":2,\"networks\":[\"omega\",\"baseline\"],"
           "\"patterns\":[\"uniform\",\"bitrev\",\"hotspot\"],"
           "\"modes\":[\"saf\",\"wormhole\"],\"lanes\":2,"
           "\"packet_length\":4,\"rates\":" +
           json_list(grid_.rates) +
           ",\"warmup_cycles\":0,\"measure_cycles\":" +
           std::to_string(grid_.base.measure_cycles) +
           ",\"points\":" + std::to_string(grid_.size()) +
           ",\"sweep_threads\":" + std::to_string(options_.threads) + "}";
  }
  [[nodiscard]] const char* ops_name() const override {
    return "points_per_s";
  }

  [[nodiscard]] Iteration run(int /*index*/, bool traced_run,
                              int setup_cpu) override {
    Iteration it;
    it.traced = traced_run;
    const auto start = Clock::now();
    // The constructor calls run_sweep makes for its engines, timed as their
    // own phase: from outside, the only way to split construction from
    // simulation. The traced run splits each one into its parts.
    std::vector<sim::Engine> engines;
    {
      const ScopedSpan span("bench.setup");
      const CpuPin pin(setup_cpu);
      it.setup_cpu = setup_cpu;
      for (const min::NetworkKind kind : grid_.networks) {
        min::MIDigraph net = traced("min.build_s", [&] {
          return min::build_network(kind, grid_.stages);
        });
        if (!traced_run) {
          engines.emplace_back(std::move(net));
          continue;
        }
        const auto schedule = traced(
            "min.bit_schedule_s", [&] { return min::find_bit_schedule(net); });
        if (!schedule.has_value() ||
            !traced("min.verify_schedule_s", [&] {
              return min::verify_bit_schedule(net, *schedule);
            })) {
          it.problems.push_back("no verified schedule for " +
                                min::network_name(kind));
          it.ops = it.failed = 1;
          return it;
        }
        traced("sim.engine_s",
               [&] { engines.emplace_back(std::move(net), *schedule); });
      }
    }
    it.setup_s = seconds_since(start);

    const auto sweep_start = Clock::now();
    exp::SweepResult result = traced("exp.run_sweep_s", [&] {
      return exp::run_sweep(grid_, options_.threads);
    });
    it.work_s = seconds_since(sweep_start);
    const std::string csv =
        traced("exp.csv_s", [&] { return exp::sweep_csv(result); });
    const std::string json =
        traced("exp.json_s", [&] { return exp::sweep_json(result); });
    it.wall_s = seconds_since(start);
    // run_sweep repeats the set-up phase's construction before it fans
    // out, so the simulate phase is what is left of it.
    it.sim_s = it.work_s > it.setup_s ? it.work_s - it.setup_s : it.work_s;

    if (options_.perturb) result.points.front().result.flits_delivered += 1;
    it.ops = result.points.size();
    for (const exp::SweepPoint& point : result.points) {
      if (!check_run(point.result, grid_.base, "sweep point", it.problems)) {
        ++it.failed;
      }
      add_sim_counts(it,
                     point.result,
                     flit_hops(point.result, point.stages,
                               std::uint64_t{1} << point.stages,
                               grid_.base.measure_cycles));
    }
    const auto rows = static_cast<std::size_t>(
        std::count(csv.begin(), csv.end(), '\n'));
    if (rows != result.points.size() + 1 || json.empty()) {
      it.problems.push_back("rendered report does not hold every point");
      it.failed = it.ops;
    }
    it.digest = sweep_digest(result);
    it.counts["exp.setup_share"] = it.setup_s / it.wall_s;

    if (traced_run) {
      time_serial_points(engines, it);
      sharded_.measure_layer(it);
    }
    if (options_.verify) {
      const exp::SweepResult single = exp::run_sweep(grid_, 1);
      if (sweep_digest(single) != it.digest) {
        it.problems.push_back("1-thread sweep digest differs");
        it.failed = it.ops;
      }
    }
    return it;
  }

 private:
  /// One grid point per discipline, run directly on the serial kernel.
  void time_serial_points(const std::vector<sim::Engine>& engines,
                          Iteration& it) const {
    const sim::Engine& engine = engines.front();
    for (const sim::SwitchingMode mode : grid_.modes) {
      sim::SimConfig config = grid_.base;
      config.mode = mode;
      config.lanes = grid_.lane_counts.front();
      config.injection_rate = grid_.rates[grid_.rates.size() / 2];
      const bool saf = mode == sim::SwitchingMode::kStoreAndForward;
      const auto start = Clock::now();
      const sim::SimResult r = traced(
          saf ? "sim.run_serial_saf_s" : "sim.run_serial_wormhole_s",
          [&] { return engine.run(sim::Pattern::kUniform, config); });
      const double seconds = seconds_since(start);
      if (!check_run(r, config, "serial point", it.problems)) ++it.failed;
      it.counts[saf ? "sim.ns_per_terminal_cycle_saf"
                    : "sim.ns_per_terminal_cycle_wormhole"] =
          seconds * 1e9 /
          (static_cast<double>(engine.terminals()) *
           static_cast<double>(config.measure_cycles));
    }
  }

  Options options_;
  exp::SweepGrid grid_;
  ShardedPair sharded_;  ///< the sharded layer, timed in traced runs only
};

// ---------------------------------------------------------------------------
// resilience: the generic-radix kernel with every feature axis on.
// ---------------------------------------------------------------------------

class Resilience final : public Workload {
 public:
  explicit Resilience(const Options& options)
      : options_(options), stages_(options.small ? 3 : 4) {
    config_.injection_rate = 0.5;
    config_.warmup_cycles = 0;
    config_.measure_cycles = options.small ? 500 : 4000;
    config_.seed = options.seed;
    config_.mode = sim::SwitchingMode::kWormhole;
    config_.lanes = 2;
    config_.packet_length = 4;
    config_.credits.enabled = true;
    config_.credits.return_latency = 2;
    config_.credits.arbitration = sim::ArbitrationPolicy::kWeighted;
    config_.credits.weights = {3, 1};
    config_.credits.sl_map = {0, 1};
    config_.workload.kind = workload::Kind::kClosedLoop;
    config_.workload.rr_window = 8;
    config_.workload.record = true;
    config_.obs.probe_stride = 64;
    config_.obs.flow_stats = true;
    config_.obs.trace_sample = 16;
    fault_.kind = fault::FaultKind::kRandomLinks;
    fault_.rate = 0.02;
    fault_.seed = options.seed;
    benes_.injection_rate = 0.3;
    benes_.warmup_cycles = 0;
    benes_.measure_cycles = config_.measure_cycles / 2;
    benes_.seed = options.seed;
    benes_.mode = sim::SwitchingMode::kWormhole;
    benes_.lanes = 2;
    benes_.packet_length = 4;
    benes_.path_policy = sim::PathPolicy::kAdaptive;
  }

  [[nodiscard]] std::string params_json() const override {
    return "{\"network\":\"omega\",\"radix\":" + std::to_string(radix_) +
           ",\"stages\":" + std::to_string(stages_) +
           ",\"mode\":\"wormhole\",\"lanes\":2,\"packet_length\":4,"
           "\"credits\":{\"arbitration\":\"weighted\",\"weights\":[3,1],"
           "\"service_levels\":2,\"return_latency\":2},"
           "\"faults\":{\"kind\":\"links\",\"rate\":0.02},"
           "\"workload\":{\"kind\":\"closed-loop\",\"window\":8,\"rate\":0.5,"
           "\"record\":true},"
           "\"obs\":{\"probe_stride\":64,\"flow_stats\":true,"
           "\"trace_sample\":16},\"warmup_cycles\":0,\"measure_cycles\":" +
           std::to_string(config_.measure_cycles) +
           ",\"benes\":{\"path_policy\":\"adaptive\",\"rate\":0.3,"
           "\"measure_cycles\":" +
           std::to_string(benes_.measure_cycles) + "}}";
  }
  [[nodiscard]] const char* ops_name() const override {
    return "sim_runs_per_s";
  }

  [[nodiscard]] Iteration run(int /*index*/, bool traced_run,
                              int setup_cpu) override {
    Iteration it;
    it.traced = traced_run;
    const auto start = Clock::now();
    std::optional<sim::Engine> engine;
    std::optional<sim::Engine> benes;
    std::optional<fault::FaultMask> mask;
    min::FaultedClassification survivor;
    {
      const ScopedSpan span("bench.setup");
      const CpuPin pin(setup_cpu);
      it.setup_cpu = setup_cpu;
      it.setup_s = timed_setup(traced_run, [&] {
        const min::KaryMIDigraph net = traced("min.build_s", [&] {
          return min::build_kary_network(min::NetworkKind::kOmega, stages_,
                                         radix_);
        });
        traced("sim.engine_s", [&] { engine.emplace(net); });
        traced("fault.mask_s", [&] {
          mask.emplace(fault::build_fault_mask(engine->wiring(), fault_));
        });
        survivor = traced("fault.classify_s", [&] {
          return min::classify_faulted(engine->wiring(), *mask);
        });
        traced("multipath.engine_s", [&] {
          benes.emplace(min::MultiPathWiring::benes(stages_, radix_));
        });
      });
    }
    const auto setup_end = Clock::now();

    double sim_s = 0.0;
    double last_run_s = 0.0;
    const auto timed_run = [&](const char* name, auto&& fn) {
      const auto run_start = Clock::now();
      sim::SimResult r = traced(name, fn);
      last_run_s = seconds_since(run_start);
      sim_s += last_run_s;
      return r;
    };
    sim::SimResult recorded = timed_run("workload.record_run_s", [&] {
      return engine->run(sim::Pattern::kUniform, config_, &*mask);
    });
    const double record_s = last_run_s;
    const std::string text = traced("workload.write_trace_s", [&] {
      return workload::write_trace(recorded.workload_trace);
    });
    const std::string perfetto = traced("obs.trace_json_s", [&] {
      return obs::trace_json(recorded.trace, 1, "resilience");
    });
    const workload::TraceData parsed = traced(
        "workload.parse_trace_s", [&] { return workload::parse_trace(text); });
    // The replay runs with the collectors off: observing changes no
    // simulated statistic, and one FlowSummary of 256^2 flows is enough.
    sim::SimConfig replay = config_;
    replay.obs = obs::ObsConfig{};
    replay.workload = workload::Spec{};
    replay.workload.kind = workload::Kind::kTrace;
    replay.workload.trace = std::make_shared<const workload::TraceData>(parsed);
    const sim::SimResult replayed = timed_run("workload.replay_run_s", [&] {
      return engine->run(sim::Pattern::kUniform, replay, &*mask);
    });
    const sim::SimResult fabric = timed_run("multipath.run_s", [&] {
      return benes->run(sim::Pattern::kUniform, benes_);
    });
    it.sim_s = it.work_s = sim_s;
    it.wall_s = seconds_since(start) -
                std::chrono::duration<double>(setup_end - start).count() +
                it.setup_s;

    if (options_.perturb) recorded.flits_delivered += 1;
    const auto check = [&](const sim::SimResult& r, const sim::SimConfig& c,
                           const char* what, bool extra_ok) {
      const bool ok = check_run(r, c, what, it.problems);
      if (!extra_ok) it.problems.push_back(std::string(what) + ": mismatch");
      if (!ok || !extra_ok) ++it.failed;
    };
    check(recorded, config_, "record run",
          parsed.records == recorded.workload_trace && !perfetto.empty() &&
              survivor.total_arcs > 0);
    check(replayed, replay, "replay run",
          replayed.delivered == recorded.delivered &&
              replayed.latency.mean() == recorded.latency.mean() &&
              replayed.latency.max() == recorded.latency.max());
    check(fabric, benes_, "benes run", fabric.paths_available > 1);
    it.ops = 3;

    Digest digest;
    digest.add(recorded);
    digest.add(replayed);
    digest.add(fabric);
    it.digest = digest.value();
    add_sim_counts(it, recorded,
                   flit_hops(recorded, *engine, config_.measure_cycles));
    add_sim_counts(it, replayed,
                   flit_hops(replayed, *engine, config_.measure_cycles));
    add_sim_counts(it, fabric,
                   flit_hops(fabric, *benes, benes_.measure_cycles));
    it.counts["fault.dropped"] =
        static_cast<double>(recorded.packets_dropped_faulted);
    it.counts["fault.rerouted"] =
        static_cast<double>(recorded.packets_rerouted);
    it.counts["multipath.path_reroutes"] =
        static_cast<double>(fabric.path_reroutes);
    it.counts["workload.trace_records"] =
        static_cast<double>(recorded.workload_trace.size());
    it.counts["workload.window_stall_cycles"] =
        static_cast<double>(recorded.window_stall_cycles);
    it.counts["workload.offered_rate_effective"] =
        recorded.offered_rate_effective;
    it.counts["obs.trace_events"] = static_cast<double>(recorded.trace.size());

    if (traced_run) time_obs_off(*engine, *mask, recorded, record_s, it);
    if (options_.verify) {
      sim::SimConfig sharded = config_;
      sharded.sim_threads = options_.threads;
      Digest a;
      Digest b;
      a.add(engine->run(sim::Pattern::kUniform, sharded, &*mask));
      b.add(recorded);
      if (a.value() != b.value()) {
        it.problems.push_back("record run differs at sim_threads>1");
        ++it.failed;
      }
    }
    return it;
  }

 private:
  /// The record run again with every collector off: the obs overhead, and
  /// a check that observing changes no simulated statistic.
  void time_obs_off(const sim::Engine& engine, const fault::FaultMask& mask,
                    const sim::SimResult& recorded, double record_s,
                    Iteration& it) const {
    sim::SimConfig config = config_;
    config.obs = obs::ObsConfig{};
    const auto start = Clock::now();
    const sim::SimResult plain = traced("sim.run_serial_wormhole_s", [&] {
      return engine.run(sim::Pattern::kUniform, config, &mask);
    });
    const double seconds = seconds_since(start);
    it.counts["sim.ns_per_terminal_cycle_wormhole"] =
        seconds * 1e9 /
        (static_cast<double>(engine.terminals()) *
         static_cast<double>(config.measure_cycles));
    it.counts["obs.overhead_ratio"] = record_s / seconds;
    if (plain.delivered != recorded.delivered ||
        plain.flits_delivered != recorded.flits_delivered ||
        plain.hol_blocking_cycles != recorded.hol_blocking_cycles ||
        plain.latency.mean() != recorded.latency.mean()) {
      it.problems.push_back("obs collectors changed a simulated statistic");
      ++it.failed;
    }
  }

  Options options_;
  int radix_ = 4;
  int stages_;
  sim::SimConfig config_;
  sim::SimConfig benes_;
  fault::FaultSpec fault_;
};

}  // namespace

std::unique_ptr<Workload> make_classify(const Options& options) {
  return std::make_unique<Classify>(options);
}
std::unique_ptr<Workload> make_sweep(const Options& options) {
  return std::make_unique<Sweep>(options);
}
std::unique_ptr<Workload> make_megafabric(const Options& options) {
  return std::make_unique<Megafabric>(options);
}
std::unique_ptr<Workload> make_resilience(const Options& options) {
  return std::make_unique<Resilience>(options);
}

}  // namespace e2ebench
