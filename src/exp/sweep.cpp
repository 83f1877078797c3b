#include "exp/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "min/kary.hpp"
#include "multipath/diversity.hpp"
#include "sim/fabric.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mineq::exp {

std::size_t SweepGrid::size() const noexcept {
  // Store-and-forward ignores the lane axis, so it contributes a single
  // lane variant per mode instead of the full axis.
  std::size_t mode_lane_variants = 0;
  for (const sim::SwitchingMode mode : modes) {
    mode_lane_variants +=
        mode == sim::SwitchingMode::kStoreAndForward ? 1 : lane_counts.size();
  }
  // Only the bursty pattern consumes the modulator, so every other
  // pattern contributes a single burst variant.
  std::size_t pattern_burst_variants = 0;
  for (const sim::Pattern pattern : patterns) {
    pattern_burst_variants +=
        pattern == sim::Pattern::kBursty ? bursts.size() : 1;
  }
  const std::size_t unipath_points =
      networks.size() * radices.size() * pattern_burst_variants *
      mode_lane_variants * credits.size() * faults.size() * rates.size();
  // The appended multipath block skips the credit axis (fabrics are
  // credit-less) and expands the path-policy axis instead.
  const std::size_t fabric_points =
      fabrics.size() * radices.size() * pattern_burst_variants *
      mode_lane_variants * path_policies.size() * faults.size() *
      rates.size();
  // The workload axis is outermost: the whole grid repeats per value.
  return (unipath_points + fabric_points) * workloads.size();
}

namespace {

void validate_grid(const SweepGrid& grid) {
  // The networks axis may be empty when a fabric axis is present — a
  // pure multipath sweep is legitimate.
  if ((grid.networks.empty() && grid.fabrics.empty()) ||
      grid.radices.empty() || grid.patterns.empty() || grid.modes.empty() ||
      grid.lane_counts.empty() || grid.faults.empty() ||
      grid.bursts.empty() || grid.credits.empty() || grid.rates.empty() ||
      grid.workloads.empty()) {
    throw std::invalid_argument("run_sweep: every grid axis needs >= 1 value");
  }
  for (const workload::Spec& spec : grid.workloads) {
    spec.validate();
  }
  if (grid.stages < 2) {
    throw std::invalid_argument("run_sweep: need at least 2 stages");
  }
  for (const int radix : grid.radices) {
    if (radix < 2 || radix > 16) {
      throw std::invalid_argument(
          "run_sweep: radix must be within [2, 16], got " +
          std::to_string(radix));
    }
    if (radix == 2) continue;
    for (const min::NetworkKind kind : grid.networks) {
      if (!min::kary_network_supported(kind)) {
        throw std::invalid_argument(
            "run_sweep: " + min::network_name(kind) +
            " has no radix-" + std::to_string(radix) +
            " construction (radix > 2 supports omega, flip, baseline)");
      }
    }
  }
  // The fixed parameters are checked once up front (the simulators would
  // reject them too, but only after the grid fanned out); the swept axes
  // override injection_rate, lanes, burst and fault per point, so those
  // are checked per axis value below.
  grid.base.validate();
  for (const double rate : grid.rates) {
    // NaN must be caught here: it passes both comparisons below, and a
    // SimConfig::validate() throw later inside a parallel_for worker
    // would terminate the process instead of reporting cleanly.
    if (!std::isfinite(rate) || rate < 0.0 || rate > 1.0) {
      throw std::invalid_argument(
          "run_sweep: injection rate must be finite and within [0,1]");
    }
  }
  for (const std::size_t lanes : grid.lane_counts) {
    if (lanes == 0 || lanes > sim::SimConfig::kMaxLanes) {
      throw std::invalid_argument(
          "run_sweep: lane count must be within [1, " +
          std::to_string(sim::SimConfig::kMaxLanes) + "], got " +
          std::to_string(lanes));
    }
  }
  for (const fault::FaultSpec& spec : grid.faults) {
    spec.validate();
  }
  for (const sim::BurstParams& burst : grid.bursts) {
    burst.validate();
  }
  // A credit config's validity depends on the mode/lane combination it
  // will run under (wormhole checks the SL->VL map against the lane
  // count), so each axis value is checked against every combination the
  // grid will pair it with.
  for (const sim::CreditConfig& cc : grid.credits) {
    for (const sim::SwitchingMode mode : grid.modes) {
      if (mode == sim::SwitchingMode::kWormhole) {
        for (const std::size_t lanes : grid.lane_counts) {
          cc.validate(mode, lanes);
        }
      } else {
        cc.validate(mode, grid.base.lanes);
      }
    }
  }
  for (const sim::Pattern pattern : grid.patterns) {
    if (pattern == sim::Pattern::kTranspose && grid.stages % 2 != 0) {
      throw std::invalid_argument(
          "run_sweep: transpose traffic needs an even stage count");
    }
  }
  if (!grid.fabrics.empty()) {
    if (grid.path_policies.empty()) {
      throw std::invalid_argument(
          "run_sweep: the fabric axis needs >= 1 path policy");
    }
    for (const sim::PathPolicy policy : grid.path_policies) {
      if (policy == sim::PathPolicy::kLooping) {
        throw std::invalid_argument(
            "run_sweep: the looping policy needs a fixed permutation and "
            "cannot be swept (use hash or adaptive)");
      }
    }
    for (const FabricSpec& spec : grid.fabrics) {
      if (spec.kind == min::MultiPathKind::kUnipath) {
        throw std::invalid_argument(
            "run_sweep: put single-path networks on the networks axis, "
            "not the fabrics axis");
      }
      for (const int radix : grid.radices) {
        if (spec.kind != min::MultiPathKind::kBenes && radix > 2 &&
            !min::kary_network_supported(spec.base)) {
          throw std::invalid_argument(
              "run_sweep: " + min::network_name(spec.base) + " has no radix-" +
              std::to_string(radix) + " construction to build a " +
              min::multipath_kind_name(spec.kind) + " fabric on");
        }
        if (spec.kind == min::MultiPathKind::kDilated &&
            (spec.paths < 2 || radix * spec.paths > 64)) {
          throw std::invalid_argument(
              "run_sweep: dilation must be >= 2 with radix * dilation <= 64");
        }
        if (spec.kind == min::MultiPathKind::kReplicated && spec.paths < 2) {
          throw std::invalid_argument(
              "run_sweep: a replicated fabric needs >= 2 planes");
        }
      }
    }
  }
}

/// Materialize one fabric-axis value at one radix.
min::MultiPathWiring build_fabric(const FabricSpec& spec, int stages,
                                  int radix) {
  switch (spec.kind) {
    case min::MultiPathKind::kBenes:
      return min::MultiPathWiring::benes(stages, radix);
    case min::MultiPathKind::kDilated:
      return min::MultiPathWiring::dilated(spec.base, stages, radix,
                                           spec.paths);
    case min::MultiPathKind::kReplicated:
      return min::MultiPathWiring::replicated(spec.base, stages, radix,
                                              spec.paths);
    case min::MultiPathKind::kUnipath:
      break;  // rejected by validate_grid
  }
  throw std::invalid_argument("run_sweep: unsupported fabric kind");
}

/// One fault-axis value materialized against one network: the mask the
/// simulators consume and the survivor classification every point of the
/// pair reports.
struct MaterializedFault {
  fault::FaultMask mask;
  min::FaultedClassification survivor;
  /// Worst-case surviving path count under the mask (unipath engines:
  /// full_access ? 1 : 0).
  std::uint64_t diversity = 1;
};

}  // namespace

SweepResult run_sweep(const SweepGrid& grid, std::size_t threads) {
  validate_grid(grid);

  // One engine — and with it one min::FlatWiring and one routing
  // schedule — per {network, radix, stages}, built once here and shared
  // read-only by every grid point that simulates that fabric
  // (Engine::run is const and thread-safe). No per-point topology work
  // remains: a point only touches its own RNG streams and payload pools.
  // Radix 2 builds every kind's MIDigraph and recovers its schedule
  // (byte-identical to the pre-radix-axis sweep); radices > 2 flatten
  // the k-ary constructions, which attach theirs.
  const std::size_t radix_count = grid.radices.size();
  std::vector<std::unique_ptr<sim::Engine>> engines;
  engines.reserve(grid.networks.size() * radix_count);
  for (const min::NetworkKind kind : grid.networks) {
    for (const int radix : grid.radices) {
      if (radix == 2) {
        engines.push_back(std::make_unique<sim::Engine>(
            min::build_network(kind, grid.stages)));
      } else {
        engines.push_back(std::make_unique<sim::Engine>(
            min::build_kary_network(kind, grid.stages, radix)));
      }
    }
  }
  // Fabric-axis engines follow the unipath ones: one per {fabric spec,
  // radix}, indexed unipath_engines + spec_index * radix_count + ri.
  const std::size_t unipath_engines = engines.size();
  for (const FabricSpec& spec : grid.fabrics) {
    for (const int radix : grid.radices) {
      engines.push_back(std::make_unique<sim::Engine>(
          build_fabric(spec, grid.stages, radix)));
    }
  }

  // One fault mask + survivor classification per {network, radix, fault
  // spec}, shared read-only across the points of the triple. Multipath
  // engines additionally precompute the surviving-path floor their
  // points report.
  std::vector<std::vector<MaterializedFault>> faults(engines.size());
  for (std::size_t ei = 0; ei < engines.size(); ++ei) {
    faults[ei].reserve(grid.faults.size());
    for (const fault::FaultSpec& spec : grid.faults) {
      MaterializedFault mf;
      mf.mask = fault::build_fault_mask(engines[ei]->wiring(), spec);
      mf.survivor = min::classify_faulted(engines[ei]->wiring(), mf.mask);
      mf.diversity = engines[ei]->multipath()
                         ? multipath::min_path_diversity(engines[ei]->fabric(),
                                                         &mf.mask)
                         : (mf.survivor.full_access ? 1 : 0);
      faults[ei].push_back(std::move(mf));
    }
  }

  // Enumerate the grid once, network-major with rate innermost, so the
  // output order matches the declaration order of the axes.
  SweepResult sweep;
  sweep.grid = grid;
  sweep.points.resize(grid.size());
  struct Task {
    std::size_t engine_index;
    std::size_t fault_index;
    SweepPoint point;
  };
  std::vector<Task> tasks;
  tasks.reserve(grid.size());
  const util::SplitMix64 seed_root(grid.base.seed);
  // The workload axis is OUTERMOST: the whole grid of workloads[0] — the
  // unipath block followed by its fabric block — is enumerated before
  // any point of workloads[1], so appending a workload value leaves the
  // task indices (and with them the derived seeds and output bytes) of
  // the existing prefix untouched.
  for (const workload::Spec& wl : grid.workloads) {
    for (std::size_t ni = 0; ni < grid.networks.size(); ++ni) {
      for (std::size_t ri = 0; ri < radix_count; ++ri) {
        for (const sim::Pattern pattern : grid.patterns) {
          // Only the bursty pattern consumes the modulator parameters;
          // other patterns run once, recorded with the first burst
          // variant.
          const std::size_t burst_variants =
              pattern == sim::Pattern::kBursty ? grid.bursts.size() : 1;
          for (std::size_t bi = 0; bi < burst_variants; ++bi) {
            for (const sim::SwitchingMode mode : grid.modes) {
              // Lanes only shape the wormhole discipline;
              // store-and-forward points run once, recorded with the
              // first lane count.
              const std::size_t lane_variants =
                  mode == sim::SwitchingMode::kStoreAndForward
                      ? 1
                      : grid.lane_counts.size();
              for (std::size_t li = 0; li < lane_variants; ++li) {
                for (const sim::CreditConfig& cc : grid.credits) {
                  for (std::size_t fi = 0; fi < grid.faults.size(); ++fi) {
                    for (const double rate : grid.rates) {
                      Task task;
                      task.engine_index = ni * radix_count + ri;
                      task.fault_index = fi;
                      task.point.network = grid.networks[ni];
                      task.point.radix = grid.radices[ri];
                      task.point.pattern = pattern;
                      task.point.mode = mode;
                      task.point.lanes = grid.lane_counts[li];
                      task.point.fault = grid.faults[fi];
                      task.point.burst = grid.bursts[bi];
                      task.point.credits = cc;
                      task.point.rate = rate;
                      task.point.stages = grid.stages;
                      task.point.seed = seed_root.split(tasks.size()).next();
                      task.point.workload = wl;
                      task.point.survivor =
                          faults[task.engine_index][fi].survivor;
                      task.point.min_path_diversity =
                          faults[task.engine_index][fi].diversity;
                      tasks.push_back(std::move(task));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
    // The multipath-fabric block rides strictly after the unipath grid:
    // unipath task indices — and with them the per-point seeds and every
    // byte of the unipath output — are unchanged by adding fabrics.
    for (std::size_t si = 0; si < grid.fabrics.size(); ++si) {
      const FabricSpec& spec = grid.fabrics[si];
      for (std::size_t ri = 0; ri < radix_count; ++ri) {
        for (const sim::Pattern pattern : grid.patterns) {
          const std::size_t burst_variants =
              pattern == sim::Pattern::kBursty ? grid.bursts.size() : 1;
          for (std::size_t bi = 0; bi < burst_variants; ++bi) {
            for (const sim::SwitchingMode mode : grid.modes) {
              const std::size_t lane_variants =
                  mode == sim::SwitchingMode::kStoreAndForward
                      ? 1
                      : grid.lane_counts.size();
              for (std::size_t li = 0; li < lane_variants; ++li) {
                for (const sim::PathPolicy policy : grid.path_policies) {
                  for (std::size_t fi = 0; fi < grid.faults.size(); ++fi) {
                    for (const double rate : grid.rates) {
                      Task task;
                      task.engine_index =
                          unipath_engines + si * radix_count + ri;
                      task.fault_index = fi;
                      // Record the base banyan the fabric composes (the
                      // Benes' front half is the radix-r baseline).
                      task.point.network =
                          spec.kind == min::MultiPathKind::kBenes
                              ? min::NetworkKind::kBaseline
                              : spec.base;
                      task.point.radix = grid.radices[ri];
                      task.point.pattern = pattern;
                      task.point.mode = mode;
                      task.point.lanes = grid.lane_counts[li];
                      task.point.fault = grid.faults[fi];
                      task.point.burst = grid.bursts[bi];
                      task.point.rate = rate;
                      task.point.stages = grid.stages;
                      task.point.seed = seed_root.split(tasks.size()).next();
                      task.point.workload = wl;
                      task.point.fabric = spec.kind;
                      task.point.paths = spec.paths;
                      task.point.path_policy = policy;
                      task.point.survivor =
                          faults[task.engine_index][fi].survivor;
                      task.point.min_path_diversity =
                          faults[task.engine_index][fi].diversity;
                      tasks.push_back(std::move(task));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }

  // Two-level parallelism budget: when each point shards its own cycle
  // kernels over sim_threads workers (the megafabric driver), the sweep
  // fan-out must shrink so the product stays within the machine —
  // otherwise an 8-core host asked for 8 sweep workers x 8 sim threads
  // would thrash 64 runnable threads. An explicit sweep thread count is
  // honored as given (the caller owns the budget); only the "0 =
  // hardware" default is divided by the per-point team size.
  if (threads == 0 && grid.base.sim_threads > 1) {
    const std::size_t cores = std::thread::hardware_concurrency();
    threads = std::max<std::size_t>(
        1, (cores == 0 ? 1 : cores) / grid.base.sim_threads);
  }
  util::parallel_for(
      0, tasks.size(),
      [&](std::size_t index) {
        // One payload-pool arena per worker thread, reused across every
        // point the worker runs (pools are re-shaped, not re-allocated;
        // results are byte-identical with or without it).
        static thread_local sim::SimWorkspace workspace;
        Task& task = tasks[index];
        sim::SimConfig config = grid.base;
        config.injection_rate = task.point.rate;
        config.mode = task.point.mode;
        config.lanes = task.point.lanes;
        config.burst = task.point.burst;
        config.credits = task.point.credits;
        config.path_policy = task.point.path_policy;
        config.workload = task.point.workload;
        config.seed = task.point.seed;
        const fault::FaultMask& mask =
            faults[task.engine_index][task.fault_index].mask;
        task.point.result = engines[task.engine_index]->run(
            task.point.pattern, config, &mask, &workspace);
        sweep.points[index] = std::move(task.point);
      },
      threads);
  return sweep;
}

}  // namespace mineq::exp
