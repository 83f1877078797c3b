#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>

#include "min/baseline.hpp"
#include "min/networks.hpp"
#include "min/pipid.hpp"
#include "perm/standard.hpp"

namespace mineq::sim {
namespace {

SimConfig quick_config() {
  SimConfig config;
  config.warmup_cycles = 100;
  config.measure_cycles = 1000;
  config.injection_rate = 0.3;
  config.seed = 42;
  return config;
}

TEST(EngineTest, ConstructionDerivesSchedule) {
  EXPECT_NO_THROW(Engine(min::baseline_network(4)));
}

TEST(EngineTest, ConstructionRejectsNonRoutableNetwork) {
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  EXPECT_THROW((void)Engine(min::network_from_pipids(seq)), std::invalid_argument);
}

TEST(EngineTest, ConstructionRejectsWrongSchedule) {
  const min::MIDigraph g = min::baseline_network(3);
  min::DigitSchedule wrong;
  wrong.digit = {0, 0};  // correct schedule is MSB-first
  wrong.port_of_value = {{0, 1}, {0, 1}};
  EXPECT_THROW((void)Engine(g, wrong), std::invalid_argument);
}

TEST(EngineTest, DeterministicGivenSeed) {
  const Engine engine(min::baseline_network(4));
  const SimResult a = engine.run(Pattern::kUniform, quick_config());
  const SimResult b = engine.run(Pattern::kUniform, quick_config());
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
}

TEST(EngineTest, LowLoadDeliversNearlyEverything) {
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 0.05;
  const SimResult result = engine.run(Pattern::kUniform, config);
  EXPECT_GT(result.delivered, 0U);
  // At 5% load nothing should be refused at injection.
  EXPECT_DOUBLE_EQ(result.acceptance, 1.0);
  // Delivered within a small slack of injected (packets in flight at the
  // end of the run, plus warmup boundary effects).
  EXPECT_GE(result.delivered + 200, result.injected);
}

TEST(EngineTest, LatencyAtLeastStageCount) {
  // A packet needs >= stages cycles (one hop per cycle, plus ejection).
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 0.02;
  const SimResult result = engine.run(Pattern::kUniform, config);
  ASSERT_GT(result.latency.count(), 0U);
  EXPECT_GE(result.latency.min(), 4.0);
}

TEST(EngineTest, ThroughputBounded) {
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 1.0;
  const SimResult result = engine.run(Pattern::kUniform, config);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_LE(result.throughput, 1.0);
  // Uniform traffic at full load saturates below 100% on a Banyan MIN.
  EXPECT_LT(result.throughput, 0.95);
}

TEST(EngineTest, PermutationTrafficAtFullLoadFlows) {
  // Complement traffic is a fixed permutation: once the pipeline fills,
  // packets stream without head-of-line blocking variation per cycle...
  // conflicts depend on the topology; just require substantial throughput.
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 1.0;
  const SimResult result = engine.run(Pattern::kComplement, config);
  EXPECT_GT(result.throughput, 0.2);
}

TEST(EngineTest, LatencyHistogramConsistentWithStats) {
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 0.4;
  const SimResult result = engine.run(Pattern::kUniform, config);
  EXPECT_EQ(result.latency_histogram.total(), result.latency.count());
  // p99 upper-bounds the mean and lower-bounds the max bucket edge.
  const double p99 = result.latency_histogram.quantile(0.99);
  EXPECT_GE(p99, result.latency.mean());
  EXPECT_GE(result.latency.max() + 1.0, p99);
}

TEST(EngineTest, InvalidRateRejected) {
  const Engine engine(min::baseline_network(3));
  SimConfig config = quick_config();
  config.injection_rate = 1.5;
  EXPECT_THROW((void)engine.run(Pattern::kUniform, config), std::invalid_argument);
}

TEST(EngineTest, IsomorphicNetworksSimilarUniformThroughput) {
  // The six classical networks are isomorphic; under uniform traffic
  // their saturated throughputs should be close (not identical: the
  // label-dependent traffic interacts with different wirings).
  SimConfig config = quick_config();
  config.injection_rate = 1.0;
  double lo = 1.0;
  double hi = 0.0;
  for (min::NetworkKind kind : min::all_network_kinds()) {
    const Engine engine(min::build_network(kind, 4));
    const double throughput =
        engine.run(Pattern::kUniform, config).throughput;
    lo = std::min(lo, throughput);
    hi = std::max(hi, throughput);
  }
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi - lo, 0.25);
}

/// The buffer geometry is bounded by name before any pool exists: a
/// typo'd lane count or depth must not reach the allocator as stages *
/// ports * lanes * depth slots. Checked through validate() alone, so no
/// test allocates the oversized pool.
TEST(SimConfigTest, ValidateBoundsBufferGeometry) {
  const auto message = [](const SimConfig& config) -> std::string {
    try {
      config.validate();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };
  SimConfig config;
  config.lanes = SimConfig::kMaxLanes;
  config.lane_depth = SimConfig::kMaxLaneDepth;
  config.queue_capacity = SimConfig::kMaxQueueCapacity;
  EXPECT_NO_THROW(config.validate());

  const struct {
    std::size_t SimConfig::*field;
    const char* name;
    std::size_t max;
  } bounded[] = {{&SimConfig::lanes, "lanes", SimConfig::kMaxLanes},
                 {&SimConfig::lane_depth, "lane_depth",
                  SimConfig::kMaxLaneDepth},
                 {&SimConfig::queue_capacity, "queue_capacity",
                  SimConfig::kMaxQueueCapacity}};
  for (const auto& b : bounded) {
    SCOPED_TRACE(b.name);
    for (const std::size_t value :
         {b.max + 1, std::size_t{100000}, std::size_t{1} << 40}) {
      SimConfig bad;
      bad.*b.field = value;
      const std::string what = message(bad);
      EXPECT_NE(what.find(std::string(b.name) + " must be <= " +
                          std::to_string(b.max)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(std::to_string(value)), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace mineq::sim
