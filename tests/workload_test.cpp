/// \file workload_test.cpp
/// \brief The workload seam: kind registry, trace format round trips and
/// validation, closed-loop self-throttling, record→replay exactness,
/// workload-axis RNG-stream independence and thread-count determinism
/// (sweep fan-out AND per-point sharding, including a closed-loop point).

#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "fault/fault_model.hpp"
#include "min/networks.hpp"
#include "obs/flow.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "workload/spec.hpp"

namespace mineq::workload {
namespace {

// --- Registry / spec validation --------------------------------------------

TEST(WorkloadTest, KindRegistryRoundTripsEveryToken) {
  EXPECT_EQ(all_kinds().size(), 3U);
  for (const Kind kind : all_kinds()) {
    EXPECT_EQ(parse_kind(kind_name(kind)), kind) << kind_name(kind);
  }
  EXPECT_EQ(kind_name(Kind::kOpen), "open");
  EXPECT_EQ(kind_name(Kind::kClosedLoop), "closedloop");
  EXPECT_EQ(kind_name(Kind::kTrace), "trace");
  // The rejection enumerates the registry, so the CLI docs (which derive
  // their token list from the same registry) can never drift from it.
  try {
    (void)parse_kind("bogus");
    FAIL() << "unknown workload token must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "parse_kind: unknown workload \"bogus\" (valid: open, "
                 "closedloop, trace)");
  }
}

TEST(WorkloadTest, SpecValidationNamesTheField) {
  Spec spec;
  spec.rr_window = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = Spec{};
  spec.time_compression = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = Spec{};
  spec.kind = Kind::kTrace;  // no trace loaded
  try {
    spec.validate();
    FAIL() << "trace replay without a trace must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "workload: trace replay needs a loaded trace "
                 "(SimConfig::workload.trace is null)");
  }
}

// --- Trace format -----------------------------------------------------------

TEST(WorkloadTest, ParseTraceReadsTheDocumentedFormat) {
  const TraceData data = parse_trace(
      "# comment\n"
      "\n"
      "0 1 2 4\n"
      "0 3 3 4 1\n"
      "  17 0 7 4 2   # trailing comment\r\n"
      "17 2 5 4");  // no trailing newline
  ASSERT_EQ(data.records.size(), 4U);
  EXPECT_EQ(data.records[0], (TraceRecord{0, 1, 2, 4, kTagNone}));
  EXPECT_EQ(data.records[1], (TraceRecord{0, 3, 3, 4, kTagRequest}));
  EXPECT_EQ(data.records[2], (TraceRecord{17, 0, 7, 4, kTagReply}));
  EXPECT_EQ(data.records[3], (TraceRecord{17, 2, 5, 4, kTagNone}));
  // Provenance: parse fills 1-based source lines.
  EXPECT_EQ(data.records[0].line, 3U);
  EXPECT_EQ(data.records[2].line, 5U);
}

TEST(WorkloadTest, ParseTraceErrorsNameTheOffendingLine) {
  const auto expect_throw = [](std::string_view text,
                               const std::string& message) {
    try {
      (void)parse_trace(text);
      FAIL() << "expected rejection: " << message;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(error.what(), message);
    }
  };
  expect_throw("0 1 2 x",
               "workload trace line 1: size \"x\" is not an unsigned integer");
  expect_throw("# header\n5 3\n",
               "workload trace line 2: expected `cycle src dst size [tag]`, "
               "got \"5 3\"");
  expect_throw("0 1 2 4 7\n",
               "workload trace line 1: tag 7 is not 0 (none), 1 (request) or "
               "2 (reply)");
  expect_throw("0 1 2 4 1 9\n",
               "workload trace line 1: trailing field \"9\"");
  expect_throw("9 1 2 4\n3 1 2 4\n",
               "workload trace line 2: cycle 3 runs backwards (previous "
               "record was at cycle 9)");
  expect_throw("0 1 2 0\n", "workload trace line 1: size must be positive");
}

TEST(WorkloadTest, WriteTraceParsesBackIdentically) {
  const std::vector<TraceRecord> records = {
      {0, 1, 2, 4, kTagNone},
      {3, 0, 7, 4, kTagRequest},
      {3, 7, 0, 4, kTagReply},
      {250, 5, 5, 4, kTagNone},
  };
  EXPECT_EQ(parse_trace(write_trace(records)).records, records);
}

// --- Simulation-level behavior ---------------------------------------------

sim::SimConfig base_config() {
  sim::SimConfig config;
  config.injection_rate = 0.9;
  config.packet_length = 1;
  config.warmup_cycles = 100;
  config.measure_cycles = 1000;
  config.seed = 11;
  return config;
}

TEST(WorkloadTest, ClosedLoopSelfThrottlesWhereOpenLoopDoesNot) {
  // The acceptance-criteria row pair: at a saturating configured rate the
  // open-loop source keeps presenting it (flat acceptance, no window
  // stalls) while the closed-loop client's bounded window suppresses
  // attempts — offered_rate_effective collapses below the configured
  // rate and window_stall_cycles goes positive.
  exp::SweepGrid grid;
  grid.networks = {min::NetworkKind::kOmega};
  grid.patterns = {sim::Pattern::kUniform};
  grid.modes = {sim::SwitchingMode::kStoreAndForward};
  grid.lane_counts = {1};
  grid.rates = {0.9};
  grid.stages = 3;
  grid.base = base_config();
  Spec closed;
  closed.kind = Kind::kClosedLoop;
  closed.rr_window = 1;
  grid.workloads = {Spec{}, closed};
  const exp::SweepResult sweep = exp::run_sweep(grid, 1);
  ASSERT_EQ(sweep.points.size(), 2U);
  const sim::SimResult& open = sweep.points[0].result;
  const sim::SimResult& rr = sweep.points[1].result;
  ASSERT_EQ(sweep.points[0].workload.kind, Kind::kOpen);
  ASSERT_EQ(sweep.points[1].workload.kind, Kind::kClosedLoop);
  // Open loop: the Bernoulli gate keeps presenting the configured rate
  // regardless of congestion — "flat" offered load — and never stalls on
  // a window.
  EXPECT_NEAR(open.offered_rate_effective, 0.9, 0.05);
  EXPECT_EQ(open.window_stall_cycles, 0U);
  EXPECT_EQ(open.reply_latency.count(), 0U);
  // Closed loop: self-throttled below the configured rate (even counting
  // the replies the servers add), with the stall counter saying why, and
  // a populated reply-latency tail.
  EXPECT_LT(rr.offered_rate_effective, 0.8 * 0.9);
  EXPECT_LT(rr.offered_rate_effective, open.offered_rate_effective - 0.1);
  EXPECT_GT(rr.window_stall_cycles, 0U);
  EXPECT_GT(rr.reply_latency.count(), 0U);
  EXPECT_GT(rr.reply_latency_histogram.quantile(0.99), 0.0);
  EXPECT_EQ(rr.reply_orphans, 0U);  // no faults, nothing lost
  // And the fabric-side acceptance tells the honest story: the open row
  // overdrives the first stage, the self-throttled row does not.
  EXPECT_GT(rr.acceptance, open.acceptance);
}

TEST(WorkloadTest, RecordReplayReproducesCountersExactly) {
  // The tentpole's round-trip guarantee: replaying a recorded run through
  // TraceSource lands every packet on the same cycle with the same
  // destination, so the delivered/latency counters match exactly.
  for (const sim::SwitchingMode mode :
       {sim::SwitchingMode::kStoreAndForward, sim::SwitchingMode::kWormhole}) {
    const sim::Engine engine(min::build_network(min::NetworkKind::kOmega, 3));
    sim::SimConfig config = base_config();
    config.mode = mode;
    config.packet_length = 3;
    config.injection_rate = 0.6;
    config.workload.record = true;
    const sim::SimResult recorded =
        engine.run(sim::Pattern::kUniform, config);
    ASSERT_FALSE(recorded.workload_trace.empty());

    sim::SimConfig replay_config = config;
    replay_config.workload = Spec{};
    replay_config.workload.kind = Kind::kTrace;
    replay_config.workload.trace = std::make_shared<const TraceData>(
        TraceData{recorded.workload_trace});
    const sim::SimResult replayed =
        engine.run(sim::Pattern::kUniform, replay_config);
    // `offered` is NOT compared: the open-loop run counts refused gate
    // draws that never became trace records; the replay only ever offers
    // what was accepted. Everything downstream of acceptance is exact.
    EXPECT_EQ(replayed.injected, recorded.injected);
    EXPECT_EQ(replayed.delivered, recorded.delivered);
    EXPECT_EQ(replayed.flits_injected, recorded.flits_injected);
    EXPECT_EQ(replayed.flits_delivered, recorded.flits_delivered);
    EXPECT_EQ(replayed.flits_in_flight, recorded.flits_in_flight);
    EXPECT_EQ(replayed.latency.mean(), recorded.latency.mean());
    EXPECT_EQ(replayed.latency.max(), recorded.latency.max());
    EXPECT_EQ(replayed.latency_histogram.quantile(0.5),
              recorded.latency_histogram.quantile(0.5));
    EXPECT_EQ(replayed.latency_histogram.quantile(0.99),
              recorded.latency_histogram.quantile(0.99));
    EXPECT_EQ(replayed.hol_blocking_cycles, recorded.hol_blocking_cycles);
    // And the text form round-trips through the serializer too.
    EXPECT_EQ(parse_trace(write_trace(recorded.workload_trace)).records,
              recorded.workload_trace);
  }
}

TEST(WorkloadTest, TraceTimeCompressionDividesDueCycles) {
  const sim::Engine engine(min::build_network(min::NetworkKind::kOmega, 3));
  sim::SimConfig config = base_config();
  config.warmup_cycles = 0;
  config.measure_cycles = 400;
  // Two packets per terminal pair, 300 cycles apart: uncompressed, the
  // second lands late in the run; compressed 4x it replays at cycle 75.
  auto trace = std::make_shared<TraceData>();
  for (std::uint32_t t = 0; t < 8; ++t) {
    trace->records.push_back({0, t, (t + 3U) % 8U, 1, kTagNone});
  }
  for (std::uint32_t t = 0; t < 8; ++t) {
    trace->records.push_back({300, t, (t + 5U) % 8U, 1, kTagNone});
  }
  config.workload.kind = Kind::kTrace;
  config.workload.trace = trace;
  const sim::SimResult plain = engine.run(sim::Pattern::kUniform, config);
  config.workload.time_compression = 4;
  const sim::SimResult fast = engine.run(sim::Pattern::kUniform, config);
  EXPECT_EQ(plain.delivered, 16U);
  EXPECT_EQ(fast.delivered, 16U);
}

TEST(WorkloadTest, TraceSourceValidationNamesLineAndConstraint) {
  const sim::Engine engine(min::build_network(min::NetworkKind::kOmega, 3));
  sim::SimConfig config = base_config();
  config.workload.kind = Kind::kTrace;
  {
    // Terminal 99 does not exist in an 8-terminal fabric.
    auto trace = std::make_shared<TraceData>(
        parse_trace("0 0 1 1\n2 99 1 1\n"));
    config.workload.trace = trace;
    try {
      (void)engine.run(sim::Pattern::kUniform, config);
      FAIL() << "out-of-range terminal must be rejected";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(),
                   "TraceSource: line 2: terminal 99 out of range (fabric "
                   "has 8 terminals)");
    }
  }
  {
    // Record size must match the run's packet length.
    auto trace = std::make_shared<TraceData>(parse_trace("0 0 1 4\n"));
    config.workload.trace = trace;
    try {
      (void)engine.run(sim::Pattern::kUniform, config);
      FAIL() << "size/packet_length mismatch must be rejected";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(),
                   "TraceSource: line 1: size 4 != the run's packet_length 1 "
                   "(the disciplines serialize one fixed length per run)");
    }
  }
}

// --- RNG-stream independence + determinism contracts ------------------------

exp::SweepGrid axis_grid() {
  exp::SweepGrid grid;
  grid.networks = {min::NetworkKind::kOmega, min::NetworkKind::kBaseline};
  grid.patterns = {sim::Pattern::kUniform, sim::Pattern::kBursty};
  grid.modes = {sim::SwitchingMode::kStoreAndForward,
                sim::SwitchingMode::kWormhole};
  grid.lane_counts = {2};
  grid.rates = {0.4, 0.8};
  grid.stages = 4;
  grid.base.packet_length = 2;
  grid.base.warmup_cycles = 50;
  grid.base.measure_cycles = 300;
  grid.base.seed = 5;
  return grid;
}

TEST(WorkloadTest, AppendingWorkloadAxisLeavesExistingPointsByteIdentical) {
  // RNG-stream independence across sources: the workload axis is the
  // outermost enumeration level, so appending a value must not perturb
  // the task indices, derived seeds, or a single output byte of the
  // points that already existed (PR 2's sweep contract, extended).
  const exp::SweepGrid before = axis_grid();
  const std::string csv_before = exp::sweep_csv(exp::run_sweep(before, 2));
  exp::SweepGrid after = axis_grid();
  Spec closed;
  closed.kind = Kind::kClosedLoop;
  closed.rr_window = 4;
  after.workloads.push_back(closed);
  EXPECT_EQ(after.size(), 2 * before.size());
  const exp::SweepResult both = exp::run_sweep(after, 2);
  const std::string csv_after = exp::sweep_csv(both);
  // The with-axis CSV starts with the without-axis CSV, byte for byte.
  ASSERT_GE(csv_after.size(), csv_before.size());
  EXPECT_EQ(csv_after.substr(0, csv_before.size()), csv_before);
  // And the appended block really ran the closed-loop source.
  for (std::size_t i = before.size(); i < both.points.size(); ++i) {
    EXPECT_EQ(both.points[i].workload.kind, Kind::kClosedLoop);
  }
}

TEST(WorkloadTest, SweepByteIdenticalAcrossThreadCountsWithClosedLoop) {
  exp::SweepGrid grid = axis_grid();
  Spec closed;
  closed.kind = Kind::kClosedLoop;
  closed.rr_window = 3;
  grid.workloads = {Spec{}, closed};
  const std::string serial = exp::sweep_csv(exp::run_sweep(grid, 1));
  EXPECT_EQ(serial, exp::sweep_csv(exp::run_sweep(grid, 2)));
  EXPECT_EQ(serial, exp::sweep_csv(exp::run_sweep(grid, 5)));
}

TEST(WorkloadTest, ShardedClosedLoopByteIdenticalAtAnyThreadCount) {
  // Megafabric contract, now through the workload seam: the delivery
  // feed is buffered per worker and replayed in ascending-worker (= cell,
  // = serial) order before the worker-0 workload tick, so a closed-loop
  // run shards byte-identically. Trace replay and recording likewise.
  exp::SweepGrid grid;
  grid.networks = {min::NetworkKind::kOmega};
  grid.patterns = {sim::Pattern::kUniform};
  grid.modes = {sim::SwitchingMode::kStoreAndForward,
                sim::SwitchingMode::kWormhole};
  grid.lane_counts = {2};
  grid.rates = {0.8};
  grid.stages = 4;
  grid.base.packet_length = 2;
  grid.base.warmup_cycles = 50;
  grid.base.measure_cycles = 300;
  grid.base.seed = 5;
  Spec closed;
  closed.kind = Kind::kClosedLoop;
  closed.rr_window = 2;
  closed.record = true;
  grid.workloads = {closed};
  const auto run_at = [&grid](std::size_t sim_threads) {
    exp::SweepGrid g = grid;
    g.base.sim_threads = sim_threads;
    return exp::run_sweep(g, 1);
  };
  const exp::SweepResult serial = run_at(1);
  const exp::SweepResult two = run_at(2);
  const exp::SweepResult five = run_at(5);
  EXPECT_EQ(exp::sweep_csv(serial), exp::sweep_csv(two));
  EXPECT_EQ(exp::sweep_csv(serial), exp::sweep_csv(five));
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    // The recorded traces — every accepted injection, warmup included —
    // must agree record for record too.
    EXPECT_EQ(serial.points[i].result.workload_trace,
              two.points[i].result.workload_trace);
    EXPECT_EQ(serial.points[i].result.workload_trace,
              five.points[i].result.workload_trace);
    EXPECT_FALSE(serial.points[i].result.workload_trace.empty());
  }
}

TEST(WorkloadTest, ClosedLoopFeedsServiceLatencyIntoFlowRecorder) {
  // The obs wiring: with flow stats on, each completed request→reply
  // exchange lands in the recorder's service channel, so the flow
  // summary reports request→reply service time next to hop latency.
  const sim::Engine engine(min::build_network(min::NetworkKind::kOmega, 3));
  sim::SimConfig config = base_config();
  config.workload.kind = Kind::kClosedLoop;
  config.workload.rr_window = 4;
  config.obs.flow_stats = true;
  const sim::SimResult result = engine.run(sim::Pattern::kUniform, config);
  EXPECT_GT(result.reply_latency.count(), 0U);
  ASSERT_FALSE(result.flows.services.empty());
  EXPECT_GT(result.flows.worst_service_p99, 0.0);
  // Service latency (round trip) dominates one-way hop latency.
  EXPECT_GT(result.flows.worst_service_p99, result.flows.worst_p99);
  // The summary CSV carries the service rows under the same 8-column
  // header.
  EXPECT_NE(result.flows.csv().find("\nservice,"), std::string::npos);
}

/// FNV-1a over a rendered table: pins a long CSV without a page of
/// literal text.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

TEST(WorkloadTest, FaultedClosedLoopServiceTableIsPinned) {
  // Reply pairing and the flow recorder under the conditions that stress
  // them: link faults misdeliver requests and replies (the orphan paths),
  // and two wormhole lanes let replies of one (server, client) pair be in
  // flight together. A latency range shorter than the tail pushes samples
  // into the overflow sentinel. The numbers are this run's history.
  const sim::Engine engine(min::build_network(min::NetworkKind::kOmega, 4));
  const fault::FaultMask mask = fault::build_fault_mask(
      engine.wiring(),
      fault::FaultSpec{fault::FaultKind::kRandomLinks, 0.1, 3});
  sim::SimConfig config = base_config();
  config.mode = sim::SwitchingMode::kWormhole;
  config.lanes = 2;
  config.packet_length = 2;
  config.injection_rate = 0.5;
  config.latency_histogram_buckets = 40;
  config.workload.kind = Kind::kClosedLoop;
  config.workload.rr_window = 4;
  config.workload.record = true;
  config.obs.flow_stats = true;
  config.obs.trace_sample = 1;
  const sim::SimResult result =
      engine.run(sim::Pattern::kUniform, config, &mask);

  // Two replies of one pair in flight at once: join the recorded reply
  // injections with the traced packet ends.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> end_of;
  for (const obs::TraceEvent& event : result.trace) {
    if (event.kind == obs::TraceEventKind::kPacketEnd) {
      end_of[{event.src, event.inject_cycle}] = event.cycle;
    }
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> last_end;
  bool overlapping_pair = false;
  for (const TraceRecord& record : result.workload_trace) {
    if (record.tag != kTagReply) continue;
    const auto end = end_of.find({record.src, record.cycle});
    if (end == end_of.end()) continue;
    auto& previous = last_end[{record.src, record.dst}];
    if (record.cycle < previous) overlapping_pair = true;
    previous = std::max(previous, end->second);
  }
  EXPECT_TRUE(overlapping_pair);

  EXPECT_EQ(result.reply_orphans, 652U);
  EXPECT_EQ(result.packets_misdelivered, 590U);
  EXPECT_EQ(result.reply_latency.count(), 1653U);
  EXPECT_EQ(result.reply_latency.mean(), 21.666666666666647);
  EXPECT_EQ(result.reply_latency.max(), 70.0);
  EXPECT_EQ(result.reply_latency_histogram.quantile(0.5), 21.0);
  EXPECT_EQ(result.reply_latency_histogram.quantile(0.99), 41.0);  // overflow
  EXPECT_EQ(result.reply_latency_histogram.quantile(0.999), 41.0);
  EXPECT_EQ(result.flows.flows.size(), 256U);
  EXPECT_EQ(result.flows.services.size(), 180U);
  EXPECT_EQ(result.flows.worst_p99, 41.0);
  EXPECT_EQ(result.flows.worst_src, 10U);
  EXPECT_EQ(result.flows.worst_dst, 14U);
  EXPECT_EQ(result.flows.worst_service_p99, 41.0);
  const std::string csv = result.flows.csv();
  EXPECT_EQ(csv.size(), 16277U);
  EXPECT_EQ(fnv1a(csv), 0x4EB066688134D2B2ULL);
}

TEST(WorkloadTest, SweepCsvCarriesWorkloadColumns) {
  exp::SweepGrid grid;
  grid.networks = {min::NetworkKind::kOmega};
  grid.patterns = {sim::Pattern::kUniform};
  grid.modes = {sim::SwitchingMode::kStoreAndForward};
  grid.lane_counts = {1};
  grid.rates = {0.5};
  grid.stages = 3;
  grid.base.warmup_cycles = 50;
  grid.base.measure_cycles = 200;
  const std::string csv = exp::sweep_csv(exp::run_sweep(grid, 1));
  const std::string header = csv.substr(0, csv.find('\n'));
  // The workload block rides at the end of the header, after the
  // observability columns, so every pre-existing column keeps its index.
  EXPECT_NE(header.find(
                ",workload,rr_window,offered_rate_effective,"
                "reply_latency_p99,window_stall_cycles"),
            std::string::npos);
  EXPECT_NE(csv.find(",open,"), std::string::npos);
}

}  // namespace
}  // namespace mineq::workload
