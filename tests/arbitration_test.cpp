/// \file arbitration_test.cpp
/// \brief The one-pass arbitration primitive: scan_round_robin over a
/// word-packed request set must offer candidates in exactly the order the
/// probe loop `for probe: c = arbiter.candidate(probe)` did, and grant
/// what that loop granted, for every ring size up to the multi-word
/// range and every pointer position — with plain and quantum-weighted
/// round-robin pointers alike.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fabric.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace mineq::sim {
namespace {

/// A random subset of [0, size) as packed words plus a membership table.
struct CandidateSet {
  std::vector<std::uint64_t> words;
  std::vector<bool> member;

  CandidateSet(unsigned size, util::SplitMix64& rng, unsigned density)
      : words((size + 63) / 64, 0), member(size, false) {
    for (unsigned c = 0; c < size; ++c) {
      // density in 0..4: 0 = empty, 4 = full, else ~density/4 members.
      if (density == 4 || (density > 0 && rng.next() % 4 < density)) {
        member[c] = true;
        words[c / 64] |= std::uint64_t{1} << (c % 64);
      }
    }
  }
};

/// A RoundRobin of \p size candidates whose pointer sits at \p start.
RoundRobin arbiter_at(unsigned size, unsigned start) {
  RoundRobin rr(size);
  rr.grant(start == 0 ? size - 1 : start - 1);
  return rr;
}

TEST(ScanRoundRobinTest, VisitsMembersInProbeOrderForEverySizeAndPointer) {
  MINEQ_SEEDED_RNG(rng, 1);
  for (unsigned size = 1; size <= 130; ++size) {
    for (unsigned start = 0; start < size; ++start) {
      const RoundRobin rr = arbiter_at(size, start);
      ASSERT_EQ(rr.next(), start);
      for (unsigned density = 0; density <= 4; ++density) {
        const CandidateSet set(size, rng, density);
        std::vector<unsigned> want;
        for (unsigned probe = 0; probe < size; ++probe) {
          const unsigned c = rr.candidate(probe);
          if (set.member[c]) want.push_back(c);
        }
        std::vector<unsigned> got;
        const unsigned stopped = scan_round_robin(
            set.words.data(), set.words.size(), rr.next(), [&](unsigned c) {
              got.push_back(c);
              return false;
            });
        EXPECT_EQ(stopped, kNoCandidate);
        ASSERT_EQ(got, want) << "size " << size << " start " << start
                             << " density " << density;
      }
    }
  }
}

TEST(ScanRoundRobinTest, RefusedCandidatesFallThroughLikeTheProbeLoop) {
  MINEQ_SEEDED_RNG(rng, 2);
  for (unsigned size = 1; size <= 130; ++size) {
    for (unsigned start = 0; start < size; ++start) {
      const RoundRobin rr = arbiter_at(size, start);
      const CandidateSet set(size, rng, 1 + start % 4);
      const CandidateSet refused(size, rng, 2);
      unsigned want = kNoCandidate;
      for (unsigned probe = 0; probe < size; ++probe) {
        const unsigned c = rr.candidate(probe);
        if (!set.member[c]) continue;
        if (refused.member[c]) continue;
        want = c;
        break;
      }
      const unsigned got = scan_round_robin(
          set.words.data(), set.words.size(), rr.next(),
          [&](unsigned c) { return !refused.member[c]; });
      ASSERT_EQ(got, want) << "size " << size << " start " << start;
    }
  }
}

TEST(ScanRoundRobinTest, WeightedQuantaGrantLikeTheProbeLoop) {
  // Two copies of the same weighted arbiters, one driven by the probe
  // loop and one by the scan, see identical request rounds; every grant
  // and every pointer must agree, quanta included.
  MINEQ_SEEDED_RNG(rng, 3);
  for (const unsigned size : {1U, 2U, 3U, 7U, 64U, 65U, 128U, 130U}) {
    constexpr std::size_t kArbiters = 3;
    WeightedRoundRobin probed;
    WeightedRoundRobin scanned;
    probed.reset(kArbiters, size);
    scanned.reset(kArbiters, size);
    std::vector<unsigned> weight(size);
    for (unsigned& w : weight) w = 1 + static_cast<unsigned>(rng.next() % 4);
    for (int round = 0; round < 400; ++round) {
      const std::size_t a = rng.next() % kArbiters;
      const CandidateSet set(size, rng, 1 + round % 4);
      const CandidateSet refused(size, rng, round % 3);
      unsigned want = kNoCandidate;
      for (unsigned probe = 0; probe < size; ++probe) {
        const unsigned c = probed.candidate(a, probe);
        if (set.member[c] && !refused.member[c]) {
          want = c;
          break;
        }
      }
      const unsigned got = scan_round_robin(
          set.words.data(), set.words.size(), scanned.next(a),
          [&](unsigned c) { return !refused.member[c]; });
      ASSERT_EQ(got, want) << "size " << size << " round " << round;
      if (want != kNoCandidate) {
        probed.grant(a, want, weight[want]);
        scanned.grant(a, got, weight[got]);
      }
      for (std::size_t b = 0; b < kArbiters; ++b) {
        ASSERT_EQ(scanned.next(b), probed.candidate(b, 0));
      }
    }
  }
}

TEST(CellRequestsTest, ServesPortsInAscendingOrderAndCountsTheUnmoved) {
  CellRequests req;
  req.shape(4, 130);
  ASSERT_EQ(req.words(), 3U);
  for (const unsigned c : {0U, 5U, 64U, 129U}) req.set_ready(c);
  req.request(2, 5);
  req.request(0, 129);
  req.request(2, 64);
  unsigned port = 0;
  ASSERT_TRUE(req.next_port(port));
  EXPECT_EQ(port, 0U);
  req.clear_set(port);
  // A request added for a later port while serving one is still served.
  req.request(3, 0);
  req.moved(129);
  ASSERT_TRUE(req.next_port(port));
  EXPECT_EQ(port, 2U);
  std::vector<unsigned> members;
  for_each_member(req.set(port), req.words(),
                  [&](unsigned c) { members.push_back(c); });
  EXPECT_EQ(members, (std::vector<unsigned>{5, 64}));
  req.clear_set(port);
  ASSERT_TRUE(req.next_port(port));
  EXPECT_EQ(port, 3U);
  req.clear_set(port);
  EXPECT_FALSE(req.next_port(port));
  EXPECT_TRUE(req.idle());
  EXPECT_EQ(req.blocked(), 3U);
  std::vector<unsigned> blocked;
  req.for_each_blocked([&](unsigned c) { blocked.push_back(c); });
  EXPECT_EQ(blocked, (std::vector<unsigned>{0, 5, 64}));
  req.clear_ready();
  EXPECT_EQ(req.blocked(), 0U);
}

}  // namespace
}  // namespace mineq::sim
