// Unit tests for the record VOQ arena backing the slot engines: FIFO
// order, ring wraparound, segment growth (abandon-and-double), many
// queues interleaved in one pool, segments carved across many blocks,
// per-shard pools, and the timed arena's whole 32-byte records (front,
// pop_front, front_ready and for_each_entry) through wrap and growth --
// each checked against a std::deque<Entry> reference model under a
// randomized op sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/rng.hpp"
#include "sim/voq_arena.hpp"

namespace otis::sim {
namespace {

VoqEntry make_entry(std::int64_t id) {
  return VoqEntry{id, id * 7 + 2, static_cast<std::int32_t>(id * 3 + 1),
                  static_cast<std::int32_t>(id % 5)};
}

void expect_entry_eq(const VoqEntry& a, const VoqEntry& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.destination, b.destination);
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.hops, b.hops);
}

TEST(VoqArena, FifoOrderWithinOneQueue) {
  VoqArena arena;
  arena.init(1);
  for (std::int64_t i = 0; i < 5; ++i) {
    arena.push(0, make_entry(i));
  }
  EXPECT_EQ(arena.size(0), 5u);
  for (std::int64_t i = 0; i < 5; ++i) {
    expect_entry_eq(arena.front(0), make_entry(i));
    expect_entry_eq(arena.pop_front(0), make_entry(i));
  }
  EXPECT_TRUE(arena.empty(0));
}

TEST(VoqArena, RingWrapsWithoutGrowth) {
  // Cycle pushes and pops so head laps the segment many times while the
  // live size stays below kInitialCapacity: no growth, order preserved.
  VoqArena arena;
  arena.init(1);
  std::int64_t next = 0;
  std::int64_t expected = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    while (arena.size(0) < VoqArena::kInitialCapacity - 1) {
      arena.push(0, make_entry(next++));
    }
    while (arena.size(0) > 2) {
      expect_entry_eq(arena.pop_front(0), make_entry(expected++));
    }
  }
  while (!arena.empty(0)) {
    expect_entry_eq(arena.pop_front(0), make_entry(expected++));
  }
  EXPECT_EQ(expected, next);
}

TEST(VoqArena, GrowthPreservesOrderAcrossDoublings) {
  // Push far past kInitialCapacity with a wrapped head (pop a few
  // first) so every doubling has to linearize a wrapped ring into the
  // fresh segment.
  VoqArena arena;
  arena.init(1);
  for (std::int64_t i = 0; i < 6; ++i) {
    arena.push(0, make_entry(i));
  }
  for (std::int64_t i = 0; i < 4; ++i) {
    arena.pop_front(0);
  }
  for (std::int64_t i = 6; i < 200; ++i) {
    arena.push(0, make_entry(i));
  }
  EXPECT_EQ(arena.size(0), 196u);
  for (std::int64_t i = 4; i < 200; ++i) {
    expect_entry_eq(arena.pop_front(0), make_entry(i));
  }
  EXPECT_TRUE(arena.empty(0));
}

TEST(VoqArena, RandomizedParityAgainstDequeAcrossManyQueues) {
  // 32 queues interleaved in one pool, random push/pop mix: the arena
  // must agree with an independent std::deque per queue at every step.
  constexpr std::size_t kQueues = 32;
  VoqArena arena;
  arena.init(kQueues);
  std::vector<std::deque<VoqEntry>> model(kQueues);
  core::Rng rng(99);
  std::int64_t next = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::size_t q = static_cast<std::size_t>(rng.uniform(kQueues));
    if (model[q].empty() || rng.bernoulli(0.55)) {
      const VoqEntry e = make_entry(next++);
      arena.push(q, e);
      model[q].push_back(e);
    } else {
      expect_entry_eq(arena.front(q), model[q].front());
      expect_entry_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
    ASSERT_EQ(arena.size(q), model[q].size());
    ASSERT_EQ(arena.empty(q), model[q].empty());
  }
  for (std::size_t q = 0; q < kQueues; ++q) {
    while (!model[q].empty()) {
      expect_entry_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
    EXPECT_TRUE(arena.empty(q));
  }
}

TEST(VoqArena, SegmentsStayValidAcrossManyBlocks) {
  // 600 queues grown to ~128 records each carve ~150k records from one
  // pool, several times the smallest block: segments carved from early
  // blocks must keep their entries while later blocks are added.
  constexpr std::size_t kQueues = 600;
  VoqArena arena;
  arena.init(kQueues);
  std::vector<std::deque<VoqEntry>> model(kQueues);
  core::Rng rng(5);
  std::int64_t next = 0;
  for (int op = 0; op < 200000; ++op) {
    const std::size_t q = static_cast<std::size_t>(rng.uniform(kQueues));
    if (model[q].empty() || rng.bernoulli(0.6)) {
      const VoqEntry e = make_entry(next++);
      arena.push(q, e);
      model[q].push_back(e);
    } else {
      expect_entry_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
  }
  for (std::size_t q = 0; q < kQueues; ++q) {
    ASSERT_EQ(arena.size(q), model[q].size());
    while (!model[q].empty()) {
      expect_entry_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
  }
}

TEST(VoqArena, PerShardPoolsGrowIndependently) {
  // Queues assigned to different pools (the sharded engines' layout):
  // growth in one pool must not disturb entries living in another.
  constexpr std::size_t kQueues = 8;
  constexpr std::size_t kPools = 4;
  VoqArena arena;
  arena.init(kQueues, kPools);
  for (std::size_t q = 0; q < kQueues; ++q) {
    arena.set_pool(q, static_cast<std::uint32_t>(q % kPools));
  }
  std::vector<std::deque<VoqEntry>> model(kQueues);
  std::int64_t next = 0;
  // Uneven load: queue q gets 10 * (q + 1) entries, so pools double at
  // different times.
  for (std::size_t q = 0; q < kQueues; ++q) {
    for (std::size_t i = 0; i < 10 * (q + 1); ++i) {
      const VoqEntry e = make_entry(next++);
      arena.push(q, e);
      model[q].push_back(e);
    }
  }
  for (std::size_t q = 0; q < kQueues; ++q) {
    while (!model[q].empty()) {
      expect_entry_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
    EXPECT_TRUE(arena.empty(q));
  }
}

TEST(VoqArena, InitResetsState) {
  VoqArena arena;
  arena.init(2);
  arena.push(0, make_entry(1));
  arena.push(1, make_entry(2));
  arena.init(3);
  EXPECT_EQ(arena.queue_count(), 3u);
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_TRUE(arena.empty(q));
  }
}

TEST(TimedVoqArena, FrontReadyMatchesFrontThroughWrapAndGrowth) {
  TimedVoqArena arena;
  arena.init(2);
  std::deque<TimedVoqEntry> model;
  core::Rng rng(5);
  std::int64_t next = 0;
  for (int op = 0; op < 5000; ++op) {
    if (model.empty() || rng.bernoulli(0.6)) {
      TimedVoqEntry e;
      e.id = next;
      e.destination = next * 2;
      e.created = next * 3;
      e.hops = static_cast<std::int32_t>(next % 4);
      e.ready = next * 11 + 7;
      ++next;
      arena.push(1, e);
      model.push_back(e);
    } else {
      ASSERT_EQ(arena.front_ready(1), model.front().ready);
      const TimedVoqEntry got = arena.pop_front(1);
      EXPECT_EQ(got.id, model.front().id);
      EXPECT_EQ(got.destination, model.front().destination);
      EXPECT_EQ(got.created, model.front().created);
      EXPECT_EQ(got.hops, model.front().hops);
      EXPECT_EQ(got.ready, model.front().ready);
      model.pop_front();
    }
    ASSERT_EQ(arena.size(1), model.size());
  }
}

void expect_timed_eq(const TimedVoqEntry& a, const TimedVoqEntry& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.destination, b.destination);
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.ready, b.ready);
}

TEST(TimedVoqArena, WholeRecordsSurviveWrapAndGrowthAcrossPools) {
  // Twelve queues over three pools; pushes outnumber pops, so every
  // queue wraps at each capacity and grows through several doublings
  // while its neighbours grow the same pool. Every field of every
  // record is compared, at the head and across the whole queue.
  constexpr std::size_t kQueues = 12;
  constexpr std::size_t kPools = 3;
  TimedVoqArena arena;
  arena.init(kQueues, kPools);
  for (std::size_t q = 0; q < kQueues; ++q) {
    arena.set_pool(q, static_cast<std::uint32_t>(q % kPools));
  }
  std::vector<std::deque<TimedVoqEntry>> model(kQueues);
  core::Rng rng(23);
  std::int64_t next = 0;
  std::size_t peak = 0;
  for (int op = 0; op < 30000; ++op) {
    const std::size_t q = static_cast<std::size_t>(rng.uniform(kQueues));
    if (model[q].empty() || rng.bernoulli(0.55)) {
      TimedVoqEntry e;
      e.id = next;
      e.destination = -next - 1;
      e.created = next * 5 + 3;
      e.hops = static_cast<std::int32_t>(next % 9) - 4;
      e.ready = next * 13 + 1;
      ++next;
      arena.push(q, e);
      model[q].push_back(e);
    } else {
      ASSERT_EQ(arena.front_ready(q), model[q].front().ready);
      expect_timed_eq(arena.front(q), model[q].front());
      expect_timed_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
    ASSERT_EQ(arena.size(q), model[q].size());
    peak = std::max(peak, model[q].size());
    if (op % 997 == 0) {
      std::size_t i = 0;
      arena.for_each_entry(q, [&](const TimedVoqEntry& e) {
        ASSERT_LT(i, model[q].size());
        expect_timed_eq(e, model[q][i++]);
      });
      EXPECT_EQ(i, model[q].size());
    }
  }
  // Several doublings past the initial segment.
  EXPECT_GT(peak,
            8 * static_cast<std::size_t>(TimedVoqArena::kInitialCapacity));
  for (std::size_t q = 0; q < kQueues; ++q) {
    while (!model[q].empty()) {
      expect_timed_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
    EXPECT_TRUE(arena.empty(q));
  }
}

}  // namespace
}  // namespace otis::sim
