// Async timing layer tests:
//  - the calendar queue orders events exactly like the priority-queue
//    EventQueue (time order, FIFO tie-break, past-scheduling rejection),
//    including same-tick floods, interleaved keyed producers, a flood
//    day that never drains, the for_each checkpoint round trip and
//    cached-minimum invalidation;
//  - TimingConfig/TimingModel compile the skew profiles correctly
//    (constant, per-level, trace-derived);
//  - THE parity suite: the AsyncEngine with a slot-aligned (all-zero)
//    timing model is bit-identical to the phased engine on SK, SII and
//    POPS, with dense AND compressed route tables, for every arbitration
//    policy, including drain, finite queues, WDM and coupler successes;
//  - skewed runs behave physically: tuning delay raises latency,
//    propagation skew defers deliveries, guard bands cost a slot, and
//    skewed runs stay deterministic in the seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "designs/builders.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/timing_model.hpp"
#include "sim/traffic.hpp"

namespace otis::sim {
namespace {

void expect_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.coupler_transmissions, b.coupler_transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.percentile(0.5), b.latency.percentile(0.5));
  EXPECT_EQ(a.latency.percentile(0.95), b.latency.percentile(0.95));
}

constexpr Arbitration kAllPolicies[] = {Arbitration::kTokenRoundRobin,
                                        Arbitration::kRandomWinner,
                                        Arbitration::kSlottedAloha};

// ------------------------------------------------------- calendar queue

TEST(CalendarQueueTest, PopsInTimeOrderAcrossBucketsAndYears) {
  CalendarQueue<int> q(/*bucket_width=*/4, /*initial_buckets=*/4);
  // Times spanning several calendar years (bucket wrap-arounds).
  const std::vector<SimTime> times = {37, 2, 18, 5, 90, 2, 41, 0, 17};
  for (std::size_t i = 0; i < times.size(); ++i) {
    q.push(times[i], static_cast<int>(i));
  }
  EXPECT_EQ(q.pending(), times.size());
  SimTime last = -1;
  std::uint64_t last_seq = 0;
  bool first = true;
  while (!q.empty()) {
    const auto entry = q.pop();
    if (!first && entry.time == last) {
      EXPECT_GT(entry.seq, last_seq) << "FIFO tie-break at equal times";
    }
    EXPECT_GE(entry.time, last);
    last = entry.time;
    last_seq = entry.seq;
    first = false;
  }
  EXPECT_EQ(q.now(), 90);
}

TEST(CalendarQueueTest, MatchesEventQueueOrderOnRandomWorkload) {
  // Differential test: same pushes, identical pop order as the
  // priority-queue EventQueue semantics (time, then schedule order).
  CalendarQueue<int> calendar(kTicksPerSlot);
  struct Ref {
    SimTime time;
    int id;
  };
  std::vector<Ref> reference;
  core::Rng rng(99);
  SimTime now = 0;
  int id = 0;
  for (int round = 0; round < 2000; ++round) {
    const SimTime at =
        now + static_cast<SimTime>(rng.uniform(20 * kTicksPerSlot));
    calendar.push(at, id);
    reference.push_back(Ref{at, id});
    ++id;
    if (round % 3 == 0 && !calendar.empty()) {
      const auto entry = calendar.pop();
      // Reference: earliest (time, insertion order) entry.
      std::size_t best = 0;
      for (std::size_t i = 1; i < reference.size(); ++i) {
        if (reference[i].time < reference[best].time) {
          best = i;
        }
      }
      EXPECT_EQ(entry.time, reference[best].time);
      EXPECT_EQ(entry.payload, reference[best].id);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(best));
      now = entry.time;
    }
  }
  while (!calendar.empty()) {
    const auto entry = calendar.pop();
    std::size_t best = 0;
    for (std::size_t i = 1; i < reference.size(); ++i) {
      if (reference[i].time < reference[best].time) {
        best = i;
      }
    }
    EXPECT_EQ(entry.payload, reference[best].id);
    reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(best));
  }
  EXPECT_TRUE(reference.empty());
}

TEST(CalendarQueueTest, RejectsPastScheduling) {
  CalendarQueue<int> q;
  q.push(5 * kTicksPerSlot, 1);
  (void)q.pop();
  EXPECT_EQ(q.now(), 5 * kTicksPerSlot);
  EXPECT_THROW(q.push(kTicksPerSlot, 2), core::Error);
}

// Same-tick floods: every transmission of a slot lands on one tick under
// a constant timing profile, so a day must absorb thousands of entries.
// Pops interleave with the pushes; the reference is the same entries
// sorted by (time, seq).
TEST(CalendarQueueTest, SameTickFloodPopsInSortedOrder) {
  using Key = std::tuple<SimTime, std::uint64_t, int>;
  CalendarQueue<int> q;
  std::set<Key> reference;
  core::Rng rng(17);
  const SimTime ticks[] = {3 * kTicksPerSlot, 3 * kTicksPerSlot + 1,
                           4 * kTicksPerSlot, 7 * kTicksPerSlot + 5};
  for (int i = 0; i < 12000; ++i) {
    const SimTime at = ticks[rng.uniform(4)];
    reference.emplace(at, q.next_seq(), i);
    q.push(at, i);
    if (i % 5 == 0 && q.peek().time <= 3 * kTicksPerSlot) {
      const auto entry = q.pop();
      ASSERT_EQ(Key(entry.time, entry.seq, entry.payload), *reference.begin());
      reference.erase(reference.begin());
    }
  }
  EXPECT_EQ(q.pending(), reference.size());
  while (!q.empty()) {
    const auto entry = q.pop();
    ASSERT_EQ(Key(entry.time, entry.seq, entry.payload), *reference.begin());
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
}

// The sharded engine's pattern: each producer's keyed pushes arrive in
// (time, seq) order, but four producers interleave, so the queue sees seq
// out of order on one tick (three producers share it, the fourth lands
// one tick later). Pops run slot by slot in between.
TEST(CalendarQueueTest, InterleavedKeyedProducersPopInSortedOrder) {
  using Key = std::pair<SimTime, std::uint64_t>;
  constexpr int kProducers = 4;
  CalendarQueue<std::uint64_t> q;
  std::set<Key> reference;
  core::Rng rng(29);
  for (SimTime slot = 0; slot < 40; ++slot) {
    while (!q.empty() && q.peek().time <= slot * kTicksPerSlot) {
      const auto entry = q.pop();
      ASSERT_FALSE(reference.empty());
      ASSERT_EQ(Key(entry.time, entry.seq), *reference.begin());
      ASSERT_EQ(entry.payload, entry.seq ^ 0x5a5aU);
      reference.erase(reference.begin());
    }
    std::uint64_t next[kProducers] = {};
    for (int i = 0; i < 300 * kProducers; ++i) {
      const int p = static_cast<int>(rng.uniform(kProducers));
      const std::uint64_t seq =
          (static_cast<std::uint64_t>(slot) << 32) +
          next[p]++ * kProducers + static_cast<std::uint64_t>(p);
      const SimTime at = (slot + 3) * kTicksPerSlot + (p == 3 ? 1 : 0);
      q.push_keyed(at, seq, seq ^ 0x5a5aU);
      reference.emplace(at, seq);
    }
  }
  while (!q.empty()) {
    const auto entry = q.pop();
    ASSERT_EQ(Key(entry.time, entry.seq), *reference.begin());
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
}

// The flood hold model: each replacement lands four slots after the
// popped entry, on the tick its whole batch moves to. Once the calendar
// has rescaled to one-tick days and a year of a slot or less, that tick
// wraps onto the popped entry's own bucket, so the day never drains and
// its segment must reclaim the popped prefix as it goes. Keys from two
// interleaved producers keep sending pushes out of order between
// reclaims.
TEST(CalendarQueueTest, UndrainedFloodDayStaysOrdered) {
  using Key = std::pair<SimTime, std::uint64_t>;
  CalendarQueue<std::uint64_t> q;
  std::set<Key> reference;
  core::Rng rng(53);
  std::uint64_t next[2] = {0, 1};  // producer p issues p, p + 2, ...
  const auto push = [&](SimTime at) {
    std::uint64_t& key = next[rng.uniform(2)];
    q.push_keyed(at, key, key);
    reference.emplace(at, key);
    key += 2;
  };
  for (SimTime slot = 1; slot <= 4; ++slot) {
    for (int i = 0; i < 2000; ++i) {
      push(slot * kTicksPerSlot);
    }
  }
  for (int op = 0; op < 40000; ++op) {
    const auto entry = q.pop();
    ASSERT_EQ(Key(entry.time, entry.seq), *reference.begin());
    ASSERT_EQ(entry.payload, entry.seq);
    reference.erase(reference.begin());
    push(entry.time + 4 * kTicksPerSlot);
  }
  EXPECT_EQ(q.pending(), reference.size());
}

// The checkpoint path: for_each -> push_keyed into a fresh queue (plus
// the auto-sequence counter) must reproduce the pop sequence exactly,
// whatever mix of flooded, scattered and half-drained days the source
// holds, including pushes made after the restore.
TEST(CalendarQueueTest, ForEachRoundTripReproducesPopOrder) {
  CalendarQueue<int> source;
  core::Rng rng(41);
  int id = 0;
  for (int i = 0; i < 3000; ++i) {
    source.push(6 * kTicksPerSlot, id++);
    source.push(static_cast<SimTime>(rng.uniform(40 * kTicksPerSlot)),
                id++);
  }
  for (int i = 0; i < 1500; ++i) {
    (void)source.pop();
  }
  CalendarQueue<int> restored;
  source.for_each([&](const CalendarQueue<int>::Entry& entry) {
    restored.push_keyed(entry.time, entry.seq, entry.payload);
  });
  restored.set_next_seq(source.next_seq());
  ASSERT_EQ(restored.pending(), source.pending());
  for (int i = 0; i < 2000; ++i) {
    const SimTime at =
        source.now() + static_cast<SimTime>(rng.uniform(8 * kTicksPerSlot));
    source.push(at, id);
    restored.push(at, id);
    ++id;
  }
  while (!source.empty()) {
    ASSERT_FALSE(restored.empty());
    const auto want = source.pop();
    const auto got = restored.pop();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.seq, want.seq);
    ASSERT_EQ(got.payload, want.payload);
  }
  EXPECT_TRUE(restored.empty());
}

// peek() memoizes the minimum's bucket; a later push of an earlier time
// into another bucket must displace it, in a slab day and behind a
// flood alike.
TEST(CalendarQueueTest, EarlierPushAfterPeekInvalidatesCachedMinimum) {
  // Width 4, 4 buckets, too few entries to rescale: t=9 is bucket 2,
  // t=5 bucket 1, t=8 bucket 2 again.
  CalendarQueue<int> q(/*bucket_width=*/4, /*initial_buckets=*/4);
  q.push(9, 1);
  q.push(9, 2);
  EXPECT_EQ(q.peek().time, 9);
  q.push(5, 3);
  EXPECT_EQ(q.peek().time, 5);
  q.push(8, 4);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_EQ(q.pop().payload, 4);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);

  CalendarQueue<int> flood;
  for (int i = 0; i < 5000; ++i) {
    flood.push(5 * kTicksPerSlot, i);
  }
  EXPECT_EQ(flood.peek().payload, 0);
  flood.push(2 * kTicksPerSlot + 3, -1);
  EXPECT_EQ(flood.peek().time, 2 * kTicksPerSlot + 3);
  EXPECT_EQ(flood.pop().payload, -1);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(flood.pop().payload, i);
  }
  EXPECT_TRUE(flood.empty());
}

// --------------------------------------------------------- timing model

TEST(TimingConfigTest, LabelsAndValidation) {
  TimingConfig none;
  EXPECT_TRUE(none.is_slot_aligned());
  EXPECT_EQ(none.label(), "none");
  EXPECT_NO_THROW(none.validate());

  TimingConfig constant;
  constant.profile = SkewProfile::kConstant;
  constant.tuning_ticks = 256;
  constant.propagation_ticks = 128;
  EXPECT_FALSE(constant.is_slot_aligned());
  EXPECT_EQ(constant.label(), "const(t256,p128,g0)");
  EXPECT_NO_THROW(constant.validate());

  TimingConfig level = constant;
  level.profile = SkewProfile::kPerLevel;
  level.level_skew_ticks = 64;
  EXPECT_EQ(level.label(), "level(t256,p128,l64,g0)");
  EXPECT_NO_THROW(level.validate());

  TimingConfig bad_none;
  bad_none.tuning_ticks = 1;
  EXPECT_THROW(bad_none.validate(), core::Error);
  TimingConfig negative = constant;
  negative.propagation_ticks = -1;
  EXPECT_THROW(negative.validate(), core::Error);
  TimingConfig wide_guard = constant;
  wide_guard.guard_ticks = kTicksPerSlot;
  EXPECT_THROW(wide_guard.validate(), core::Error);
  TimingConfig stray_level = constant;
  stray_level.level_skew_ticks = 8;
  EXPECT_THROW(stray_level.validate(), core::Error);
}

TEST(TimingModelTest, CompilesConstantAndPerLevelProfiles) {
  hypergraph::StackKautz sk(3, 2, 2);
  const auto& stack = sk.stack();

  TimingConfig constant;
  constant.profile = SkewProfile::kConstant;
  constant.tuning_ticks = 100;
  constant.propagation_ticks = 40;
  const TimingModel uniform = TimingModel::compile(stack, constant);
  EXPECT_FALSE(uniform.slot_aligned());
  EXPECT_EQ(uniform.coupler_count(),
            stack.hypergraph().hyperarc_count());
  for (hypergraph::HyperarcId h = 0; h < uniform.coupler_count(); ++h) {
    EXPECT_EQ(uniform.tuning(h), 100);
    EXPECT_EQ(uniform.propagation(h), 40);
  }

  TimingConfig leveled = constant;
  leveled.profile = SkewProfile::kPerLevel;
  leveled.level_skew_ticks = 10;
  const TimingModel skewed = TimingModel::compile(stack, leveled);
  bool found_skew = false;
  SimTime largest = 0;
  for (hypergraph::HyperarcId h = 0; h < skewed.coupler_count(); ++h) {
    const graph::ArcId arc = stack.arc_of_coupler(h);
    const SimTime level =
        std::abs(stack.base().head(arc) - stack.base().tail(arc));
    EXPECT_EQ(skewed.propagation(h), 40 + 10 * level);
    largest = std::max(largest, skewed.propagation(h));
    found_skew |= skewed.propagation(h) != skewed.propagation(0);
  }
  EXPECT_TRUE(found_skew) << "per-level skew must differentiate couplers";
  EXPECT_EQ(skewed.max_propagation(), largest);

  const TimingModel zero = TimingModel::compile(stack, TimingConfig{});
  EXPECT_TRUE(zero.slot_aligned());
  EXPECT_EQ(zero.max_propagation(), 0);
}

TEST(TimingModelTest, TraceDerivedSkewFollowsTheOptics) {
  // SK(2,2,2): the optical design exists (Fig. 12 construction); every
  // coupler's delay comes from its worst traced component chain.
  hypergraph::StackKautz sk(2, 2, 2);
  const designs::NetworkDesign design = designs::stack_kautz_design(2, 2, 2);
  const TimingModel model =
      TimingModel::from_trace(sk.stack(), design, /*ticks_per_component=*/8.0,
                              /*tuning_ticks=*/16);
  EXPECT_FALSE(model.slot_aligned());
  EXPECT_EQ(model.coupler_count(), sk.coupler_count());
  for (hypergraph::HyperarcId h = 0; h < model.coupler_count(); ++h) {
    EXPECT_EQ(model.tuning(h), 16);
    // Every lightpath crosses at least tx -> ... -> rx components.
    EXPECT_GE(model.propagation(h), 3 * 8);
  }
  // Doubling the per-component scale doubles every delay.
  const TimingModel doubled =
      TimingModel::from_trace(sk.stack(), design, 16.0, 16);
  for (hypergraph::HyperarcId h = 0; h < model.coupler_count(); ++h) {
    EXPECT_EQ(doubled.propagation(h), 2 * model.propagation(h));
  }
}

// --------------------------------------------------- zero-delay parity

enum class Table { kDense, kCompressed };

template <class Network, class CompileDense, class CompileCompressed>
RunMetrics run_case(Network& network, CompileDense compile_dense,
                    CompileCompressed compile_compressed,
                    std::int64_t processors, Engine engine, Arbitration arb,
                    Table table, const TimingConfig& timing,
                    std::vector<std::int64_t>* successes,
                    std::int64_t queue_capacity = 0,
                    std::int64_t wavelengths = 1, bool drain = false) {
  SimConfig config;
  config.arbitration = arb;
  config.warmup_slots = 40;
  config.measure_slots = 400;
  config.seed = 23;
  config.engine = engine;
  config.queue_capacity = queue_capacity;
  config.wavelengths = wavelengths;
  config.drain = drain;
  config.timing = timing;
  auto traffic = std::make_unique<UniformTraffic>(processors, 0.45);
  RunMetrics metrics;
  if (table == Table::kDense) {
    OpsNetworkSim sim(network.stack(), compile_dense(), std::move(traffic),
                      config);
    metrics = sim.run();
    if (successes != nullptr) {
      *successes = sim.coupler_successes();
    }
  } else {
    OpsNetworkSim sim(network.stack(), compile_compressed(),
                      std::move(traffic), config);
    metrics = sim.run();
    if (successes != nullptr) {
      *successes = sim.coupler_successes();
    }
  }
  return metrics;
}

/// Runs (engine, arb, table, timing) on one of the three paper
/// topologies by index: 0 = SK(4,3,2), 1 = POPS(6,12), 2 = SII(4,2,12).
RunMetrics run_topology(int topology, Engine engine, Arbitration arb,
                        Table table, const TimingConfig& timing = {},
                        std::vector<std::int64_t>* successes = nullptr,
                        std::int64_t queue_capacity = 0,
                        std::int64_t wavelengths = 1, bool drain = false) {
  switch (topology) {
    case 0: {
      hypergraph::StackKautz sk(4, 3, 2);
      return run_case(
          sk, [&] { return routing::compile_stack_kautz_routes(sk); },
          [&] { return routing::compress_stack_kautz_routes(sk); },
          sk.processor_count(), engine, arb, table, timing, successes,
          queue_capacity, wavelengths, drain);
    }
    case 1: {
      hypergraph::Pops pops(6, 12);
      return run_case(
          pops, [&] { return routing::compile_pops_routes(pops); },
          [&] { return routing::compress_pops_routes(pops); },
          pops.processor_count(), engine, arb, table, timing, successes,
          queue_capacity, wavelengths, drain);
    }
    default: {
      hypergraph::StackImaseItoh sii(4, 2, 12);
      return run_case(
          sii, [&] { return routing::compile_stack_imase_itoh_routes(sii); },
          [&] { return routing::compress_stack_imase_itoh_routes(sii); },
          sii.processor_count(), engine, arb, table, timing, successes,
          queue_capacity, wavelengths, drain);
    }
  }
}

TEST(AsyncEngineParity, SlotAlignedMatchesPhasedOnAllTopologiesAndTables) {
  const char* names[] = {"SK(4,3,2)", "POPS(6,12)", "SII(4,2,12)"};
  for (int topology = 0; topology < 3; ++topology) {
    for (Arbitration arb : kAllPolicies) {
      for (Table table : {Table::kDense, Table::kCompressed}) {
        SCOPED_TRACE(std::string(names[topology]) + "/" +
                     arbitration_name(arb) + "/" +
                     (table == Table::kDense ? "dense" : "compressed"));
        std::vector<std::int64_t> phased_successes;
        std::vector<std::int64_t> async_successes;
        const RunMetrics phased = run_topology(
            topology, Engine::kPhased, arb, table, {}, &phased_successes);
        const RunMetrics async = run_topology(
            topology, Engine::kAsync, arb, table, {}, &async_successes);
        expect_identical(phased, async);
        EXPECT_EQ(phased_successes, async_successes);
      }
    }
  }
}

TEST(AsyncEngineParity, SlotAlignedMatchesPhasedWithQueuesWdmAndDrain) {
  for (int topology = 0; topology < 3; ++topology) {
    for (Arbitration arb : kAllPolicies) {
      SCOPED_TRACE(std::string("topology ") + std::to_string(topology) + "/" +
                   arbitration_name(arb));
      const RunMetrics phased =
          run_topology(topology, Engine::kPhased, arb, Table::kDense, {},
                       nullptr, /*queue_capacity=*/3, /*wavelengths=*/2,
                       /*drain=*/true);
      const RunMetrics async =
          run_topology(topology, Engine::kAsync, arb, Table::kDense, {},
                       nullptr, 3, 2, true);
      expect_identical(phased, async);
      EXPECT_EQ(async.backlog, 0) << "drain must empty the network";
    }
  }
}

TEST(AsyncEngineParity, ExplicitZeroTimingModelStillCollapses) {
  // A slot-aligned model built through the kConstant profile with all
  // zeros must behave exactly like the default-constructed config.
  TimingConfig zero;
  zero.profile = SkewProfile::kConstant;
  const RunMetrics a = run_topology(0, Engine::kAsync,
                                    Arbitration::kTokenRoundRobin,
                                    Table::kDense, zero);
  const RunMetrics b = run_topology(0, Engine::kPhased,
                                    Arbitration::kTokenRoundRobin,
                                    Table::kDense);
  expect_identical(a, b);
}

// ----------------------------------------------------- skewed behaviour

TimingConfig constant_timing(SimTime tuning, SimTime propagation,
                             SimTime guard = 0) {
  TimingConfig config;
  config.profile = SkewProfile::kConstant;
  config.tuning_ticks = tuning;
  config.propagation_ticks = propagation;
  config.guard_ticks = guard;
  return config;
}

TEST(AsyncEngineSkew, TuningDelayRaisesLatencyAndLowersThroughput) {
  const RunMetrics aligned = run_topology(
      0, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense);
  // 2.5 slots of tuning: every hop waits out at least 3 slot boundaries.
  const RunMetrics tuned = run_topology(
      0, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      constant_timing(5 * kTicksPerSlot / 2, 0));
  EXPECT_EQ(aligned.offered_packets, tuned.offered_packets)
      << "generation is timing-independent";
  EXPECT_GT(tuned.latency.mean(), aligned.latency.mean() + 2.0);
  EXPECT_LT(tuned.delivered_packets, aligned.delivered_packets);
}

TEST(AsyncEngineSkew, PropagationSkewDefersDeliveriesNotThroughput) {
  const RunMetrics aligned = run_topology(
      1, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense);
  // Single-hop POPS with 1.5 slots of propagation: packets arrive late
  // (higher latency) but the coupler schedule is unchanged.
  const RunMetrics skewed = run_topology(
      1, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      constant_timing(0, 3 * kTicksPerSlot / 2));
  EXPECT_EQ(aligned.coupler_transmissions, skewed.coupler_transmissions);
  EXPECT_GT(skewed.latency.mean(), aligned.latency.mean() + 0.9);
}

TEST(AsyncEngineSkew, GuardBandCostsOneSlotPerHop) {
  const RunMetrics aligned = run_topology(
      1, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense);
  // A packet generated at the boundary misses its own slot's guard and
  // waits for the next one: +1 slot latency on single-hop POPS.
  const RunMetrics guarded = run_topology(
      1, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      constant_timing(0, 0, kTicksPerSlot / 4));
  EXPECT_NEAR(guarded.latency.mean(), aligned.latency.mean() + 1.0, 0.35);
}

TEST(AsyncEngineSkew, SkewedRunsAreDeterministicAndSeedSensitive) {
  const TimingConfig timing = constant_timing(300, 700);
  auto run = [&](std::uint64_t seed) {
    hypergraph::StackKautz sk(4, 3, 2);
    SimConfig config;
    config.engine = Engine::kAsync;
    config.timing = timing;
    config.seed = seed;
    config.warmup_slots = 20;
    config.measure_slots = 300;
    config.arbitration = Arbitration::kRandomWinner;
    OpsNetworkSim sim(
        sk.stack(), routing::compile_stack_kautz_routes(sk),
        std::make_unique<UniformTraffic>(sk.processor_count(), 0.4), config);
    return sim.run();
  };
  const RunMetrics a = run(11);
  const RunMetrics b = run(11);
  const RunMetrics c = run(12);
  expect_identical(a, b);
  EXPECT_NE(a.offered_packets, c.offered_packets);
}

TEST(AsyncEngineSkew, PerLevelSkewChangesOutcomesOnMultiHop) {
  TimingConfig leveled;
  leveled.profile = SkewProfile::kPerLevel;
  leveled.propagation_ticks = 100;
  leveled.level_skew_ticks = 400;
  const RunMetrics flat = run_topology(
      0, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      constant_timing(0, 100));
  const RunMetrics skewed = run_topology(
      0, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      leveled);
  EXPECT_GT(skewed.latency.mean(), flat.latency.mean());
}

TEST(AsyncEngineSkew, TraceDerivedModelRunsEndToEnd) {
  hypergraph::StackKautz sk(2, 2, 2);
  const designs::NetworkDesign design = designs::stack_kautz_design(2, 2, 2);
  auto timing = std::make_shared<const TimingModel>(TimingModel::from_trace(
      sk.stack(), design, /*ticks_per_component=*/kTicksPerSlot / 16.0));
  SimConfig config;
  config.engine = Engine::kAsync;
  config.warmup_slots = 20;
  config.measure_slots = 400;
  config.seed = 5;
  OpsNetworkSim sim(
      sk.stack(), routing::compile_stack_kautz_routes(sk),
      std::make_unique<UniformTraffic>(sk.processor_count(), 0.3), config);
  sim.set_timing_model(timing);
  const RunMetrics skewed = sim.run();
  EXPECT_GT(skewed.delivered_packets, 0);
  EXPECT_GT(skewed.latency.mean(), 1.0)
      << "optical path lengths must introduce visible delay";
}

TEST(AsyncEngineSkew, SlottedEnginesRejectSkewedTimingConfigs) {
  hypergraph::Pops pops(2, 2);
  SimConfig config;
  config.engine = Engine::kPhased;
  config.timing = constant_timing(64, 0);
  EXPECT_THROW(OpsNetworkSim(pops.stack(), routing::compile_pops_routes(pops),
                             std::make_unique<SaturationTraffic>(4), config),
               core::Error);
  config.engine = Engine::kAsync;
  EXPECT_NO_THROW(
      OpsNetworkSim(pops.stack(), routing::compile_pops_routes(pops),
                    std::make_unique<SaturationTraffic>(4), config));
}

TEST(AsyncEngineSkew, PacketConservationExactUnderSkew) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    hypergraph::StackKautz sk(4, 3, 2);
    SimConfig config;
    config.engine = Engine::kAsync;
    config.arbitration = arb;
    config.warmup_slots = 0;
    config.measure_slots = 300;
    config.seed = 7;
    config.queue_capacity = 4;
    config.timing = constant_timing(200, 900, 100);
    OpsNetworkSim sim(
        sk.stack(), routing::compile_stack_kautz_routes(sk),
        std::make_unique<UniformTraffic>(sk.processor_count(), 0.5), config);
    const RunMetrics m = sim.run();
    EXPECT_GT(m.offered_packets, 0);
    EXPECT_EQ(m.offered_packets,
              m.delivered_packets + m.dropped_packets + m.backlog);
  }
}

}  // namespace
}  // namespace otis::sim
