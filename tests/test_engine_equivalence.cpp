// Engine-equivalence and determinism tests for the phased slot engine:
//  - the phased engine reproduces the legacy event-queue engine's
//    RunMetrics bit-for-bit at seed parity (all arbitration policies,
//    multi-hop and single-hop topologies, finite queues, WDM, drain);
//  - the sharded engine is bit-identical for every thread count;
//  - CompiledRoutes agrees with the hooks it was baked from;
//  - packet conservation holds exactly under every (engine, policy);
//  - SimConfig is validated at construction;
//  - the feed-local shard plan keeps every coupler with its feed nodes,
//    lists couplers in shard order == id order (the phased closed-loop
//    receive depends on it) and rejects a numbering that breaks that.

#include <gtest/gtest.h>

#include <memory>

#include "core/error.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "routing/generic_stack_routing.hpp"
#include "routing/stack_routing.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/sharding.hpp"
#include "sim/traffic.hpp"

namespace otis::sim {
namespace {

/// Exact equality of every metric, including the latency distribution.
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

RoutingHooks stack_kautz_hooks(const routing::StackKautzRouter& router) {
  RoutingHooks hooks;
  hooks.next_coupler = [&router](hypergraph::Node c, hypergraph::Node d) {
    return router.next_coupler(c, d);
  };
  hooks.relay_on = [&router](hypergraph::HyperarcId h, hypergraph::Node d) {
    return router.relay_on(h, d);
  };
  return hooks;
}

/// One stack-Kautz run; coupler successes are appended to the metrics
/// comparison by the caller when needed.
RunMetrics run_sk(Engine engine, Arbitration arb, std::uint64_t seed,
                  int threads = 1, std::int64_t queue_capacity = 0,
                  std::int64_t wavelengths = 1, bool drain = false) {
  hypergraph::StackKautz sk(4, 3, 2);
  routing::StackKautzRouter router(sk);
  SimConfig config;
  config.arbitration = arb;
  config.warmup_slots = 50;
  config.measure_slots = 400;
  config.seed = seed;
  config.engine = engine;
  config.threads = threads;
  config.queue_capacity = queue_capacity;
  config.wavelengths = wavelengths;
  config.drain = drain;
  OpsNetworkSim sim(
      sk.stack(), stack_kautz_hooks(router),
      std::make_unique<UniformTraffic>(sk.processor_count(), 0.35), config);
  return sim.run();
}

constexpr Arbitration kAllPolicies[] = {Arbitration::kTokenRoundRobin,
                                        Arbitration::kRandomWinner,
                                        Arbitration::kSlottedAloha};

TEST(EngineEquivalence, PhasedMatchesEventQueueOnStackKautz) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    RunMetrics legacy = run_sk(Engine::kEventQueue, arb, 42);
    RunMetrics phased = run_sk(Engine::kPhased, arb, 42);
    expect_identical(legacy, phased);
  }
}

TEST(EngineEquivalence, PhasedMatchesEventQueueWithQueuesWdmAndDrain) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    RunMetrics legacy = run_sk(Engine::kEventQueue, arb, 7, 1,
                               /*queue_capacity=*/3, /*wavelengths=*/2,
                               /*drain=*/true);
    RunMetrics phased = run_sk(Engine::kPhased, arb, 7, 1, 3, 2, true);
    expect_identical(legacy, phased);
  }
}

TEST(EngineEquivalence, PhasedMatchesEventQueueOnPops) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    auto run = [arb](Engine engine) {
      hypergraph::Pops pops(4, 3);
      SimConfig config;
      config.arbitration = arb;
      config.warmup_slots = 30;
      config.measure_slots = 300;
      config.seed = 5;
      config.engine = engine;
      OpsNetworkSim sim(pops.stack(),
                        routing::compile_pops_routes(pops),
                        std::make_unique<UniformTraffic>(12, 0.4), config);
      return sim.run();
    };
    expect_identical(run(Engine::kEventQueue), run(Engine::kPhased));
  }
}

TEST(EngineEquivalence, PhasedMatchesEventQueueOnStackImaseItoh) {
  auto run = [](Engine engine) {
    hypergraph::StackImaseItoh sii(3, 2, 7);
    SimConfig config;
    config.warmup_slots = 40;
    config.measure_slots = 300;
    config.seed = 11;
    config.arbitration = Arbitration::kRandomWinner;
    config.engine = engine;
    OpsNetworkSim sim(
        sii.stack(), routing::compile_stack_imase_itoh_routes(sii),
        std::make_unique<UniformTraffic>(sii.processor_count(), 0.25),
        config);
    return sim.run();
  };
  expect_identical(run(Engine::kEventQueue), run(Engine::kPhased));
}

TEST(EngineEquivalence, PhasedCouplerSuccessesMatchEventQueue) {
  hypergraph::StackKautz sk(4, 3, 2);
  routing::StackKautzRouter router(sk);
  auto run = [&](Engine engine, std::vector<std::int64_t>& successes) {
    SimConfig config;
    config.warmup_slots = 50;
    config.measure_slots = 300;
    config.seed = 3;
    config.engine = engine;
    OpsNetworkSim sim(
        sk.stack(), stack_kautz_hooks(router),
        std::make_unique<UniformTraffic>(sk.processor_count(), 0.5), config);
    sim.run();
    successes = sim.coupler_successes();
  };
  std::vector<std::int64_t> legacy;
  std::vector<std::int64_t> phased;
  run(Engine::kEventQueue, legacy);
  run(Engine::kPhased, phased);
  EXPECT_EQ(legacy, phased);
}

TEST(EngineEquivalence, ShardedIsBitIdenticalAcrossThreadCounts) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    RunMetrics one = run_sk(Engine::kSharded, arb, 9, 1);
    for (int threads : {2, 3, 5, 8}) {
      SCOPED_TRACE(threads);
      RunMetrics many = run_sk(Engine::kSharded, arb, 9, threads);
      expect_identical(one, many);
    }
  }
}

TEST(EngineEquivalence, DrainBitParityAcrossAllEnginesAndThreadCounts) {
  // drain = true keeps every engine running past the traffic horizon
  // until the network empties. The three serial universes (event-queue,
  // phased, async-with-zero-delays) must agree bit-for-bit on the
  // drained run -- including with finite queues and WDM -- and the
  // sharded universe must be identical for every thread count.
  for (Arbitration arb : kAllPolicies) {
    for (std::int64_t queue_capacity : {std::int64_t{0}, std::int64_t{3}}) {
      for (std::int64_t wavelengths : {std::int64_t{1}, std::int64_t{2}}) {
        SCOPED_TRACE(std::string(arbitration_name(arb)) + "/cap=" +
                     std::to_string(queue_capacity) + "/w=" +
                     std::to_string(wavelengths));
        const RunMetrics legacy =
            run_sk(Engine::kEventQueue, arb, 57, 1, queue_capacity,
                   wavelengths, /*drain=*/true);
        const RunMetrics phased = run_sk(Engine::kPhased, arb, 57, 1,
                                         queue_capacity, wavelengths, true);
        const RunMetrics async = run_sk(Engine::kAsync, arb, 57, 1,
                                        queue_capacity, wavelengths, true);
        expect_identical(legacy, phased);
        expect_identical(legacy, async);
        EXPECT_EQ(phased.backlog, 0) << "drain must empty the network";

        const RunMetrics sharded_one =
            run_sk(Engine::kSharded, arb, 57, 1, queue_capacity,
                   wavelengths, true);
        for (int threads : {2, 3, 5, 8}) {
          SCOPED_TRACE(threads);
          const RunMetrics sharded_many =
              run_sk(Engine::kSharded, arb, 57, threads, queue_capacity,
                     wavelengths, true);
          expect_identical(sharded_one, sharded_many);
        }
        EXPECT_EQ(sharded_one.backlog, 0);
      }
    }
  }
}

TEST(EngineEquivalence, LargerStackKautzParityAcrossRoutesAndThreads) {
  // SK(5,4,2): 160 processors, a size class above the other fixtures,
  // so the compact-sender generation batches span multiple shards with
  // ragged per-shard sender counts. One event-queue reference run
  // (hook-routed) must be matched bit-for-bit by the phased engine on
  // dense AND on group-compressed tables, by the async engine in its
  // slot-aligned limit, and by the sharded engine at every thread
  // count, on both route representations.
  hypergraph::StackKautz sk(5, 4, 2);
  routing::StackKautzRouter router(sk);
  const auto dense = std::make_shared<const routing::CompiledRoutes>(
      routing::compile_stack_kautz_routes(sk));
  const auto compressed =
      std::make_shared<const routing::CompressedRoutes>(
          routing::compress_stack_kautz_routes(sk));
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    SimConfig config;
    config.arbitration = arb;
    config.warmup_slots = 30;
    config.measure_slots = 250;
    config.seed = 23;
    auto run = [&](Engine engine, bool use_compressed, int threads) {
      SimConfig c = config;
      c.engine = engine;
      c.threads = threads;
      auto traffic =
          std::make_unique<UniformTraffic>(sk.processor_count(), 0.4);
      if (engine == Engine::kEventQueue) {
        OpsNetworkSim sim(sk.stack(), stack_kautz_hooks(router),
                          std::move(traffic), c);
        return sim.run();
      }
      if (use_compressed) {
        OpsNetworkSim sim(sk.stack(), compressed, std::move(traffic), c);
        return sim.run();
      }
      OpsNetworkSim sim(sk.stack(), dense, std::move(traffic), c);
      return sim.run();
    };
    const RunMetrics legacy = run(Engine::kEventQueue, false, 1);
    for (bool use_compressed : {false, true}) {
      SCOPED_TRACE(use_compressed ? "compressed" : "dense");
      expect_identical(legacy, run(Engine::kPhased, use_compressed, 1));
      expect_identical(legacy, run(Engine::kAsync, use_compressed, 1));
      const RunMetrics sharded_one =
          run(Engine::kSharded, use_compressed, 1);
      for (int threads : {2, 3, 5, 8}) {
        SCOPED_TRACE(threads);
        expect_identical(sharded_one,
                         run(Engine::kSharded, use_compressed, threads));
      }
    }
  }
}

TEST(EngineEquivalence, ShardedDrainTerminatesAndIsThreadCountInvariant) {
  // Drain keeps the barrier loop alive past the traffic horizon until
  // the folded in-flight count hits zero; the backlog must come out
  // zero and identical for any worker count.
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    RunMetrics one = run_sk(Engine::kSharded, arb, 31, 1, 0, 1, true);
    EXPECT_EQ(one.backlog, 0);
    RunMetrics four = run_sk(Engine::kSharded, arb, 31, 4, 0, 1, true);
    expect_identical(one, four);
  }
}

TEST(EngineEquivalence, ShardedBurstyTrafficIsThreadCountInvariant) {
  // BurstyTraffic keeps per-node state -- the one generator whose
  // correctness under sharding depends on node ownership being exclusive.
  auto run = [](int threads) {
    hypergraph::StackKautz sk(4, 3, 2);
    routing::StackKautzRouter router(sk);
    SimConfig config;
    config.warmup_slots = 20;
    config.measure_slots = 500;
    config.seed = 13;
    config.engine = Engine::kSharded;
    config.threads = threads;
    OpsNetworkSim sim(sk.stack(), stack_kautz_hooks(router),
                      std::make_unique<BurstyTraffic>(sk.processor_count(),
                                                      0.8, 0.05, 0.05),
                      config);
    return sim.run();
  };
  RunMetrics one = run(1);
  RunMetrics four = run(4);
  expect_identical(one, four);
}

TEST(EngineEquivalence, ShardedIsDeterministicAndSeedSensitive) {
  RunMetrics a = run_sk(Engine::kSharded, Arbitration::kRandomWinner, 21, 3);
  RunMetrics b = run_sk(Engine::kSharded, Arbitration::kRandomWinner, 21, 3);
  RunMetrics c = run_sk(Engine::kSharded, Arbitration::kRandomWinner, 22, 3);
  expect_identical(a, b);
  EXPECT_NE(a.offered_packets, c.offered_packets);
}

TEST(EngineEquivalence, PacketConservationExactUnderAllEnginesAndPolicies) {
  // With no warmup every offered packet is delivered, dropped, or
  // still queued when the run stops -- exactly.
  for (Engine engine :
       {Engine::kEventQueue, Engine::kPhased, Engine::kSharded}) {
    for (Arbitration arb : kAllPolicies) {
      SCOPED_TRACE(std::string(engine_name(engine)) + "/" +
                   arbitration_name(arb));
      hypergraph::StackKautz sk(4, 3, 2);
      routing::StackKautzRouter router(sk);
      SimConfig config;
      config.arbitration = arb;
      config.warmup_slots = 0;
      config.measure_slots = 600;
      config.seed = 17;
      config.engine = engine;
      config.threads = 2;
      config.queue_capacity = 4;  // force drops into the balance too
      OpsNetworkSim sim(
          sk.stack(), stack_kautz_hooks(router),
          std::make_unique<UniformTraffic>(sk.processor_count(), 0.6),
          config);
      RunMetrics m = sim.run();
      EXPECT_GT(m.offered_packets, 0);
      EXPECT_EQ(m.offered_packets,
                m.delivered_packets + m.dropped_packets + m.backlog);
    }
  }
}

TEST(CompiledRoutes, AgreesWithTheHooksItWasBakedFrom) {
  hypergraph::StackKautz sk(3, 2, 2);
  routing::StackKautzRouter router(sk);
  routing::CompiledRoutes routes = routing::compile_stack_kautz_routes(sk);
  const auto& hg = sk.stack().hypergraph();
  for (hypergraph::Node v = 0; v < hg.node_count(); ++v) {
    for (hypergraph::Node d = 0; d < hg.node_count(); ++d) {
      if (v == d) {
        EXPECT_EQ(routes.next_coupler(v, d), -1);
        continue;
      }
      const hypergraph::HyperarcId h = router.next_coupler(v, d);
      EXPECT_EQ(routes.next_coupler(v, d), h);
      EXPECT_EQ(routes.next_slot(v, d), sk.stack().out_slot_of(v, h));
      EXPECT_EQ(routes.relay(h, d), router.relay_on(h, d));
    }
  }
}

TEST(CompiledRoutes, GenericAdapterServesTableRoutedStacks) {
  hypergraph::StackImaseItoh sii(2, 2, 5);
  routing::GenericStackRouter router(sii.stack());
  routing::CompiledRoutes routes =
      routing::compile_stack_imase_itoh_routes(sii);
  for (hypergraph::Node v = 0; v < sii.processor_count(); ++v) {
    for (hypergraph::Node d = 0; d < sii.processor_count(); ++d) {
      if (v == d) {
        continue;
      }
      EXPECT_EQ(routes.next_coupler(v, d), router.next_coupler(v, d));
    }
  }
}

TEST(CsrViews, OutSlotAndCouplerFeedAreConsistent) {
  hypergraph::StackKautz sk(3, 2, 2);
  const auto& hg = sk.stack().hypergraph();
  for (hypergraph::HyperarcId h = 0; h < hg.hyperarc_count(); ++h) {
    const hypergraph::CouplerFeed feed = hg.coupler_feed(h);
    const auto& sources = hg.hyperarc(h).sources;
    ASSERT_EQ(feed.count, static_cast<std::int64_t>(sources.size()));
    for (std::int64_t i = 0; i < feed.count; ++i) {
      const hypergraph::Node v = feed.source[i];
      EXPECT_EQ(v, sources[static_cast<std::size_t>(i)]);
      // Hypergraph binary search, stack-graph arithmetic, and the
      // flattened feed must all report the same VOQ slot.
      EXPECT_EQ(feed.slot[i], hg.out_slot_of(v, h));
      EXPECT_EQ(feed.slot[i], sk.stack().out_slot_of(v, h));
      EXPECT_EQ(hg.out_hyperarcs(v)[static_cast<std::size_t>(feed.slot[i])],
                h);
    }
  }
  // Non-sources resolve to -1.
  EXPECT_EQ(hg.out_slot_of(0, hg.hyperarc_count() - 1) >= 0,
            sk.stack().out_slot_of(0, hg.hyperarc_count() - 1) >= 0);
}

TEST(SimConfigValidation, RejectsDegenerateParameters) {
  hypergraph::Pops pops(2, 2);
  auto make = [&](SimConfig config) {
    OpsNetworkSim sim(pops.stack(), routing::compile_pops_routes(pops),
                      std::make_unique<SaturationTraffic>(4), config);
  };
  SimConfig ok;
  EXPECT_NO_THROW(make(ok));
  SimConfig bad_wavelengths;
  bad_wavelengths.wavelengths = 0;
  EXPECT_THROW(make(bad_wavelengths), core::Error);
  SimConfig bad_measure;
  bad_measure.measure_slots = 0;
  EXPECT_THROW(make(bad_measure), core::Error);
  SimConfig bad_warmup;
  bad_warmup.warmup_slots = -1;
  EXPECT_THROW(make(bad_warmup), core::Error);
  SimConfig bad_capacity;
  bad_capacity.queue_capacity = -1;
  EXPECT_THROW(make(bad_capacity), core::Error);
}

/// FeedIndex over `hg` with the engines' VOQ layout (one VOQ per
/// out-coupler of each node).
detail::FeedIndex feeds_of(const hypergraph::DirectedHypergraph& hg,
                           std::vector<std::int64_t>& voq_base) {
  voq_base.assign(static_cast<std::size_t>(hg.node_count()) + 1, 0);
  for (hypergraph::Node v = 0; v < hg.node_count(); ++v) {
    voq_base[static_cast<std::size_t>(v) + 1] =
        voq_base[static_cast<std::size_t>(v)] + hg.out_degree(v);
  }
  detail::FeedIndex feed;
  feed.build(hg, voq_base);
  return feed;
}

/// Checks every VOQ's packed feed record against the position a
/// brute-force search of its coupler's feed list finds, and that
/// marking the VOQ sets exactly that request bit.
void expect_voq_feeds_match(const hypergraph::DirectedHypergraph& hg) {
  std::vector<std::int64_t> voq_base;
  const detail::FeedIndex feed = feeds_of(hg, voq_base);
  ASSERT_EQ(feed.voq_feed.size(),
            static_cast<std::size_t>(voq_base.back()));
  for (hypergraph::Node v = 0; v < hg.node_count(); ++v) {
    for (std::int64_t slot = 0; slot < hg.out_degree(v); ++slot) {
      const hypergraph::HyperarcId h =
          hg.out_hyperarcs(v)[static_cast<std::size_t>(slot)];
      const hypergraph::CouplerFeed cf = hg.coupler_feed(h);
      std::int64_t position = -1;
      for (std::int64_t si = 0; si < cf.count; ++si) {
        if (cf.source[si] == v && cf.slot[si] == slot) {
          position = si;
        }
      }
      ASSERT_GE(position, 0) << "v=" << v << " slot=" << slot;
      const std::size_t qi =
          static_cast<std::size_t>(voq_base[static_cast<std::size_t>(v)] +
                                   slot);
      const detail::VoqFeed f = feed.voq_feed[qi];
      EXPECT_EQ(f.coupler, h);
      EXPECT_EQ(f.word,
                feed.mask_base[static_cast<std::size_t>(h)] + position / 64);
      EXPECT_EQ(f.bit, static_cast<std::uint32_t>(position % 64));

      detail::OccupancyMasks masks;
      masks.init(feed);
      masks.mark_nonempty(feed, qi);
      for (std::size_t w = 0; w < masks.request.size(); ++w) {
        const std::uint64_t want =
            static_cast<std::int64_t>(w) == f.word
                ? std::uint64_t{1} << (position % 64)
                : 0;
        ASSERT_EQ(masks.request[w], want) << "qi=" << qi << " word=" << w;
      }
      masks.mark_empty(feed, qi);
      for (const std::uint64_t word : masks.active) {
        ASSERT_EQ(word, 0u) << "qi=" << qi;
      }
    }
  }
}

TEST(FeedIndex, VoqFeedMatchesCouplerFeeds) {
  {
    SCOPED_TRACE("SK(4,3,2)");
    expect_voq_feeds_match(hypergraph::StackKautz(4, 3, 2).stack().hypergraph());
  }
  {
    SCOPED_TRACE("POPS(4,2)");
    expect_voq_feeds_match(hypergraph::Pops(4, 2).stack().hypergraph());
  }
  {
    SCOPED_TRACE("SII(4,2,12)");
    expect_voq_feeds_match(
        hypergraph::StackImaseItoh(4, 2, 12).stack().hypergraph());
  }
  {
    // 72 feeds per coupler: request positions past bit 63 spill into a
    // coupler's second mask word.
    SCOPED_TRACE("POPS(72,2)");
    expect_voq_feeds_match(hypergraph::Pops(72, 2).stack().hypergraph());
  }
}

TEST(ShardPlan, FeedLocalBlocksInCouplerOrder) {
  hypergraph::StackKautz sk(4, 3, 2);
  const hypergraph::DirectedHypergraph& hg = sk.stack().hypergraph();
  std::vector<std::int64_t> voq_base;
  const detail::FeedIndex feed = feeds_of(hg, voq_base);
  for (const int threads : {1, 2, 3, 5, 8, 13}) {
    SCOPED_TRACE(threads);
    const detail::ShardPlan plan =
        detail::plan_shards(threads, voq_base, feed);
    hypergraph::HyperarcId next = 0;
    for (int w = 0; w < threads; ++w) {
      for (const hypergraph::HyperarcId h :
           plan.couplers[static_cast<std::size_t>(w)]) {
        // Shard order is coupler order, and every feed node lives in
        // its coupler's shard.
        EXPECT_EQ(h, next++);
        for (const hypergraph::Node v : hg.hyperarc(h).sources) {
          EXPECT_EQ(plan.node_owner[static_cast<std::size_t>(v)], w);
        }
      }
    }
    EXPECT_EQ(next, hg.hyperarc_count());
  }
}

TEST(ShardPlan, RejectsCouplersNumberedAgainstTheirFeeds) {
  // Coupler 0 is fed by nodes {2, 3} and coupler 1 by {0, 1}: cut in
  // two, shard order would no longer be coupler order.
  const hypergraph::DirectedHypergraph hg(
      4, {hypergraph::Hyperarc{{2, 3}, {0, 1}},
          hypergraph::Hyperarc{{0, 1}, {2, 3}}});
  std::vector<std::int64_t> voq_base;
  const detail::FeedIndex feed = feeds_of(hg, voq_base);
  EXPECT_NO_THROW((void)detail::plan_shards(1, voq_base, feed));
  EXPECT_THROW((void)detail::plan_shards(2, voq_base, feed), core::Error);
}

}  // namespace
}  // namespace otis::sim
