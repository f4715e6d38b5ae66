// Workload subsystem tests:
//  - DagWorkload/WaveWorkload semantics: dependency gating, cycle and
//    range rejection, delivery-order independence of poll();
//  - ScheduleWorkload: THE acceptance property -- executing a compiled
//    collective schedule on the slot engines yields a simulated
//    makespan EQUAL to the analytic slot count in the uncontended
//    single-wavelength slot-aligned case, and >= it under contention
//    (aloha retries, background load, timing skew), and under constant
//    tuning/propagation skew the uncontended one-to-all makespans equal
//    literals derived by hand from the async timing rules, on serial and
//    sharded async at every thread count;
//  - cross-engine bit-parity: workload-driven runs are bit-identical
//    across phased/sharded/async engines, dense/compressed route tables
//    and thread counts {1, 2, 3, 5, 8}, for every arbitration policy,
//    with and without background traffic, for gossip and BSP on SK(4,3,2)
//    and gossip on POPS(4,2) (one legal feed-local cut, so most shards
//    are empty);
//  - synthetic kernels (bsp, reduce tree, gather incast) run to
//    completion with sane makespans;
//  - traces: recorder canonical form, binary/JSONL round-trips, replay
//    parity, and the malformed-trace error paths (truncated file,
//    out-of-range node, non-monotone slots).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collectives/pops_collectives.hpp"
#include "collectives/stack_kautz_collectives.hpp"
#include "core/error.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "sim/experiment.hpp"
#include "sim/ops_network.hpp"
#include "sim/traffic.hpp"
#include "workload/kernels.hpp"
#include "workload/schedule_workload.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace otis::workload {
namespace {

using hypergraph::Node;

void expect_identical(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.coupler_transmissions, b.coupler_transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.makespan_slots, b.makespan_slots);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.percentile(0.5), b.latency.percentile(0.5));
  EXPECT_EQ(a.latency.percentile(0.95), b.latency.percentile(0.95));
}

constexpr sim::Arbitration kAllPolicies[] = {
    sim::Arbitration::kTokenRoundRobin, sim::Arbitration::kRandomWinner,
    sim::Arbitration::kSlottedAloha};

/// A scratch file that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path.c_str()); }
};

// ------------------------------------------------------- DagWorkload

TEST(DagWorkloadTest, DependenciesGateEligibility) {
  // 0 -> 1 -> 2 chained; 3 independent.
  DagWorkload dag(4,
                  {{0, 0, 1}, {0, 1, 2}, {0, 2, 3}, {0, 3, 0}},
                  {{}, {0}, {1}, {}});
  EXPECT_EQ(dag.packet_count(), 4);
  std::vector<WorkloadPacket> out;
  dag.poll(0, out);
  ASSERT_EQ(out.size(), 2u);  // 0 and 3, sorted by id
  EXPECT_EQ(out[0].id, 0);
  EXPECT_EQ(out[1].id, 3);
  out.clear();
  dag.poll(1, out);
  EXPECT_TRUE(out.empty());  // nothing delivered yet
  dag.delivered(3);
  dag.delivered(0);
  out.clear();
  dag.poll(2, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1);
  EXPECT_FALSE(dag.done());
  dag.delivered(1);
  out.clear();
  dag.poll(3, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2);
  dag.delivered(2);
  EXPECT_TRUE(dag.done());

  // reset() restores the initial frontier.
  dag.reset();
  EXPECT_FALSE(dag.done());
  out.clear();
  dag.poll(0, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(DagWorkloadTest, PollOrderIndependentOfDeliveryOrder) {
  // 2 and 3 both unlock when {0, 1} are delivered.
  const auto build = [] {
    return DagWorkload(4, {{0, 0, 1}, {0, 1, 2}, {0, 2, 3}, {0, 3, 0}},
                       {{}, {}, {0, 1}, {0, 1}});
  };
  DagWorkload a = build();
  DagWorkload b = build();
  std::vector<WorkloadPacket> out;
  a.poll(0, out);
  out.clear();
  b.poll(0, out);
  out.clear();
  a.delivered(0);
  a.delivered(1);
  b.delivered(1);
  b.delivered(0);
  std::vector<WorkloadPacket> from_a, from_b;
  a.poll(1, from_a);
  b.poll(1, from_b);
  EXPECT_EQ(from_a, from_b);
  ASSERT_EQ(from_a.size(), 2u);
  EXPECT_EQ(from_a[0].id, 2);
  EXPECT_EQ(from_a[1].id, 3);
}

TEST(DagWorkloadTest, RejectsCyclesAndBadInput) {
  EXPECT_THROW(DagWorkload(2, {{0, 0, 1}, {0, 1, 0}}, {{1}, {0}}),
               core::Error);  // 2-cycle
  EXPECT_THROW(DagWorkload(2, {{0, 0, 1}}, {{0}}), core::Error);  // self-dep
  EXPECT_THROW(DagWorkload(2, {{0, 0, 1}}, {{7}}), core::Error);  // range
  EXPECT_THROW(DagWorkload(2, {{0, 0, 5}}, {{}}), core::Error);  // endpoint
  EXPECT_THROW(DagWorkload(2, {{0, 1, 1}}, {{}}), core::Error);  // src==dst
  EXPECT_THROW(DagWorkload(2, {{0, 0, 1}}, {}), core::Error);  // deps size
}

TEST(WaveWorkloadTest, WavesBarrierOnFullDelivery) {
  WaveWorkload waves(4, {{{0, 0, 1}, {0, 2, 3}}, {{0, 1, 0}}});
  EXPECT_EQ(waves.packet_count(), 3);
  EXPECT_EQ(waves.wave_count(), 2);
  std::vector<WorkloadPacket> out;
  waves.poll(0, out);
  ASSERT_EQ(out.size(), 2u);
  waves.delivered(0);
  out.clear();
  waves.poll(1, out);
  EXPECT_TRUE(out.empty());  // wave 0 not fully delivered
  waves.delivered(1);
  out.clear();
  waves.poll(2, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2);
  EXPECT_EQ(out[0].source, 1);
  waves.delivered(2);
  EXPECT_TRUE(waves.done());

  EXPECT_THROW(WaveWorkload(4, {{{0, 0, 1}}, {}}), core::Error);  // empty wave
}

// --------------------------------------------------- schedule workloads

struct WorkloadRun {
  sim::RunMetrics metrics;
  std::vector<std::int64_t> coupler_success;
};

/// A test network with both routing-table representations compiled
/// once and shared across every run.
struct Net {
  const hypergraph::StackGraph& stack;
  std::shared_ptr<const routing::CompiledRoutes> dense;
  std::shared_ptr<const routing::CompressedRoutes> compressed;
};

Net make_net(const hypergraph::StackKautz& sk) {
  return Net{sk.stack(),
             std::make_shared<const routing::CompiledRoutes>(
                 routing::compile_stack_kautz_routes(sk)),
             std::make_shared<const routing::CompressedRoutes>(
                 routing::compress_stack_kautz_routes(sk))};
}

Net make_net(const hypergraph::Pops& pops) {
  return Net{pops.stack(),
             std::make_shared<const routing::CompiledRoutes>(
                 routing::compile_pops_routes(pops)),
             std::make_shared<const routing::CompressedRoutes>(
                 routing::compress_pops_routes(pops))};
}

/// One closed-loop run. `background_load` drives UniformTraffic beside
/// the workload (0 = pure).
WorkloadRun run_workload(const Net& net, std::shared_ptr<Workload> load,
                         sim::SimConfig config, double background_load = 0.0,
                         bool compressed = false) {
  config.workload = std::move(load);
  config.warmup_slots = 0;
  config.measure_slots = 1;  // ignored: run to completion
  auto traffic = std::make_unique<sim::UniformTraffic>(
      net.stack.node_count(), background_load);
  WorkloadRun run;
  if (compressed) {
    sim::OpsNetworkSim sim(net.stack, net.compressed, std::move(traffic),
                           config);
    run.metrics = sim.run();
    run.coupler_success = sim.coupler_successes();
  } else {
    sim::OpsNetworkSim sim(net.stack, net.dense, std::move(traffic), config);
    run.metrics = sim.run();
    run.coupler_success = sim.coupler_successes();
  }
  return run;
}

TEST(ScheduleWorkloadTest, UncontendedMakespanEqualsAnalyticSlotCount) {
  // The acceptance property: under token arbitration, W = 1, no
  // background traffic and slot-aligned timing, every wave clears in
  // exactly one slot, so the simulated makespan IS the analytic bound.
  {
    hypergraph::Pops pops(6, 12);
    const Net net = make_net(pops);
    auto one = schedule_workload(pops.stack(),
                                 collectives::pops_one_to_all(pops, 0));
    auto gossip =
        schedule_workload(pops.stack(), collectives::pops_gossip(pops));
    const std::int64_t one_packets = one->packet_count();
    const std::int64_t gossip_packets = gossip->packet_count();
    WorkloadRun run = run_workload(net, std::move(one), {});
    EXPECT_EQ(run.metrics.makespan_slots, 1);
    EXPECT_EQ(run.metrics.delivered_packets, one_packets);
    run = run_workload(net, std::move(gossip), {});
    EXPECT_EQ(run.metrics.makespan_slots, 6);  // t slots
    EXPECT_EQ(run.metrics.delivered_packets, gossip_packets);
    EXPECT_EQ(run.metrics.backlog, 0);
  }
  {
    hypergraph::StackKautz sk(4, 3, 2);
    const Net net = make_net(sk);
    auto one =
        schedule_workload(sk.stack(), collectives::stack_kautz_one_to_all(sk, 0));
    auto gossip =
        schedule_workload(sk.stack(), collectives::stack_kautz_gossip(sk));
    WorkloadRun run = run_workload(net, std::move(one), {});
    EXPECT_EQ(run.metrics.makespan_slots, 2);  // diameter k
    run = run_workload(net, std::move(gossip), {});
    EXPECT_EQ(run.metrics.makespan_slots, 4 + 2);  // s + k
    EXPECT_EQ(run.metrics.backlog, 0);
  }
}

TEST(ScheduleWorkloadTest, ContentionOnlyRaisesTheMakespan) {
  hypergraph::StackKautz sk(4, 3, 2);
  const Net net = make_net(sk);
  const auto gossip = [&] {
    return schedule_workload(sk.stack(), collectives::stack_kautz_gossip(sk));
  };
  const std::int64_t bound =
      collectives::stack_kautz_gossip(sk).slot_count();

  // Aloha retries push waves past the bound but still complete.
  sim::SimConfig aloha;
  aloha.arbitration = sim::Arbitration::kSlottedAloha;
  WorkloadRun run = run_workload(net, gossip(), aloha);
  EXPECT_GT(run.metrics.makespan_slots, bound);
  EXPECT_EQ(run.metrics.backlog, 0);

  // Extra wavelengths cannot beat a conflict-free schedule's bound.
  sim::SimConfig wdm;
  wdm.wavelengths = 4;
  run = run_workload(net, gossip(), wdm);
  EXPECT_EQ(run.metrics.makespan_slots, bound);

  // Background traffic contends for the same couplers: makespan >=
  // bound, and the workload still completes.
  run = run_workload(net, gossip(), {}, /*background_load=*/0.5);
  EXPECT_GE(run.metrics.makespan_slots, bound);
  EXPECT_EQ(run.metrics.backlog, 0);
  EXPECT_GT(run.metrics.offered_packets,
            collectives::stack_kautz_gossip(sk).transmission_count());

  // Timing skew stretches the critical path on the async engine.
  sim::SimConfig skewed;
  skewed.engine = sim::Engine::kAsync;
  skewed.timing.profile = sim::SkewProfile::kConstant;
  skewed.timing.tuning_ticks = 512;
  skewed.timing.propagation_ticks = 128;
  run = run_workload(net, gossip(), skewed);
  EXPECT_GT(run.metrics.makespan_slots, bound);
  EXPECT_EQ(run.metrics.backlog, 0);
}

TEST(ScheduleWorkloadTest, SkewedUncontendedMakespanMatchesHandDerivation) {
  // An independent reference for skewed closed loops, derived by hand
  // from the async timing rules (T = kTicksPerSlot = 1024 ticks, guard
  // 0, constant tuning tau, propagation p). Every scheduled packet is
  // one hop on a coupler no other packet of its wave wants:
  //  - a packet polled at slot I enters its VOQ at tick I*T, ready at
  //    I*T + tau, so it first wins at slot I + a, a = ceil(tau / T);
  //  - a winner of slot t lands at (t+1)*T + p, which the receive step
  //    of boundary t + 1 + ceil(p / T) sees; the next wave is polled at
  //    that same boundary;
  //  - the re-tune gate (t+1)*T + tau never binds: a VOQ's next packet
  //    enters no earlier than that landing boundary, so its own tuning
  //    ends no earlier than the re-tune.
  // Each wave therefore takes L = a + 1 + ceil(p / T) slots, a packet's
  // latency is L, and K waves finish at boundary K * L: makespan and
  // slots are K * L (POPS one-to-all K = 1, SK(4,3,2) one-to-all K = 2).
  struct Case {
    sim::SimTime tuning, propagation;
    std::int64_t wave_slots;  // L
  };
  const Case cases[] = {
      {1024, 0, 2},     // tau = one slot: a = 1, c = 0
      {256, 3072, 5},   // a = 1, c = 3
      {0, 512, 2},      // gates open: a = 0, c = 1
      {1, 2049, 5},     // a = 1, c = 3 (one tick past two slots)
      // Both delays past 1024 slots, the engine's slot-wheel depth cap:
      // tau = 1025 T + 1 gives a = 1026, p = 1100 T + 5 gives c = 1101.
      {1049601, 1126405, 2128},
  };
  hypergraph::Pops pops(6, 12);
  hypergraph::StackKautz sk(4, 3, 2);
  const Net pops_net = make_net(pops);
  const Net sk_net = make_net(sk);
  struct Topology {
    const char* name;
    const Net& net;
    std::function<std::unique_ptr<Workload>()> make;
    std::int64_t waves;  // K
  };
  const Topology topologies[] = {
      {"POPS(6,12)", pops_net,
       [&] {
         return schedule_workload(pops.stack(),
                                  collectives::pops_one_to_all(pops, 0));
       },
       1},
      {"SK(4,3,2)", sk_net,
       [&] {
         return schedule_workload(sk.stack(),
                                  collectives::stack_kautz_one_to_all(sk, 0));
       },
       2},
  };
  for (const Topology& topo : topologies) {
    for (const Case& c : cases) {
      const std::int64_t makespan = topo.waves * c.wave_slots;
      sim::SimConfig config;
      config.arbitration = sim::Arbitration::kTokenRoundRobin;
      config.timing.profile = sim::SkewProfile::kConstant;
      config.timing.tuning_ticks = c.tuning;
      config.timing.propagation_ticks = c.propagation;
      std::vector<std::pair<sim::Engine, int>> runs = {
          {sim::Engine::kAsync, 1}};
      // The thousand-slot case runs one-slot closed-loop windows; three
      // thread counts keep it quick.
      const std::vector<int> thread_counts =
          c.wave_slots > 1000 ? std::vector<int>{1, 3, 8}
                              : std::vector<int>{1, 2, 3, 5, 8};
      for (const int threads : thread_counts) {
        runs.emplace_back(sim::Engine::kAsyncSharded, threads);
      }
      for (const auto& [engine, threads] : runs) {
        SCOPED_TRACE(std::string(topo.name) + " tau=" +
                     std::to_string(c.tuning) + " p=" +
                     std::to_string(c.propagation) + " " +
                     sim::engine_name(engine) + "/t=" +
                     std::to_string(threads));
        config.engine = engine;
        config.threads = threads;
        std::unique_ptr<Workload> load = topo.make();
        const std::int64_t packets = load->packet_count();
        const WorkloadRun run = run_workload(topo.net, std::move(load), config);
        EXPECT_EQ(run.metrics.makespan_slots, makespan);
        EXPECT_EQ(run.metrics.slots, makespan);
        EXPECT_EQ(run.metrics.delivered_packets, packets);
        EXPECT_EQ(run.metrics.coupler_transmissions, packets);
        EXPECT_EQ(run.metrics.collisions, 0);
        EXPECT_EQ(run.metrics.backlog, 0);
        EXPECT_EQ(run.metrics.latency.max(), c.wave_slots);
        EXPECT_DOUBLE_EQ(run.metrics.latency.mean(),
                         static_cast<double>(c.wave_slots));
      }
    }
  }
}

// ------------------------------------------------ cross-engine parity

/// Runs `make_load` beside each background load on every engine, route
/// table and thread count and checks each run against the serial phased
/// reference.
template <class MakeLoad>
void expect_workload_parity(const Net& net, const MakeLoad& make_load,
                            std::initializer_list<double> backgrounds) {
  for (sim::Arbitration arbitration : kAllPolicies) {
    for (double background : backgrounds) {
      sim::SimConfig config;
      config.arbitration = arbitration;
      config.seed = 99;
      const WorkloadRun reference =
          run_workload(net, make_load(), config, background);
      EXPECT_EQ(reference.metrics.backlog, 0);
      for (const bool compressed : {false, true}) {
        {
          sim::SimConfig async_config = config;
          async_config.engine = sim::Engine::kAsync;
          const WorkloadRun run = run_workload(net, make_load(), async_config,
                                               background, compressed);
          expect_identical(reference.metrics, run.metrics);
          EXPECT_EQ(reference.coupler_success, run.coupler_success);
        }
        for (const int threads : {1, 2, 3, 5, 8}) {
          sim::SimConfig sharded = config;
          sharded.engine = sim::Engine::kSharded;
          sharded.threads = threads;
          const WorkloadRun run = run_workload(net, make_load(), sharded,
                                               background, compressed);
          expect_identical(reference.metrics, run.metrics);
          EXPECT_EQ(reference.coupler_success, run.coupler_success);
        }
        if (compressed) {
          const WorkloadRun run = run_workload(net, make_load(), config,
                                               background,
                                               /*compressed=*/true);
          expect_identical(reference.metrics, run.metrics);
          EXPECT_EQ(reference.coupler_success, run.coupler_success);
        }
      }
    }
  }
}

TEST(WorkloadParityTest, BitIdenticalAcrossEnginesTablesAndThreads) {
  hypergraph::StackKautz sk(4, 3, 2);
  expect_workload_parity(
      make_net(sk),
      [&] {
        return std::shared_ptr<Workload>(schedule_workload(
            sk.stack(), collectives::stack_kautz_gossip(sk)));
      },
      {0.0, 0.4});
  // BSP beside background traffic puts relays from couplers of several
  // shards into one VOQ in the same slot: a receive that pushed them in
  // any order but coupler order diverges here.
  expect_workload_parity(
      make_net(sk),
      [&] {
        return std::shared_ptr<Workload>(
            bsp_exchange(sk.processor_count(), 4, 1));
      },
      {0.2});
  // POPS(4,2): every coupler is fed by a whole group, so the 8 nodes
  // have only one legal feed-local cut. At 5 and 8 threads most shards
  // are empty, yet they join every barrier and the run must still end
  // bit-identical.
  hypergraph::Pops pops(4, 2);
  expect_workload_parity(
      make_net(pops),
      [&] {
        return std::shared_ptr<Workload>(
            schedule_workload(pops.stack(), collectives::pops_gossip(pops)));
      },
      {0.0, 0.4});
}

// --------------------------------------------------- synthetic kernels

TEST(KernelTest, BspExchangeRunsPhaseBarriers) {
  hypergraph::Pops pops(4, 6);  // 24 nodes
  const Net net = make_net(pops);
  auto bsp = bsp_exchange(pops.processor_count(), /*phases=*/3);
  EXPECT_EQ(bsp->packet_count(), 3 * 24);
  const WorkloadRun run = run_workload(net, std::move(bsp), {});
  EXPECT_EQ(run.metrics.delivered_packets, 3 * 24);
  EXPECT_EQ(run.metrics.backlog, 0);
  // Phase barriers: at least one slot per phase.
  EXPECT_GE(run.metrics.makespan_slots, 3);
}

TEST(KernelTest, ReduceTreeRespectsDepth) {
  hypergraph::StackKautz sk(4, 3, 2);  // 48 nodes
  const Net net = make_net(sk);
  auto reduce = reduce_tree(sk.processor_count(), /*arity=*/2, /*root=*/5);
  EXPECT_EQ(reduce->packet_count(), 47);
  const WorkloadRun run = run_workload(net, std::move(reduce), {});
  EXPECT_EQ(run.metrics.delivered_packets, 47);
  EXPECT_EQ(run.metrics.backlog, 0);
  // A binary tree over 48 ranks is 5 levels deep; interior sends wait
  // for their children, so the makespan is at least the depth.
  EXPECT_GE(run.metrics.makespan_slots, 5);
}

TEST(KernelTest, GatherIncastCompletes) {
  hypergraph::Pops pops(4, 6);
  const Net net = make_net(pops);
  auto gather = gather_incast(pops.processor_count(), /*root=*/0);
  EXPECT_EQ(gather->packet_count(), 23);
  const WorkloadRun run = run_workload(net, std::move(gather), {});
  EXPECT_EQ(run.metrics.delivered_packets, 23);
  EXPECT_EQ(run.metrics.backlog, 0);
  // 23 packets squeeze into the root's group couplers: real incast
  // serialization, well above the 1-slot uncontended latency.
  EXPECT_GT(run.metrics.makespan_slots, 1);
}

// --------------------------------------------------------- validation

TEST(WorkloadConfigTest, RejectsUnsupportedConfigurations) {
  hypergraph::Pops pops(4, 6);
  auto routes = std::make_shared<const routing::CompiledRoutes>(
      routing::compile_pops_routes(pops));
  const auto make = [&](sim::SimConfig config) {
    config.workload = gather_incast(pops.processor_count(), 0);
    sim::OpsNetworkSim sim(
        pops.stack(), routes,
        std::make_unique<sim::UniformTraffic>(pops.processor_count(), 0.0),
        config);
  };
  {
    sim::SimConfig config;
    config.engine = sim::Engine::kEventQueue;
    EXPECT_THROW(make(config), core::Error);  // no delivery feedback
  }
  {
    sim::SimConfig config;
    config.queue_capacity = 8;
    EXPECT_THROW(make(config), core::Error);  // drops would deadlock
  }
  {
    // Node-count mismatch.
    sim::SimConfig config;
    config.workload = gather_incast(7, 0);
    EXPECT_THROW(
        sim::OpsNetworkSim(
            pops.stack(), routes,
            std::make_unique<sim::UniformTraffic>(pops.processor_count(),
                                                  0.0),
            config),
        core::Error);
  }
}

TEST(WorkloadMetricsTest, MakespanFlowsIntoSweepPoint) {
  sim::RunMetrics metrics;
  metrics.slots = 10;
  metrics.makespan_slots = 7;
  const sim::SweepPoint point =
      sim::SweepPoint::from_trial(metrics, 0.0, 24, 36);
  EXPECT_DOUBLE_EQ(point.makespan, 7.0);
  sim::SweepPoint other = point;
  other.makespan = 9.0;
  sim::SweepPoint merged = point;
  merged.merge(other);
  EXPECT_DOUBLE_EQ(merged.makespan, 8.0);
  EXPECT_GT(merged.makespan_stddev, 0.0);
  EXPECT_EQ(merged.trials, 2);
}

// -------------------------------------------------------------- traces

TEST(TraceTest, RecorderIsCanonicalAcrossEngines) {
  hypergraph::StackKautz sk(4, 3, 2);
  auto routes = std::make_shared<const routing::CompiledRoutes>(
      routing::compile_stack_kautz_routes(sk));
  const auto record = [&](sim::Engine engine) {
    auto recorder =
        std::make_shared<TraceRecorder>(sk.processor_count());
    sim::SimConfig config;
    config.warmup_slots = 0;
    config.measure_slots = 100;
    config.seed = 5;
    config.engine = engine;
    config.recorder = recorder;
    sim::OpsNetworkSim sim(
        sk.stack(), routes,
        std::make_unique<sim::UniformTraffic>(sk.processor_count(), 0.5),
        config);
    sim.run();
    return recorder->trace();
  };
  const Trace phased = record(sim::Engine::kPhased);
  EXPECT_GT(phased.entries.size(), 0u);
  phased.validate();
  // The async engine consumes the same RNG stream in its slot-aligned
  // limit, so its recorded trace is the identical object.
  EXPECT_EQ(phased, record(sim::Engine::kAsync));
  // The sharded engine is a different (equally valid) universe but its
  // trace is still canonical.
  const auto sharded = record(sim::Engine::kSharded);
  sharded.validate();
}

TEST(TraceTest, SerializationRoundTripsExactly) {
  Trace trace;
  trace.nodes = 24;
  trace.entries = {{0, 3, 7}, {0, 5, 1}, {2, 0, 23}, {2, 3, 4}, {9, 5, 0}};
  trace.validate();
  TempFile binary("otis_trace_test.bin");
  TempFile jsonl("otis_trace_test.jsonl");
  trace.save_binary(binary.path);
  trace.save_jsonl(jsonl.path);
  EXPECT_EQ(Trace::load(binary.path), trace);
  EXPECT_EQ(Trace::load(jsonl.path), trace);
}

TEST(TraceTest, MalformedTracesAreRejected) {
  // Out-of-range node.
  Trace bad;
  bad.nodes = 4;
  bad.entries = {{0, 1, 9}};
  EXPECT_THROW(bad.validate(), core::Error);
  // Non-monotone generation slots.
  bad.entries = {{3, 0, 1}, {1, 0, 1}};
  EXPECT_THROW(bad.validate(), core::Error);
  // Duplicate (slot, source).
  bad.entries = {{1, 0, 1}, {1, 0, 2}};
  EXPECT_THROW(bad.validate(), core::Error);
  // Source == destination.
  bad.entries = {{0, 2, 2}};
  EXPECT_THROW(bad.validate(), core::Error);

  // Truncated binary file: chop the last 8 bytes off a valid trace.
  Trace good;
  good.nodes = 4;
  good.entries = {{0, 0, 1}, {1, 2, 3}};
  TempFile file("otis_trace_truncated.bin");
  good.save_binary(file.path);
  const auto full_size = std::filesystem::file_size(file.path);
  std::filesystem::resize_file(file.path, full_size - 8);
  EXPECT_THROW(Trace::load(file.path), core::Error);
  // A JSONL header announcing more entries than the file holds.
  TempFile jsonl("otis_trace_truncated.jsonl");
  {
    std::ofstream out(jsonl.path);
    out << "{\"nodes\": 4, \"entries\": 3}\n"
        << "{\"slot\": 0, \"src\": 0, \"dst\": 1}\n";
  }
  EXPECT_THROW(Trace::load(jsonl.path), core::Error);
}

TEST(TraceTest, ReplayIsBitIdenticalAcrossEnginesAndThreads) {
  hypergraph::StackKautz sk(4, 3, 2);
  auto routes = std::make_shared<const routing::CompiledRoutes>(
      routing::compile_stack_kautz_routes(sk));
  // Record a uniform run on the phased engine.
  auto recorder = std::make_shared<TraceRecorder>(sk.processor_count());
  {
    sim::SimConfig config;
    config.warmup_slots = 0;
    config.measure_slots = 120;
    config.seed = 17;
    config.recorder = recorder;
    sim::OpsNetworkSim sim(
        sk.stack(), routes,
        std::make_unique<sim::UniformTraffic>(sk.processor_count(), 0.4),
        config);
    sim.run();
  }
  const Trace trace = recorder->trace();
  ASSERT_GT(trace.entries.size(), 0u);

  const Net net = make_net(sk);
  const auto replay = [&](sim::Engine engine, int threads, bool compressed) {
    sim::SimConfig config;
    config.engine = engine;
    config.threads = threads;
    config.seed = 17;
    return run_workload(net, std::make_shared<TraceWorkload>(trace), config,
                        0.0, compressed);
  };
  const WorkloadRun reference = replay(sim::Engine::kPhased, 1, false);
  EXPECT_EQ(reference.metrics.delivered_packets,
            static_cast<std::int64_t>(trace.entries.size()));
  EXPECT_EQ(reference.metrics.backlog, 0);
  for (const bool compressed : {false, true}) {
    for (const int threads : {1, 2, 3, 5, 8}) {
      const WorkloadRun run =
          replay(sim::Engine::kSharded, threads, compressed);
      expect_identical(reference.metrics, run.metrics);
      EXPECT_EQ(reference.coupler_success, run.coupler_success);
    }
    const WorkloadRun async_run = replay(sim::Engine::kAsync, 1, compressed);
    expect_identical(reference.metrics, async_run.metrics);
    EXPECT_EQ(reference.coupler_success, async_run.coupler_success);
  }
}

TEST(TraceTest, ReplayIgnoresMeasureSlotsAndRunsToCompletion) {
  // A trace whose generation slots extend far beyond measure_slots
  // must still replay fully: workload runs have no fixed window.
  hypergraph::Pops pops(4, 6);
  const Net net = make_net(pops);
  Trace trace;
  trace.nodes = pops.processor_count();
  trace.entries = {{0, 0, 6}, {50, 3, 9}, {400, 11, 2}};
  const WorkloadRun run =
      run_workload(net, std::make_shared<TraceWorkload>(trace), {});
  EXPECT_EQ(run.metrics.delivered_packets, 3);
  EXPECT_EQ(run.metrics.backlog, 0);
  EXPECT_GE(run.metrics.makespan_slots, 401);
}

}  // namespace
}  // namespace otis::workload
