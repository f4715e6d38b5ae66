// Benchmark driver: measures one campaign workload in this process.
//
//   otis_perfbench --spec SPEC.json [--spec SPEC.json ...] --out DIR
//                  --threads P --seconds T [--trace]
//   otis_perfbench --rss --spec SPEC.json --out DIR --threads P
//
// The specs are generated by run.py from the workload name and seed; this
// program only receives them. A workload is one or more campaigns (its
// parts), run one after another in every round. The program repeats
// measurement rounds until T seconds have passed (at least kMinRounds
// rounds) and prints one JSON object with every raw sample, each tagged
// with its round and part; run.py turns the samples into medians.
//
// A round without --trace runs each part twice, in alternating order:
//  - "campaign": parse + CampaignRunner::run with its file sinks, exactly
//    what campaign_runner does -> wall_s;
//  - "direct": the same cells driven through the pieces the runner is
//    made of (parse_campaign_spec, expand_grid, CompiledTopology::build,
//    OpsNetworkSim on a WorkStealingPool), which exposes setup time and
//    per-cell run time that the runner does not report.
// With --trace a round instead runs an untraced campaign, a campaign with
// the runtime-stats channel on, a campaign without checkpoints (when the
// spec has them) and a direct pass whose calls into topology, routing,
// sim and workload are each timed here. The Chrome-trace sink stays off:
// it would switch checkpoints off and change the work being measured.
//
// With --rss the program runs one campaign of its spec and reports the
// peak resident set, so run.py can read each part's peak in a fresh
// process.
//
// Every pass reduces each cell's simulated statistics to a digest row and
// checks range invariants on it; run.py compares the digests across
// passes and against the recorded reference.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/work_pool.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "obs/runtime_stats.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "sim/ops_network.hpp"
#include "sim/traffic.hpp"
#include "workload/kernels.hpp"
#include "workload/workload.hpp"

namespace {

namespace fs = std::filesystem;
using otis::campaign::CampaignCell;
using otis::campaign::CampaignSpec;
using otis::campaign::TopologySpec;
using Clock = std::chrono::steady_clock;

/// Fewer rounds than this cannot give a median that one slow round on a
/// shared host does not move.
constexpr int kMinRounds = 3;

/// Host time of repeated set-ups to sample per direct pass, and a cap on
/// their number.
constexpr double kSetupSampleS = 0.05;
constexpr std::size_t kMaxSetupSamples = 64;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  OTIS_REQUIRE(in.good(), "perfbench: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ------------------------------------------------------------ output check

/// FNV-1a 64 over a row's bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One cell's simulated outcome, as every pass sees it.
struct CellCheck {
  std::string digest;  ///< FNV-1a of the cell's simulated result columns
  std::string failure;  ///< empty when every invariant holds
};

/// What a pass saw of a closed-loop cell's workload object.
struct WorkloadSeen {
  std::int64_t packets = -1;    ///< packet_count(); -1 for open loop
  std::int64_t delivered = -1;  ///< delivered() calls; -1 if not observed
  bool done = true;             ///< done() after the run
};

/// Digest of the simulated columns of one cell plus its range checks.
CellCheck check_cell(const CampaignCell& cell, std::int64_t nodes,
                     std::int64_t couplers, const otis::sim::RunMetrics& m,
                     const WorkloadSeen& load) {
  const otis::sim::LatencyStats& lat = m.latency;
  std::ostringstream row;
  row.precision(17);
  row << cell.id << '|' << m.slots << '|' << m.offered_packets << '|'
      << m.delivered_packets << '|' << m.dropped_packets << '|'
      << m.collisions << '|' << m.coupler_transmissions << '|' << m.backlog
      << '|' << m.makespan_slots << '|' << lat.count() << '|' << lat.mean()
      << '|' << lat.percentile(0.0) << '|' << lat.percentile(0.5) << '|'
      << lat.percentile(0.95) << '|' << lat.max();
  CellCheck check;
  check.digest = hex64(fnv1a(row.str()));

  auto fail = [&](const std::string& why) {
    if (check.failure.empty()) {
      check.failure = cell.id + ": " + why;
    }
  };
  auto fraction = [&](const char* name, double value) {
    if (!(value >= 0.0 && value <= 1.0)) {
      fail(std::string(name) + " = " + std::to_string(value) +
           " outside [0, 1]");
    }
  };
  if (m.interrupted) {
    fail("run interrupted");
  }
  if (m.slots <= 0) {
    fail("no measured slots");
  }
  if (m.delivered_packets > 0 && (lat.percentile(0.0) < 1 || lat.mean() < 1.0)) {
    fail("latency below one slot");
  }
  const double slot_couplers =
      static_cast<double>(couplers) * static_cast<double>(m.slots);
  // A node injects at most one packet per slot, so its delivered rate
  // is a fraction too; delivered/offered is not (packets offered in
  // warmup are delivered inside the window) and is left out.
  fraction("throughput_per_node", m.throughput_per_node(nodes));
  fraction("coupler_utilization_per_wavelength",
           static_cast<double>(m.coupler_transmissions) /
               (slot_couplers * static_cast<double>(cell.wavelengths)));
  fraction("collisions_per_coupler_slot",
           static_cast<double>(m.collisions) / slot_couplers);
  if (m.coupler_transmissions + m.collisions > 0) {
    fraction("tx_success",
             static_cast<double>(m.coupler_transmissions) /
                 static_cast<double>(m.coupler_transmissions + m.collisions));
  }
  if (load.packets >= 0) {
    // Closed loop: the run ends drained; background packets count in
    // delivered, so the workload's own packets are checked through its
    // delivered() callbacks where the path can observe them.
    if (m.backlog != 0) {
      fail("closed loop ended with backlog " + std::to_string(m.backlog));
    }
    if (m.delivered_packets != m.offered_packets) {
      fail("closed loop delivered != offered");
    }
    if (m.delivered_packets < load.packets) {
      fail("closed loop delivered fewer packets than the workload holds");
    }
    if (load.delivered >= 0 && load.delivered != load.packets) {
      fail("workload saw " + std::to_string(load.delivered) +
           " deliveries of " + std::to_string(load.packets));
    }
    if (!load.done) {
      fail("workload not done");
    }
    if (m.makespan_slots <= 0) {
      fail("closed loop without makespan");
    }
  }
  return check;
}

/// Closed-loop packet count of a cell, -1 for open-loop cells.
std::int64_t workload_packets(const CampaignCell& cell, std::int64_t nodes) {
  using otis::campaign::WorkloadKind;
  switch (cell.workload.kind) {
    case WorkloadKind::kNone:
      return -1;
    case WorkloadKind::kBsp:
      return otis::workload::bsp_exchange(nodes, cell.workload.phases,
                                          cell.workload.shift)
          ->packet_count();
    default:
      break;
  }
  throw otis::core::Error("perfbench: workload kind " +
                          cell.workload.label() + " is not benchmarked");
}

/// Digests + failures of one pass, in cell expansion order.
struct PassChecks {
  std::vector<std::string> digests;
  std::vector<double> failed_cells;  ///< expansion indices
  std::vector<std::string> failures;

  void add(const CellCheck& check) {
    if (!check.failure.empty()) {
      failed_cells.push_back(static_cast<double>(digests.size()));
      failures.push_back(check.failure);
    }
    digests.push_back(check.digest);
  }
};

/// Closed-loop packet count of every cell (-1 for open loop), worked out
/// once, outside the timed passes.
std::vector<std::int64_t> packets_by_cell(const CampaignSpec& spec) {
  std::vector<std::int64_t> packets;
  std::map<std::size_t, std::int64_t> per_topology;
  for (const CampaignCell& cell : otis::campaign::expand_grid(spec)) {
    if (cell.workload.kind == otis::campaign::WorkloadKind::kNone) {
      packets.push_back(-1);
      continue;
    }
    auto [it, fresh] = per_topology.try_emplace(cell.topology, -1);
    if (fresh) {
      it->second = workload_packets(
          cell, spec.topologies[cell.topology].processor_count());
    }
    packets.push_back(it->second);
  }
  return packets;
}

/// Campaign sink that checks every cell the runner emits.
class CheckSink final : public otis::campaign::ResultSink {
 public:
  explicit CheckSink(const std::vector<std::int64_t>& packets)
      : packets_(packets) {}

  void consume(const otis::campaign::CellResult& r) override {
    WorkloadSeen load;
    load.packets = packets_.at(static_cast<std::size_t>(r.cell.index));
    checks.add(check_cell(r.cell, r.nodes, r.couplers, r.metrics, load));
  }

  PassChecks checks;

 private:
  const std::vector<std::int64_t>& packets_;
};

// ------------------------------------------------------------ workload layer

/// Forwarding decorator around a closed-loop workload: counts the
/// engine's calls and, when `timed`, the host time spent inside them.
class ObservedWorkload final : public otis::workload::Workload {
 public:
  ObservedWorkload(std::unique_ptr<otis::workload::Workload> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  [[nodiscard]] std::int64_t packet_count() const override {
    return inner_->packet_count();
  }
  [[nodiscard]] std::int64_t node_count() const override {
    return inner_->node_count();
  }
  void reset() override { inner_->reset(); }
  void poll(std::int64_t slot,
            std::vector<otis::workload::WorkloadPacket>& out) override {
    ++polls;
    if (!timed_) {
      inner_->poll(slot, out);
      return;
    }
    const auto t0 = Clock::now();
    inner_->poll(slot, out);
    poll_s += seconds_since(t0);
  }
  void delivered(std::int64_t id) override {
    ++deliveries;
    if (!timed_) {
      inner_->delivered(id);
      return;
    }
    const auto t0 = Clock::now();
    inner_->delivered(id);
    delivered_s += seconds_since(t0);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }

  std::int64_t polls = 0;
  std::int64_t deliveries = 0;
  double poll_s = 0.0;
  double delivered_s = 0.0;

 private:
  std::unique_ptr<otis::workload::Workload> inner_;
  bool timed_;
};

// ------------------------------------------------------------ direct pass

/// A topology built for the direct pass. Holds the network object the
/// tables and simulators refer to.
struct BuiltTopology {
  std::shared_ptr<const void> owner;
  const otis::hypergraph::StackGraph* stack = nullptr;
  std::int64_t nodes = 0;
  std::int64_t couplers = 0;
  std::shared_ptr<const otis::routing::CompiledRoutes> dense;
  std::shared_ptr<const otis::routing::CompressedRoutes> compressed;
};

/// Which table representations each topology's cells resolve to (the
/// runner compiles exactly these).
std::map<std::size_t, std::pair<bool, bool>> table_needs(
    const CampaignSpec& spec, const std::vector<CampaignCell>& cells) {
  std::map<std::size_t, std::pair<bool, bool>> needs;
  for (const CampaignCell& cell : cells) {
    auto& [dense, compressed] = needs[cell.topology];
    const otis::sim::RouteTable resolved = otis::sim::resolve_route_table(
        cell.routes, spec.topologies[cell.topology].processor_count());
    (resolved == otis::sim::RouteTable::kCompressed ? compressed : dense) =
        true;
  }
  return needs;
}

/// Through the campaign API: one CompiledTopology::build call.
BuiltTopology build_campaign(const TopologySpec& spec, bool dense,
                             bool compressed, otis::core::WorkStealingPool& pool) {
  auto topo =
      otis::campaign::CompiledTopology::build(spec, dense, compressed, &pool);
  BuiltTopology built;
  built.stack = &topo->stack();
  built.nodes = topo->processor_count();
  built.couplers = topo->coupler_count();
  built.dense = topo->routes();
  built.compressed = topo->compressed_routes();
  built.owner = std::move(topo);
  return built;
}

/// Layer by layer, timing the hypergraph construction and the route
/// compile apart (what CompiledTopology::build does in one call).
struct LayerTimes {
  double topology_build_s = 0.0;
  double routing_compile_s = 0.0;
  double table_bytes = 0.0;
};

template <typename MakeFn, typename DenseFn, typename CompressFn>
BuiltTopology build_layers(MakeFn make, DenseFn compile_dense,
                           CompressFn compress,
                           bool dense, bool compressed,
                           otis::core::WorkStealingPool& pool,
                           LayerTimes& times) {
  auto t0 = Clock::now();
  auto network = make();
  times.topology_build_s += seconds_since(t0);
  BuiltTopology built;
  built.stack = &network->stack();
  built.nodes = network->processor_count();
  built.couplers = network->coupler_count();
  t0 = Clock::now();
  if (dense) {
    built.dense = std::make_shared<const otis::routing::CompiledRoutes>(
        compile_dense(*network, &pool));
  }
  if (compressed) {
    built.compressed = std::make_shared<const otis::routing::CompressedRoutes>(
        compress(*network, &pool));
  }
  times.routing_compile_s += seconds_since(t0);
  times.table_bytes += static_cast<double>(
      (built.dense ? built.dense->memory_bytes() : 0) +
      (built.compressed ? built.compressed->memory_bytes() : 0));
  built.owner = std::move(network);
  return built;
}

BuiltTopology build_traced(const TopologySpec& spec, bool dense,
                           bool compressed, otis::core::WorkStealingPool& pool,
                           LayerTimes& times) {
  namespace hg = otis::hypergraph;
  namespace rt = otis::routing;
  switch (spec.kind) {
    case TopologySpec::Kind::kStackKautz:
      return build_layers(
          [&] {
            return std::make_shared<hg::StackKautz>(
                spec.stacking, static_cast<int>(spec.degree),
                static_cast<int>(spec.order));
          },
          rt::compile_stack_kautz_routes, rt::compress_stack_kautz_routes,
          dense, compressed, pool, times);
    case TopologySpec::Kind::kPops:
      return build_layers(
          [&] { return std::make_shared<hg::Pops>(spec.stacking, spec.order); },
          rt::compile_pops_routes, rt::compress_pops_routes, dense, compressed,
          pool, times);
    case TopologySpec::Kind::kStackImaseItoh:
      return build_layers(
          [&] {
            return std::make_shared<hg::StackImaseItoh>(
                spec.stacking, static_cast<int>(spec.degree), spec.order);
          },
          rt::compile_stack_imase_itoh_routes,
          rt::compress_stack_imase_itoh_routes, dense, compressed, pool, times);
  }
  throw otis::core::Error("perfbench: unknown topology kind");
}

/// The runner's per-cell simulator configuration (simulate_cell), built
/// here so the direct pass simulates exactly what the campaign does.
otis::sim::SimConfig cell_config(const CampaignSpec& spec,
                                 const CampaignCell& cell,
                                 const std::string& checkpoint_path) {
  otis::sim::SimConfig config;
  config.arbitration = cell.arbitration;
  config.warmup_slots = spec.warmup_slots;
  config.measure_slots = spec.measure_slots;
  config.queue_capacity = spec.queue_capacity;
  config.seed = cell.seed;
  config.wavelengths = cell.wavelengths;
  config.engine = cell.engine;
  config.threads = cell.engine_threads;
  config.timing = cell.timing;
  config.latency_mode = spec.latency_stats;
  if (!checkpoint_path.empty() && spec.checkpoint_every > 0 &&
      cell.workload.kind == otis::campaign::WorkloadKind::kNone) {
    config.checkpoint_every_slots = spec.checkpoint_every;
    config.checkpoint_path = checkpoint_path;
  }
  return config;
}

std::unique_ptr<otis::sim::OpsNetworkSim> make_sim(
    const CampaignCell& cell, const BuiltTopology& topo,
    otis::sim::SimConfig config) {
  OTIS_REQUIRE(cell.traffic.kind == otis::campaign::TrafficKind::kUniform,
               "perfbench: only uniform traffic is benchmarked");
  auto traffic =
      std::make_unique<otis::sim::UniformTraffic>(topo.nodes, cell.load);
  if (otis::sim::resolve_route_table(cell.routes, topo.nodes) ==
      otis::sim::RouteTable::kCompressed) {
    return std::make_unique<otis::sim::OpsNetworkSim>(
        *topo.stack, topo.compressed, std::move(traffic), std::move(config));
  }
  return std::make_unique<otis::sim::OpsNetworkSim>(
      *topo.stack, topo.dense, std::move(traffic), std::move(config));
}

/// Simulated slots the engine stepped through for one cell.
std::int64_t simulated_slots(const CampaignSpec& spec, const CampaignCell& cell,
                             const otis::sim::RunMetrics& m) {
  return cell.workload.kind == otis::campaign::WorkloadKind::kNone
             ? spec.warmup_slots + spec.measure_slots
             : m.slots;
}

struct DirectPass {
  /// parse + topology/route build + first simulator, once per set-up
  std::vector<double> setup_s;
  double construct_s = 0.0;  ///< every simulator construction, summed
  double run_wall_s = 0.0;   ///< the cell fan-out, wall clock
  double task_s = 0.0;       ///< fan-out task time, summed over cells
  std::vector<double> cell_s;  ///< per-cell sim.run(), expansion order
  std::int64_t slots = 0;
  std::int64_t delivered = 0;
  std::int64_t coupler_tx = 0;
  std::int64_t collisions = 0;
  int workers = 0;  ///< pool workers that could run a cell at once
  // Trace-only layers.
  LayerTimes layers;
  otis::sim::PhaseBreakdown phases;
  std::int64_t polls = 0;
  double poll_s = 0.0;
  double delivered_s = 0.0;
  PassChecks checks;
};

DirectPass run_direct(const std::string& spec_text, int threads,
                      const fs::path& out_dir, bool traced) {
  DirectPass pass;
  otis::core::WorkStealingPool pool(threads);
  fs::create_directories(out_dir);
  CampaignSpec spec;
  std::vector<CampaignCell> cells;
  std::map<std::size_t, BuiltTopology> topologies;
  std::vector<std::unique_ptr<otis::sim::OpsNetworkSim>> sims;
  std::vector<std::shared_ptr<ObservedWorkload>> loads;
  std::vector<otis::sim::PhaseBreakdown> breakdowns;
  std::vector<double> construct_s;
  auto construct = [&](std::size_t i) {
    const CampaignCell& cell = cells[i];
    const BuiltTopology& topo = topologies.at(cell.topology);
    otis::sim::SimConfig config = cell_config(
        spec, cell,
        (out_dir / ("cell-" + std::to_string(cell.index) + ".ckpt")).string());
    if (cell.workload.kind != otis::campaign::WorkloadKind::kNone) {
      OTIS_REQUIRE(cell.workload.kind == otis::campaign::WorkloadKind::kBsp,
                   "perfbench: only bsp workloads are benchmarked");
      loads[i] = std::make_shared<ObservedWorkload>(
          otis::workload::bsp_exchange(topo.nodes, cell.workload.phases,
                                       cell.workload.shift),
          traced);
      config.workload = loads[i];
    }
    if (traced) {
      config.phase_breakdown = &breakdowns[i];
    }
    const auto c0 = Clock::now();
    sims[i] = make_sim(cell, topo, std::move(config));
    construct_s[i] = seconds_since(c0);
  };

  // Set-up is repeated until kSetupSampleS of it has been timed, so that
  // a millisecond set-up still gives a steady median; the last one runs.
  // The traced pass sets up once, as its layer timers accumulate.
  double timed_s = 0.0;
  do {
    sims.clear();
    loads.clear();
    topologies.clear();
    const auto t0 = Clock::now();
    spec = otis::campaign::parse_campaign_spec(spec_text);
    cells = otis::campaign::expand_grid(spec);
    for (const auto& [index, need] : table_needs(spec, cells)) {
      topologies[index] =
          traced ? build_traced(spec.topologies[index], need.first,
                                need.second, pool, pass.layers)
                 : build_campaign(spec.topologies[index], need.first,
                                  need.second, pool);
    }
    const std::size_t n = cells.size();
    sims.resize(n);
    loads.assign(n, nullptr);
    breakdowns.assign(n, otis::sim::PhaseBreakdown{});
    construct_s.assign(n, 0.0);
    if (n > 0) {
      construct(0);
    }
    pass.setup_s.push_back(seconds_since(t0));
    timed_s += pass.setup_s.back();
  } while (!traced && timed_s < kSetupSampleS &&
           pass.setup_s.size() < kMaxSetupSamples);

  // Each task reduces its cell to scalars and a digest once the timed
  // run is over, so no cell's latency samples outlive its task (as in the
  // runner, which emits and drops results as they finish).
  struct Outcome {
    double task_s = 0.0;  ///< construct + run + check
    std::int64_t slots = 0;
    std::int64_t delivered = 0;
    std::int64_t coupler_tx = 0;
    std::int64_t collisions = 0;
    CellCheck check;
  };
  const std::size_t n = cells.size();
  std::vector<Outcome> outcomes(n);
  pass.cell_s.assign(n, 0.0);
  const auto r0 = Clock::now();
  pool.run(n, [&](std::size_t i) {
    const auto t0 = Clock::now();
    if (i > 0) {
      construct(i);
    }
    const auto c0 = Clock::now();
    const otis::sim::RunMetrics m = sims[i]->run();
    pass.cell_s[i] = seconds_since(c0);
    sims[i].reset();
    const CampaignCell& cell = cells[i];
    const BuiltTopology& topo = topologies.at(cell.topology);
    WorkloadSeen load;
    if (loads[i] != nullptr) {
      load = {loads[i]->packet_count(), loads[i]->deliveries,
              loads[i]->done()};
    }
    Outcome& out = outcomes[i];
    out.check = check_cell(cell, topo.nodes, topo.couplers, m, load);
    out.slots = simulated_slots(spec, cell, m);
    out.delivered = m.delivered_packets;
    out.coupler_tx = m.coupler_transmissions;
    out.collisions = m.collisions;
    out.task_s = seconds_since(t0);
  });
  pass.run_wall_s = seconds_since(r0);
  pass.workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(pool.thread_count()), n));

  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& out = outcomes[i];
    pass.task_s += out.task_s;
    pass.construct_s += construct_s[i];
    pass.slots += out.slots;
    pass.delivered += out.delivered;
    pass.coupler_tx += out.coupler_tx;
    pass.collisions += out.collisions;
    pass.phases.slots += breakdowns[i].slots;
    pass.phases.generate_seconds += breakdowns[i].generate_seconds;
    pass.phases.arbitrate_seconds += breakdowns[i].arbitrate_seconds;
    pass.phases.receive_seconds += breakdowns[i].receive_seconds;
    if (loads[i] != nullptr) {
      pass.polls += loads[i]->polls;
      pass.poll_s += loads[i]->poll_s;
      pass.delivered_s += loads[i]->delivered_s;
    }
    pass.checks.add(out.check);
  }
  fs::remove_all(out_dir);
  return pass;
}

// ------------------------------------------------------------ campaign pass

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

/// Returns the heap freed so far to the system, then resets this
/// process's VmHWM to its current resident set, so that the next
/// peak_rss_mib() reads the peak of what ran in between. Without
/// /proc/self/clear_refs the peak stays process-lifetime.
void reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

struct CampaignPass {
  double parse_s = 0.0;
  double wall_s = 0.0;
  PassChecks checks;
  std::string runtime_path;  ///< runtime.jsonl when the channel was on
};

/// What campaign_runner does: parse, run with the file sinks into
/// `out_dir`, flush. `edit` may change the parsed spec (trace variants).
CampaignPass run_campaign(const std::string& spec_text,
                          const std::vector<std::int64_t>& packets,
                          int threads, const fs::path& out_dir,
                          const std::function<void(CampaignSpec&)>& edit = {}) {
  fs::remove_all(out_dir);
  CampaignPass pass;
  auto check = std::make_shared<CheckSink>(packets);
  const auto t0 = Clock::now();
  CampaignSpec spec = otis::campaign::parse_campaign_spec(spec_text);
  pass.parse_s = seconds_since(t0);
  if (edit) {
    edit(spec);
  }
  if (!spec.runtime_stats_path.empty()) {
    pass.runtime_path = (out_dir / spec.runtime_stats_path).string();
  }
  otis::campaign::CampaignRunner runner(std::move(spec));
  runner.add_sink(check);
  otis::campaign::CampaignOptions options;
  options.threads = threads;
  options.out_dir = out_dir.string();
  const otis::campaign::CampaignReport report = runner.run(options);
  pass.wall_s = seconds_since(t0);
  OTIS_REQUIRE(report.completed_cells == report.total_cells,
               "perfbench: campaign left cells unfinished");
  pass.checks = std::move(check->checks);
  return pass;
}

/// Sums over the runtime channel's raw rows (runtime.jsonl). They add
/// across the parts of a workload; run.py forms the ratios.
struct RuntimeRows {
  double work_ns = 0.0;
  double wait_ns = 0.0;
  double busy_ns = 0.0;
  double worker_wall_ns = 0.0;
  double pool_steals = 0.0;
  double imbalance_sum = 0.0;  ///< Σ over sharded cells of peak / mean work
  double sharded_cells = 0.0;
  double windows = 0.0;
  double lookahead_used = 0.0;
  double lookahead_available = 0.0;
  double mailbox_msgs = 0.0;
  double mailbox_bytes = 0.0;
  double calendar_peak = 0.0;
};

/// Reads `shard` and `workers` rows. A cell's imbalance is its slowest
/// shard's work over its mean shard work; like the barrier wait share it
/// comes from work_ns/barrier_wait_ns directly, not from the cell_summary
/// blame.
RuntimeRows read_runtime_rows(const std::string& path) {
  RuntimeRows rows;
  std::ifstream in(path);
  OTIS_REQUIRE(in.good(), "perfbench: cannot read " + path);
  std::map<std::string, std::vector<double>> work_by_cell;
  std::map<std::string, double> windows_by_cell;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const otis::core::Json row = otis::core::Json::parse(line);
    const std::string type = row.at("type").as_string();
    if (type == "shard") {
      const std::string cell = row.at("cell").as_string();
      const double work = row.at("work_ns").as_number();
      work_by_cell[cell].push_back(work);
      rows.work_ns += work;
      rows.wait_ns += row.at("barrier_wait_ns").as_number();
      double& windows = windows_by_cell[cell];
      windows = std::max(windows, row.at("windows").as_number());
      rows.lookahead_used += row.at("lookahead_used").as_number();
      rows.lookahead_available += row.at("lookahead_available").as_number();
      rows.mailbox_msgs += row.at("mailbox_msgs_sent").as_number();
      rows.mailbox_bytes += row.at("mailbox_bytes_sent").as_number();
      rows.calendar_peak =
          std::max(rows.calendar_peak, row.at("calendar_peak").as_number());
    } else if (type == "workers") {
      rows.busy_ns += row.at("busy_ns").as_number();
      rows.worker_wall_ns += row.at("wall_ns").as_number();
      rows.pool_steals += row.at("steals").as_number();
    }
  }
  for (const auto& [cell, works] : work_by_cell) {
    double sum = 0.0, peak = 0.0;
    for (const double w : works) {
      sum += w;
      peak = std::max(peak, w);
    }
    if (sum > 0.0) {
      rows.imbalance_sum += peak * static_cast<double>(works.size()) / sum;
      rows.sharded_cells += 1.0;
    }
  }
  for (const auto& [cell, windows] : windows_by_cell) {
    rows.windows += windows;
  }
  return rows;
}

/// Size of the first checkpoint blob of cell 0: the run stops right
/// after writing it (the SimConfig drill hook) and leaves it on disk.
double first_blob_bytes(const std::string& spec_text, int threads,
                        const fs::path& out_dir) {
  const CampaignSpec spec = otis::campaign::parse_campaign_spec(spec_text);
  const std::vector<CampaignCell> cells = otis::campaign::expand_grid(spec);
  otis::core::WorkStealingPool pool(threads);
  const auto needs = table_needs(spec, cells);
  const auto& [dense, compressed] = needs.at(cells.front().topology);
  const BuiltTopology topo = build_campaign(
      spec.topologies[cells.front().topology], dense, compressed, pool);
  fs::create_directories(out_dir);
  const fs::path blob = out_dir / "drill.ckpt";
  otis::sim::SimConfig config =
      cell_config(spec, cells.front(), blob.string());
  config.checkpoint_stop_at = spec.checkpoint_every;
  auto sim = make_sim(cells.front(), topo, std::move(config));
  (void)sim->run();
  const double bytes = static_cast<double>(fs::file_size(blob));
  fs::remove_all(out_dir);
  return bytes;
}

// ------------------------------------------------------------ reporting

/// Minimal JSON object writer for the sample dump.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonOut& nums(const std::string& key, const std::vector<double>& vs) {
    std::string text = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", vs[i]);
      text += buf;
    }
    return raw(key, text + "]");
  }
  JsonOut& strs(const std::string& key, const std::vector<std::string>& vs) {
    std::string text = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      text += (i ? ",\"" : "\"") + escaped(vs[i]) + "\"";
    }
    return raw(key, text + "]");
  }
  JsonOut& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + escaped(v) + "\"");
  }
  JsonOut& checks(const PassChecks& c) {
    return strs("digests", c.digests)
        .nums("failed_cells", c.failed_cells)
        .strs("failures", c.failures);
  }
  JsonOut& raw(const std::string& key, const std::string& value) {
    text_ += (text_.empty() ? "{\"" : ",\"") + key + "\":" + value;
    return *this;
  }
  [[nodiscard]] std::string done() const { return text_ + "}"; }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
    return out;
  }
  std::string text_;
};

std::string direct_json(const char* kind, int round, int part,
                        const DirectPass& p) {
  JsonOut out;
  out.str("pass", kind)
      .num("round", round)
      .num("part", part)
      .nums("setup_s", p.setup_s)
      .num("construct_s", p.construct_s)
      .num("run_wall_s", p.run_wall_s)
      .num("task_s", p.task_s)
      .nums("cell_s", p.cell_s)
      .num("slots", static_cast<double>(p.slots))
      .num("delivered", static_cast<double>(p.delivered))
      .num("coupler_tx", static_cast<double>(p.coupler_tx))
      .num("collisions", static_cast<double>(p.collisions))
      .num("workers", p.workers)
      .num("topology_build_s", p.layers.topology_build_s)
      .num("routing_compile_s", p.layers.routing_compile_s)
      .num("table_bytes", p.layers.table_bytes)
      .num("phase_slots", static_cast<double>(p.phases.slots))
      .num("generate_s", p.phases.generate_seconds)
      .num("arbitrate_s", p.phases.arbitrate_seconds)
      .num("receive_s", p.phases.receive_seconds)
      .num("polls", static_cast<double>(p.polls))
      .num("poll_s", p.poll_s)
      .num("delivered_s", p.delivered_s)
      .checks(p.checks);
  return out.done();
}

std::string campaign_json(const char* kind, int round, int part,
                          const CampaignPass& p) {
  JsonOut out;
  out.str("pass", kind)
      .num("round", round)
      .num("part", part)
      .num("parse_s", p.parse_s)
      .num("wall_s", p.wall_s)
      .checks(p.checks);
  if (!p.runtime_path.empty()) {
    const RuntimeRows r = read_runtime_rows(p.runtime_path);
    out.num("work_ns", r.work_ns)
        .num("wait_ns", r.wait_ns)
        .num("busy_ns", r.busy_ns)
        .num("worker_wall_ns", r.worker_wall_ns)
        .num("pool_steals", r.pool_steals)
        .num("imbalance_sum", r.imbalance_sum)
        .num("sharded_cells", r.sharded_cells)
        .num("windows", r.windows)
        .num("lookahead_used", r.lookahead_used)
        .num("lookahead_available", r.lookahead_available)
        .num("mailbox_msgs", r.mailbox_msgs)
        .num("mailbox_bytes", r.mailbox_bytes)
        .num("calendar_peak", r.calendar_peak);
  }
  return out.done();
}

struct Args {
  std::vector<std::string> spec_paths;
  fs::path out_dir;
  int threads = 1;
  double seconds = 10.0;
  bool trace = false;
  bool rss = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      OTIS_REQUIRE(i + 1 < argc, "perfbench: " + flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--spec") {
      args.spec_paths.push_back(value());
    } else if (flag == "--out") {
      args.out_dir = value();
    } else if (flag == "--threads") {
      args.threads = std::stoi(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--rss") {
      args.rss = true;
    } else {
      throw otis::core::Error("perfbench: unknown flag " + flag);
    }
  }
  OTIS_REQUIRE(!args.spec_paths.empty() && !args.out_dir.empty(),
               "perfbench: --spec and --out are required");
  OTIS_REQUIRE(args.threads >= 1, "perfbench: --threads must be >= 1");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    /// One campaign of the workload.
    struct Part {
      std::string text;
      CampaignSpec spec;
      std::vector<std::int64_t> packets;
    };
    std::vector<Part> parts;
    for (const std::string& path : args.spec_paths) {
      Part part;
      part.text = read_file(path);
      part.spec = otis::campaign::parse_campaign_spec(part.text);
      part.packets = packets_by_cell(part.spec);
      parts.push_back(std::move(part));
    }
    const fs::path out = args.out_dir;
    if (args.rss) {
      // One campaign of the first part in this fresh process: its peak
      // resident set, without heap that other passes left behind.
      reset_peak_rss();
      const CampaignPass pass = run_campaign(
          parts.front().text, parts.front().packets, args.threads, out / "c");
      const double rss_mib = peak_rss_mib();
      fs::remove_all(out);
      JsonOut result;
      result.num("peak_rss_mib", rss_mib)
          .raw("passes", "[" + campaign_json("campaign_rss", 0, 0, pass) + "]");
      std::cout << result.done() << std::endl;
      return 0;
    }
    std::vector<std::string> passes;
    int rounds = 0;
    auto campaign = [&](int k, const char* kind, const char* dir,
                        const std::function<void(CampaignSpec&)>& edit) {
      const Part& part = parts[static_cast<std::size_t>(k)];
      const CampaignPass pass =
          run_campaign(part.text, part.packets, args.threads, out / dir, edit);
      passes.push_back(campaign_json(kind, rounds, k, pass));
    };
    auto direct = [&](int k, const char* kind, bool traced) {
      passes.push_back(direct_json(
          kind, rounds, k,
          run_direct(parts[static_cast<std::size_t>(k)].text, args.threads,
                     out / "d", traced)));
    };
    const auto start = Clock::now();
    // Rounds continue while another one is expected to end in time.
    while (rounds < kMinRounds ||
           seconds_since(start) * (rounds + 1) / rounds <= args.seconds) {
      for (int k = 0; k < static_cast<int>(parts.size()); ++k) {
        if (!args.trace) {
          // Alternate the order so neither pass always runs on a cache
          // the other warmed.
          const bool campaign_first = rounds % 2 == 0;
          if (campaign_first) {
            campaign(k, "campaign", "c", {});
          }
          direct(k, "direct", false);
          if (!campaign_first) {
            campaign(k, "campaign", "c", {});
          }
          continue;
        }
        campaign(k, "campaign", "c", {});
        campaign(k, "campaign_traced", "t", [](CampaignSpec& s) {
          s.runtime_stats_path = "runtime.jsonl";
        });
        if (parts[static_cast<std::size_t>(k)].spec.checkpoint_every > 0) {
          campaign(k, "campaign_no_checkpoint", "n",
                   [](CampaignSpec& s) { s.checkpoint_every = 0; });
        }
        direct(k, "direct_traced", true);
      }
      ++rounds;
    }
    double blob_bytes = 0.0;
    if (args.trace) {
      for (const Part& part : parts) {
        if (part.spec.checkpoint_every > 0) {
          blob_bytes = first_blob_bytes(part.text, args.threads, out / "drill");
          break;
        }
      }
    }
    fs::remove_all(out);

    JsonOut result;
    std::string joined = "[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      joined += (i ? "," : "") + passes[i];
    }
    result.num("rounds", rounds)
        .num("parts", static_cast<double>(parts.size()))
        .num("threads", args.threads)
        .num("measured_s", seconds_since(start))
        .num("blob_bytes", blob_bytes)
        .str("compiler", __VERSION__)
        .raw("passes", joined + "]");
    std::cout << result.done() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "otis_perfbench: " << e.what() << "\n";
    return 1;
  }
}
