#include "campaign/grid.hpp"

#include <limits>
#include <sstream>
#include <unordered_set>

#include "core/error.hpp"
#include "core/mathutil.hpp"
#include "core/table.hpp"

namespace otis::campaign {

std::string cell_id(const TopologySpec& topology,
                    sim::Arbitration arbitration, const TrafficSpec& traffic,
                    double load, std::int64_t wavelengths,
                    sim::RouteTable routes, const sim::TimingConfig& timing,
                    const WorkloadSpec& workload, std::uint64_t seed) {
  std::ostringstream os;
  os << topology.label() << "|" << sim::arbitration_name(arbitration) << "|"
     << traffic.label() << "|load="
     << core::format_double(load, 6) << "|w=" << wavelengths
     << "|routes=" << sim::route_table_name(routes)
     << "|timing=" << timing.label()
     << "|workload=" << workload.label() << "|seed=" << seed;
  return os.str();
}

std::vector<CampaignCell> expand_grid(const CampaignSpec& spec) {
  spec.validate();
  std::vector<CampaignCell> cells;
  cells.reserve(static_cast<std::size_t>(spec.cell_count()));
  std::int64_t index = 0;
  for (std::size_t t = 0; t < spec.topologies.size(); ++t) {
    // Execution knobs are per topology: spec defaults, then every
    // matching override layered in order (later entries win per field).
    // A pinned route table replaces the whole routes axis for that
    // topology -- its cells collapse to the one pinned value.
    sim::Engine engine = spec.engine;
    int engine_threads = spec.engine_threads;
    std::vector<sim::RouteTable> route_axis = spec.route_tables;
    for (const CellOverride& override : spec.overrides) {
      if (override.topology != spec.topologies[t].label()) {
        continue;
      }
      if (override.engine) {
        engine = *override.engine;
      }
      if (override.engine_threads) {
        engine_threads = *override.engine_threads;
      }
      if (override.route_table) {
        route_axis.assign(1, *override.route_table);
      }
    }
    for (sim::Arbitration arbitration : spec.arbitrations) {
      for (const TrafficSpec& traffic : spec.traffics) {
        for (double load : spec.loads) {
          for (std::int64_t w : spec.wavelengths) {
            for (sim::RouteTable routes : route_axis) {
              for (const sim::TimingConfig& timing : spec.timings) {
                for (const WorkloadSpec& workload : spec.workloads) {
                  for (std::uint64_t seed : spec.seeds) {
                    CampaignCell cell;
                    cell.index = index++;
                    cell.id =
                        cell_id(spec.topologies[t], arbitration, traffic,
                                load, w, routes, timing, workload, seed);
                    cell.topology = t;
                    cell.arbitration = arbitration;
                    cell.traffic = traffic;
                    cell.load = load;
                    cell.wavelengths = w;
                    cell.routes = routes;
                    cell.timing = timing;
                    cell.workload = workload;
                    cell.seed = seed;
                    // Sub-slot skew needs timed events: such cells run
                    // on an async engine whatever the spec-level engine
                    // is -- the parallel one when the spec asked for a
                    // parallel engine, so skewed cells stop serializing
                    // sharded campaigns.
                    cell.engine =
                        timing.is_slot_aligned()
                            ? engine
                            : (engine == sim::Engine::kSharded ||
                                       engine == sim::Engine::kAsyncSharded
                                   ? sim::Engine::kAsyncSharded
                                   : sim::Engine::kAsync);
                    cell.engine_threads = engine_threads;
                    cells.push_back(std::move(cell));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  // IDs are what the manifest keys on; a collision (e.g. loads closer
  // than the ID's 6-decimal formatting, or a repeated axis value) would
  // make resume silently drop cells, so refuse the grid instead.
  std::unordered_set<std::string> ids;
  ids.reserve(cells.size());
  for (const CampaignCell& cell : cells) {
    OTIS_REQUIRE(ids.insert(cell.id).second,
                 "expand_grid: duplicate cell ID " + cell.id +
                     " (axis values too close or repeated)");
  }
  return cells;
}

std::int64_t cell_weight(const CampaignSpec& spec, const CampaignCell& cell,
                         std::int64_t topology_cells) {
  constexpr std::int64_t kSaturated = std::numeric_limits<std::int64_t>::max();
  const TopologySpec& topology = spec.topologies[cell.topology];
  const std::int64_t nodes = topology.processor_count();
  // Skewed cells run the async loop, whose landing replays, gate wheel
  // and tick arithmetic cost roughly 2.5x a
  // phased slot; per-level skew spreads the delays further (wider
  // windows, longer in-flight tails), another half step. Slot-aligned
  // cells stay on the phased-loop baseline of 1.
  double factor = 1.0;
  if (!cell.timing.is_slot_aligned()) {
    factor = cell.timing.profile == sim::SkewProfile::kPerLevel ? 3.0 : 2.5;
  }
  const double run = factor * static_cast<double>(core::saturating_mul(
                                  nodes, core::saturating_add(
                                             spec.warmup_slots,
                                             spec.measure_slots)));
  // Route compile in router evaluations: O(G^2) for the group-factored
  // table, O(N^2) for the dense one. At SK(12,20,3) the gap is four
  // orders of magnitude, and a shard holding one dense cell must be
  // charged for it.
  const std::int64_t side = sim::resolve_route_table(cell.routes, nodes) ==
                                    sim::RouteTable::kCompressed
                                ? nodes / topology.stacking
                                : nodes;
  const std::int64_t compile = core::saturating_mul(side, side);
  // 2^63 is the first double past INT64_MAX; a saturated compile cost is
  // no longer a count, so it is not shared out.
  return core::saturating_add(
      run >= 0x1p63 ? kSaturated : static_cast<std::int64_t>(run),
      compile == kSaturated ? compile : compile / topology_cells);
}

}  // namespace otis::campaign
