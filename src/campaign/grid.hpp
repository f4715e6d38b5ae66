#pragma once
/// \file grid.hpp
/// Expansion of a CampaignSpec into its concrete cells.
///
/// Cells are enumerated in a fixed nesting order -- topology, then
/// arbitration, traffic, load, wavelengths, routes, timing, workload,
/// then seed (innermost) -- and
/// each carries a canonical string ID derived from its parameters alone.
/// The ID, not the linear index, is what the manifest records, so a
/// finished cell stays recognized even if later spec edits append axis
/// values. Sinks emit in expansion order regardless of which worker
/// finished first, which is what makes campaign output bit-identical
/// across thread counts.

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace otis::campaign {

/// One (topology, arbitration, traffic, load, wavelengths, routes,
/// timing, workload, seed) grid point, plus the execution knobs
/// resolved from the spec defaults and any matching CellOverride
/// (engine / engine_threads are *how*, not *what*, and stay out of the
/// ID like the spec-level engine does -- except that non-slot-aligned
/// timing forces the async engine, the only engine that can honour it).
struct CampaignCell {
  std::int64_t index = 0;      ///< position in expansion order
  std::string id;              ///< canonical ID, see cell_id()
  std::size_t topology = 0;    ///< index into CampaignSpec::topologies
  sim::Arbitration arbitration = sim::Arbitration::kTokenRoundRobin;
  TrafficSpec traffic;
  double load = 0.0;
  std::int64_t wavelengths = 1;
  sim::RouteTable routes = sim::RouteTable::kAuto;
  sim::TimingConfig timing;
  WorkloadSpec workload;       ///< closed-loop driver; kNone = open loop
  std::uint64_t seed = 1;
  sim::Engine engine = sim::Engine::kPhased;  ///< resolved execution engine
  int engine_threads = 1;                     ///< threads for kSharded cells
};

/// Canonical cell ID:
///   "<topology>|<arbitration>|<traffic>|load=<l>|w=<W>|routes=<r>|"
///   "timing=<t>|workload=<wl>|seed=<s>"
/// with the load fixed to 6 decimals so the ID is reproducible;
/// traffic, timing and workload use their canonical labels (shape
/// values included).
[[nodiscard]] std::string cell_id(const TopologySpec& topology,
                                  sim::Arbitration arbitration,
                                  const TrafficSpec& traffic, double load,
                                  std::int64_t wavelengths,
                                  sim::RouteTable routes,
                                  const sim::TimingConfig& timing,
                                  const WorkloadSpec& workload,
                                  std::uint64_t seed);

/// Expands the validated spec into cells (spec.cell_count() of them).
[[nodiscard]] std::vector<CampaignCell> expand_grid(const CampaignSpec& spec);

/// Estimated work of one cell, for balancing shards by work rather than
/// cell count: nodes x simulated slots x the timing profile's per-slot
/// cost factor, plus the cell's share of its topology's route compile
/// (shared by the `topology_cells` cells on that topology). Closed-loop
/// cells run to completion, so their window is a lower bound. Saturates
/// at INT64_MAX for topologies too large to simulate instead of
/// overflowing.
[[nodiscard]] std::int64_t cell_weight(const CampaignSpec& spec,
                                       const CampaignCell& cell,
                                       std::int64_t topology_cells);

}  // namespace otis::campaign
