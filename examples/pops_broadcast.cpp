// pops_broadcast: one-to-many communication on POPS(t, g) -- the
// operation multi-OPS networks exist for (paper Sec. 1: "messages sent by
// the processors can be broadcast to all outputs of the OPS couplers").
//
// Shows (a) a single-slot group broadcast through one coupler, (b) a
// g-slot one-to-all broadcast (the source transmits on each of its g
// couplers once), and (c) simulates an all-to-all exchange and reports
// how the single-wavelength constraint serializes it.
//
// Usage: pops_broadcast [--t=4] [--g=3] [--seed=3]

#include <iostream>
#include <memory>
#include <set>

#include "core/args.hpp"
#include "core/table.hpp"
#include "hypergraph/pops.hpp"
#include "routing/compiled_routes.hpp"
#include "sim/ops_network.hpp"

namespace {

int run(int argc, char** argv) {
  otis::core::Args args(argc, argv, {"t", "g", "seed"});
  const std::int64_t t = args.get_int("t", 4);
  const std::int64_t g = args.get_int("g", 3);

  otis::hypergraph::Pops pops(t, g);
  const auto& hg = pops.stack().hypergraph();
  std::cout << "POPS(" << t << "," << g << "): " << pops.processor_count()
            << " processors, " << pops.coupler_count()
            << " couplers of degree " << t << "\n\n";

  // (a) One coupler transmission reaches a whole group at once.
  const otis::hypergraph::Node source = pops.processor(0, 0);
  const otis::hypergraph::HyperarcId coupler = pops.coupler(0, g - 1);
  const auto& arc = hg.hyperarc(coupler);
  std::cout << "slot 1: processor " << source << " sends on coupler (0,"
            << g - 1 << "); heard by processors";
  for (otis::hypergraph::Node v : arc.targets) {
    std::cout << " " << v;
  }
  std::cout << "  -- " << t << " deliveries in one slot\n";

  // (b) One-to-all: the source uses each of its g couplers once.
  std::set<otis::hypergraph::Node> reached;
  std::int64_t slots = 0;
  for (otis::hypergraph::HyperarcId h : hg.out_hyperarcs(source)) {
    ++slots;
    for (otis::hypergraph::Node v : hg.hyperarc(h).targets) {
      reached.insert(v);
    }
  }
  std::cout << "one-to-all broadcast: " << slots
            << " coupler transmissions reach " << reached.size() << "/"
            << pops.processor_count() << " processors";
  // A processor with g transmitters statically tuned to its g couplers
  // can fire them all in the SAME slot: broadcast latency 1.
  std::cout << " (1 slot with per-coupler transmitters, " << g
            << " slots with a single tunable transmitter)\n\n";

  // (c) Saturation all-to-all under token arbitration.
  otis::sim::SimConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  config.warmup_slots = 200;
  config.measure_slots = 3000;
  otis::sim::OpsNetworkSim sim(
      pops.stack(), otis::routing::compile_pops_routes(pops),
      std::make_unique<otis::sim::SaturationTraffic>(pops.processor_count()),
      config);
  otis::sim::RunMetrics m = sim.run();

  otis::core::Table table({"saturation metric", "value"});
  table.add("throughput (pkt/node/slot)",
            m.throughput_per_node(pops.processor_count()));
  table.add("aggregate throughput (pkt/slot)",
            m.throughput_per_node(pops.processor_count()) *
                static_cast<double>(pops.processor_count()));
  table.add("coupler utilization", m.coupler_utilization(g * g));
  table.add("theoretical cap (pkt/slot)", static_cast<double>(g * g));
  table.print(std::cout);
  std::cout << "\nthe g^2 = " << g * g
            << " single-wavelength couplers bound the exchange; utilization"
               " near 1.0 means the schedule is optimal\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return otis::core::run_main(argc, argv, run);
}
