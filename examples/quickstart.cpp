// quickstart: the five-minute tour of otisnet.
//
// Builds the paper's worked example SK(6,3,2) -- 72 processors in 12
// groups wired along the Kautz graph KG(3,2) -- then:
//   1. prints its parameters,
//   2. generates the complete OTIS-based optical design and verifies it
//      by tracing every lightpath,
//   3. routes a packet with Kautz label (self-)routing,
//   4. simulates uniform traffic and reports throughput/latency.
//
// Usage: quickstart [--s=6] [--d=3] [--k=2] [--load=0.2] [--seed=1]

#include <cstdio>
#include <iostream>
#include <memory>

#include "core/args.hpp"
#include "core/table.hpp"
#include "designs/builders.hpp"
#include "designs/verify.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/stack_routing.hpp"
#include "sim/ops_network.hpp"
#include "topology/kautz.hpp"

namespace {

int run(int argc, char** argv) {
  otis::core::Args args(argc, argv, {"s", "d", "k", "load", "seed"});
  const std::int64_t s = args.get_int("s", 6);
  const int d = static_cast<int>(args.get_int("d", 3));
  const int k = static_cast<int>(args.get_int("k", 2));
  const double load = args.get_double("load", 0.2);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));

  // --- 1. The abstract network -------------------------------------
  otis::hypergraph::StackKautz sk(s, d, k);
  std::cout << "stack-Kautz network SK(" << s << "," << d << "," << k
            << ")\n"
            << "  processors : " << sk.processor_count() << " (" << "groups "
            << sk.group_count() << " x " << s << ")\n"
            << "  degree     : " << sk.processor_degree()
            << " couplers per processor\n"
            << "  couplers   : " << sk.coupler_count() << " OPS of degree "
            << s << "\n"
            << "  diameter   : " << sk.diameter() << " hops\n\n";

  // --- 2. The optical design (Sec. 4.2 of the paper) ----------------
  otis::designs::NetworkDesign design = otis::designs::stack_kautz_design(
      s, d, k);
  otis::designs::VerificationResult verification =
      otis::designs::verify_design(design);
  std::cout << "optical design \"" << design.name << "\"\n  "
            << otis::designs::bill_of_materials(design.netlist).to_string()
            << "\n  verified: " << (verification.ok ? "yes" : "NO") << " ("
            << verification.lightpaths << " lightpaths traced, max loss "
            << otis::core::format_double(verification.max_loss_db, 2)
            << " dB)\n\n";
  if (!verification.ok) {
    std::cerr << "verification failed: " << verification.details << "\n";
    return 1;
  }

  // --- 3. Label routing ---------------------------------------------
  otis::routing::StackKautzRouter router(sk);
  const otis::hypergraph::Node src = sk.processor(0, 0);
  const otis::hypergraph::Node dst =
      sk.processor(sk.group_count() - 1, s - 1);
  const otis::topology::Kautz& kautz = sk.kautz();
  std::cout << "route (" << sk.group_of(src) << "," << sk.index_in_group(src)
            << ") -> (" << sk.group_of(dst) << "," << sk.index_in_group(dst)
            << ")  [group words "
            << otis::topology::Kautz::word_to_string(
                   kautz.word_of(sk.group_of(src)))
            << " -> "
            << otis::topology::Kautz::word_to_string(
                   kautz.word_of(sk.group_of(dst)))
            << "]\n";
  for (const otis::routing::StackHop& hop : router.route(src, dst)) {
    std::cout << "  processor " << hop.sender << " --coupler " << hop.coupler
              << "--> processor " << hop.relay << " (group word "
              << otis::topology::Kautz::word_to_string(
                     kautz.word_of(sk.group_of(hop.relay)))
              << ")\n";
  }
  std::cout << "\n";

  // --- 4. Simulation -------------------------------------------------
  // The label router is compiled into dense tables once; the phased slot
  // engine (default) then never touches a callback on the hot path.
  otis::sim::SimConfig config;
  config.seed = seed;
  config.warmup_slots = 500;
  config.measure_slots = 5000;
  otis::sim::OpsNetworkSim sim(
      sk.stack(), otis::routing::compile_stack_kautz_routes(sk),
      std::make_unique<otis::sim::UniformTraffic>(sk.processor_count(), load),
      config);
  otis::sim::RunMetrics metrics = sim.run();

  otis::core::Table table({"metric", "value"});
  table.add("offered load (pkt/node/slot)", load);
  table.add("throughput (pkt/node/slot)",
            metrics.throughput_per_node(sk.processor_count()));
  table.add("mean latency (slots)", metrics.latency.mean());
  table.add("p95 latency (slots)",
            static_cast<double>(metrics.latency.percentile(0.95)));
  table.add("coupler utilization",
            metrics.coupler_utilization(sk.coupler_count()));
  table.add("packets delivered", metrics.delivered_packets);
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return otis::core::run_main(argc, argv, run);
}
