// fault_injection: demonstrates the fault-tolerant routing the paper
// inherits from Imase-Soneoka-Okada [17]: on KG(d,k), up to d-1 node
// faults leave a route of length <= k+2, computable from labels alone.
//
// Kills random processors-groups, routes across the surviving network,
// and reports path-length inflation and how often the label-computable
// detour candidates sufficed (vs. the BFS fallback).
//
// Usage: fault_injection [--d=3] [--k=3] [--faults=2] [--trials=500]
//                        [--seed=7]

#include <iostream>

#include "core/args.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "routing/fault_tolerant.hpp"
#include "topology/kautz.hpp"

namespace {

int run(int argc, char** argv) {
  otis::core::Args args(argc, argv, {"d", "k", "faults", "trials", "seed"});
  const int d = static_cast<int>(args.get_int("d", 3));
  const int k = static_cast<int>(args.get_int("k", 3));
  const int faults = static_cast<int>(args.get_int("faults", d - 1));
  const int trials = static_cast<int>(args.get_int("trials", 500));
  otis::core::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));

  otis::topology::Kautz kautz(d, k);
  otis::routing::FaultTolerantKautzRouter router(kautz);
  std::cout << "fault-tolerant routing on KG(" << d << "," << k << ") ("
            << kautz.order() << " nodes, diameter " << k << ")\n"
            << "injecting " << faults << " node faults per trial, " << trials
            << " trials\n"
            << "claim (paper Sec. 2.5 / ref [17]): with <= d-1 = " << d - 1
            << " faults, a route of length <= k+2 = " << k + 2
            << " survives\n\n";

  std::int64_t within_bound = 0;
  std::int64_t label_only = 0;
  std::int64_t bfs_fallback = 0;
  std::int64_t disconnected = 0;
  std::int64_t worst = 0;
  double total_length = 0;
  std::int64_t routed = 0;

  for (int trial = 0; trial < trials; ++trial) {
    auto picks = rng.sample_without_replacement(
        static_cast<std::size_t>(kautz.order()),
        static_cast<std::size_t>(faults) + 2);
    const std::int64_t source = static_cast<std::int64_t>(picks[0]);
    const std::int64_t target = static_cast<std::int64_t>(picks[1]);
    std::vector<std::int64_t> faulty(picks.begin() + 2, picks.end());
    auto route = router.route_avoiding(source, target, faulty);
    if (!route) {
      ++disconnected;
      continue;
    }
    const std::int64_t length =
        static_cast<std::int64_t>(route->path.size()) - 1;
    ++routed;
    total_length += static_cast<double>(length);
    worst = std::max(worst, length);
    within_bound += length <= k + 2 ? 1 : 0;
    if (route->used_bfs_fallback) {
      ++bfs_fallback;
    } else {
      ++label_only;
    }
  }

  otis::core::Table table({"metric", "value"});
  table.add("routes found", routed);
  table.add("disconnected pairs", disconnected);
  table.add("within k+2 bound", within_bound);
  table.add("label-computable detour sufficed", label_only);
  table.add("needed BFS fallback", bfs_fallback);
  table.add("mean route length", routed ? total_length / routed : 0.0);
  table.add("worst route length", worst);
  table.print(std::cout);

  if (faults <= d - 1 && (disconnected > 0 || within_bound != routed)) {
    std::cerr << "\nUNEXPECTED: the k+2 / d-1 guarantee was violated\n";
    return 1;
  }
  std::cout << "\nguarantee held on every trial\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return otis::core::run_main(argc, argv, run);
}
