// collective_ops: broadcast and gossip on the paper's networks, showing
// the one-to-many power of multi-OPS couplers slot by slot.
//
// Usage: collective_ops [--network=sk|pops] [--s=6] [--d=3] [--k=2]
//                       [--t=4] [--g=3] [--root=0]

#include <iostream>

#include "collectives/pops_collectives.hpp"
#include "collectives/schedule.hpp"
#include "collectives/stack_kautz_collectives.hpp"
#include "core/args.hpp"
#include "core/table.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_kautz.hpp"

namespace {

/// Prints how knowledge spreads slot by slot.
void narrate(const otis::hypergraph::StackGraph& network,
             const otis::collectives::SlotSchedule& schedule,
             otis::hypergraph::Node root) {
  otis::collectives::Knowledge knowledge =
      otis::collectives::initial_knowledge(network.node_count());
  otis::core::Table table(
      {"slot", "transmissions", "nodes knowing root's token"});
  auto count_informed = [&] {
    std::int64_t informed = 0;
    for (const auto& known : knowledge) {
      informed += known[static_cast<std::size_t>(root)] ? 1 : 0;
    }
    return informed;
  };
  table.add(std::string("start"), std::string("-"), count_informed());
  for (std::size_t i = 0; i < schedule.slots.size(); ++i) {
    otis::collectives::SlotSchedule one;
    one.slots.push_back(schedule.slots[i]);
    knowledge = otis::collectives::run_schedule(network, one,
                                                std::move(knowledge));
    table.add(static_cast<std::int64_t>(i + 1),
              static_cast<std::int64_t>(schedule.slots[i].size()),
              count_informed());
  }
  table.print(std::cout);
}

int run(int argc, char** argv) {
  otis::core::Args args(argc, argv,
                        {"network", "s", "d", "k", "t", "g", "root"});
  const std::string kind = args.get("network", "sk");
  const otis::hypergraph::Node root = args.get_int("root", 0);

  if (kind == "pops") {
    otis::hypergraph::Pops pops(args.get_int("t", 4), args.get_int("g", 3));
    std::cout << "one-to-all on POPS(" << pops.group_size() << ","
              << pops.group_count() << "), root " << root << ":\n";
    narrate(pops.stack(), otis::collectives::pops_one_to_all(pops, root),
            root);
    auto gossip = otis::collectives::pops_gossip(pops);
    auto after = otis::collectives::run_schedule(
        pops.stack(), gossip,
        otis::collectives::initial_knowledge(pops.processor_count()));
    std::cout << "\ngossip: " << gossip.slot_count() << " slots, "
              << gossip.transmission_count() << " transmissions, complete: "
              << (otis::collectives::gossip_complete(after) ? "yes" : "NO")
              << "\n";
    return 0;
  }

  otis::hypergraph::StackKautz sk(args.get_int("s", 6),
                                  static_cast<int>(args.get_int("d", 3)),
                                  static_cast<int>(args.get_int("k", 2)));
  std::cout << "one-to-all on SK(" << sk.stacking_factor() << ","
            << sk.kautz_degree() << "," << sk.diameter() << "), root "
            << root << " (diameter " << sk.diameter() << " = slot count):\n";
  narrate(sk.stack(), otis::collectives::stack_kautz_one_to_all(sk, root),
          root);
  auto gossip = otis::collectives::stack_kautz_gossip(sk);
  auto after = otis::collectives::run_schedule(
      sk.stack(), gossip,
      otis::collectives::initial_knowledge(sk.processor_count()));
  std::cout << "\ngossip: " << gossip.slot_count() << " slots (s + k), "
            << gossip.transmission_count() << " transmissions, complete: "
            << (otis::collectives::gossip_complete(after) ? "yes" : "NO")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return otis::core::run_main(argc, argv, run);
}
