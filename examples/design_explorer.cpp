// design_explorer: sweep the network families of the paper and print the
// hardware/performance trade-off table a system architect would use to
// pick one -- processors, transceivers per node, couplers, OTIS blocks,
// diameter and per-hop optical loss, for POPS, stack-Kautz,
// stack-Imase-Itoh, point-to-point Kautz (Corollary 1) and the baselines.
//
// Usage: design_explorer [--max-n=600]

#include <iostream>

#include "core/args.hpp"
#include "core/table.hpp"
#include "designs/builders.hpp"
#include "designs/verify.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "optics/power.hpp"
#include "topology/kautz.hpp"

namespace {

struct Row {
  std::string family;
  std::int64_t processors;
  std::int64_t tx_per_node;
  std::int64_t couplers;
  std::int64_t otis_blocks;
  std::int64_t diameter;
  double max_loss_db;
  bool verified;
};

Row measure(const std::string& family, otis::designs::NetworkDesign design,
            std::int64_t diameter) {
  otis::designs::VerificationResult v = otis::designs::verify_design(design);
  otis::designs::BillOfMaterials bom =
      otis::designs::bill_of_materials(design.netlist);
  return Row{family,
             design.processor_count,
             design.processor_count > 0
                 ? bom.transmitters / design.processor_count
                 : 0,
             bom.multiplexers,
             bom.total_otis_blocks(),
             diameter,
             v.max_loss_db,
             v.ok};
}

int run(int argc, char** argv) {
  otis::core::Args args(argc, argv, {"max-n"});
  const std::int64_t max_n = args.get_int("max-n", 600);

  std::cout << "otisnet design explorer: hardware cost per family\n"
            << "(every design is built as a full optical netlist and "
               "verified by light tracing)\n\n";

  otis::core::Table table({"design", "N", "tx/node", "couplers",
                           "OTIS blocks", "diameter", "max loss dB",
                           "verified"});

  auto add = [&](Row row) {
    if (row.processors > max_n) {
      return;
    }
    table.add(row.family, row.processors, row.tx_per_node, row.couplers,
              row.otis_blocks, row.diameter,
              otis::core::format_double(row.max_loss_db, 2), row.verified);
  };

  // Single-hop families.
  for (std::int64_t g : {2, 4, 6, 8}) {
    const std::int64_t t = 8;
    add(measure("POPS(" + std::to_string(t) + "," + std::to_string(g) + ")",
                otis::designs::pops_design(t, g), 1));
  }
  add(measure("single-OPS bus N=64",
              otis::designs::single_ops_bus_design(64), 1));

  // Multi-hop multi-OPS families.
  for (int d = 2; d <= 4; ++d) {
    for (int k = 2; k <= 3; ++k) {
      otis::hypergraph::StackKautz sk(8, d, k);
      if (sk.processor_count() > max_n) {
        continue;
      }
      add(measure("SK(8," + std::to_string(d) + "," + std::to_string(k) +
                      ")",
                  otis::designs::stack_kautz_design(8, d, k), k));
    }
  }
  for (std::int64_t n : {10, 20, 40}) {
    otis::hypergraph::StackImaseItoh sii(8, 3, n);
    add(measure("SII(8,3," + std::to_string(n) + ")",
                otis::designs::stack_imase_itoh_design(8, 3, n),
                static_cast<std::int64_t>(sii.diameter_bound())));
  }

  // Point-to-point Kautz via one OTIS (Corollary 1) vs dedicated fibers.
  for (int d = 2; d <= 3; ++d) {
    otis::topology::Kautz kautz(d, 3);
    add(measure("KG(" + std::to_string(d) + ",3) via OTIS",
                otis::designs::imase_itoh_design(d, kautz.order()), 3));
    add(measure("KG(" + std::to_string(d) + ",3) via fibers",
                otis::designs::fiber_point_to_point_design(
                    kautz.graph(),
                    "KG(" + std::to_string(d) + ",3) wired"),
                3));
  }

  table.print(std::cout);

  // Power feasibility context.
  otis::optics::LossModel model;
  otis::optics::PowerBudget budget;
  std::cout << "\npower budget: tx "
            << otis::core::format_double(budget.transmit_power_dbm, 1)
            << " dBm, sensitivity "
            << otis::core::format_double(budget.receiver_sensitivity_dbm, 1)
            << " dBm, margin "
            << otis::core::format_double(budget.system_margin_db, 1)
            << " dB => max OPS degree s = "
            << otis::optics::max_stacking_factor(budget, model) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return otis::core::run_main(argc, argv, run);
}
