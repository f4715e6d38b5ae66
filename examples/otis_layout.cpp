// otis_layout: emit the complete optical wiring of any supported design
// as a component/connection listing -- the machine-readable version of
// the paper's Figs. 10-12. Useful to eyeball how the OTIS transpose
// scatters a group's transmitters across multiplexers.
//
// Usage: otis_layout [--design=sk|pops|ii] [--s=2] [--d=3] [--k=2]
//                    [--t=4] [--g=2] [--n=12] [--full]
// Without --full only the bill of materials and one group's wiring are
// printed (full netlists get large).

#include <iostream>

#include "core/args.hpp"
#include "core/table.hpp"
#include "designs/builders.hpp"
#include "designs/verify.hpp"
#include "optics/trace.hpp"

namespace {

void print_component_line(const otis::optics::Netlist& netlist,
                          otis::optics::ComponentId id) {
  const otis::optics::Component& c = netlist.component(id);
  std::cout << "  [" << id << "] " << otis::optics::kind_name(c.kind) << " '"
            << c.label << "'";
  if (c.kind == otis::optics::ComponentKind::kOtis) {
    std::cout << " = OTIS(" << c.otis_groups << "," << c.otis_group_size
              << ")";
  }
  std::cout << "\n";
}

int run(int argc, char** argv) {
  otis::core::Args args(argc, argv,
                        {"design", "s", "d", "k", "t", "g", "n", "full"});
  const std::string kind = args.get("design", "sk");

  otis::designs::NetworkDesign design;
  if (kind == "sk") {
    design = otis::designs::stack_kautz_design(
        args.get_int("s", 2), static_cast<int>(args.get_int("d", 3)),
        static_cast<int>(args.get_int("k", 2)));
  } else if (kind == "pops") {
    design = otis::designs::pops_design(args.get_int("t", 4),
                                        args.get_int("g", 2));
  } else if (kind == "ii") {
    design = otis::designs::imase_itoh_design(
        static_cast<int>(args.get_int("d", 3)), args.get_int("n", 12));
  } else {
    std::cerr << "unknown --design (use sk, pops or ii)\n";
    return 2;
  }

  std::cout << "optical design: " << design.name << "\n"
            << "bill of materials: "
            << otis::designs::bill_of_materials(design.netlist).to_string()
            << "\n";
  otis::designs::VerificationResult v = otis::designs::verify_design(design);
  std::cout << "verification: " << (v.ok ? "ok" : ("FAILED: " + v.details))
            << "\n\n";
  if (!v.ok) {
    return 1;
  }

  if (args.has("full")) {
    std::cout << "components:\n";
    for (otis::optics::ComponentId id = 0;
         id < design.netlist.component_count(); ++id) {
      print_component_line(design.netlist, id);
    }
  }

  // Show processor 0's transmit fan: where each transmitter's light goes.
  std::cout << "lightpaths of processor 0:\n";
  for (otis::optics::ComponentId tx : design.tx_of_processor[0]) {
    for (const otis::optics::TraceEndpoint& e :
         otis::optics::trace_from_transmitter(design.netlist, tx, {})) {
      std::cout << "  " << design.netlist.component(tx).label << " ->";
      for (otis::optics::ComponentId id : e.path) {
        if (id == tx) {
          continue;
        }
        std::cout << " " << otis::optics::kind_name(
                                design.netlist.component(id).kind);
      }
      std::cout << " (processor " << design.processor_of_receiver(e.receiver)
                << ", " << otis::core::format_double(e.loss_db, 2)
                << " dB)\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return otis::core::run_main(argc, argv, run);
}
