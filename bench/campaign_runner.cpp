// Campaign driver: runs a declarative experiment grid from a JSON spec.
//
//   campaign_runner --spec specs/paper_grid.json --out out/paper --threads 8
//   campaign_runner --spec specs/paper_grid.json --out out/paper --resume
//   campaign_runner --spec specs/wdm_scale.json --out out/s0 --shard 0/4
//
// Expands topologies x arbitrations x loads x wavelengths x seeds into
// cells, compiles one routing table per topology, fans cells out over a
// work-stealing pool, and streams results.jsonl / results.csv (plus a
// manifest that makes interrupted runs resumable) into --out. The
// emitted bytes are identical for every --threads value. An aggregate
// over the seed axis (mean +/- stddev per metric) is printed and written
// to aggregate.csv.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "core/args.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/mathutil.hpp"
#include "core/table.hpp"

namespace {

/// On --resume, cells already in the manifest never reach the sinks, so
/// their rows are read back from results.jsonl and folded into the
/// aggregate -- otherwise aggregate.csv would cover only this
/// invocation's cells. Rows not recorded in the manifest are ignored
/// (they belong to cells that will be re-simulated), and each manifest
/// ID folds at most once. Folded values carry the JSONL's fixed
/// 6-decimal rounding, so a resumed aggregate matches an uninterrupted
/// run's to ~1e-6 per metric rather than bit-exactly. Because traffic
/// and routes are per-row fields, this also refolds a directory merged
/// from several --shard runs into the full-grid aggregate.
void refold_completed_cells(const std::string& out_dir,
                            otis::campaign::AggregateSink& aggregate) {
  namespace fs = std::filesystem;
  const fs::path dir(out_dir);
  auto completed = otis::campaign::Manifest::load(
      (dir / otis::campaign::CampaignRunner::kManifestFile).string());
  std::ifstream jsonl(dir / otis::campaign::CampaignRunner::kJsonlFile);
  std::string line;
  while (std::getline(jsonl, line)) {
    if (line.empty()) {
      continue;
    }
    const otis::core::Json row = otis::core::Json::parse(line);
    if (completed.erase(row.at("cell_id").as_string()) == 0) {
      continue;
    }
    otis::sim::SweepPoint trial;
    trial.load = row.at("load").as_number();
    trial.throughput_per_node = row.at("throughput_per_node").as_number();
    trial.mean_latency = row.at("mean_latency").as_number();
    trial.p95_latency = row.at("p95_latency").as_number();
    trial.coupler_utilization = row.at("coupler_utilization").as_number();
    trial.delivered_fraction = row.at("delivered_fraction").as_number();
    const std::int64_t couplers = row.at("couplers").as_int();
    const std::int64_t slots = row.at("slots").as_int();
    trial.collision_rate =
        couplers > 0 && slots > 0
            ? row.at("collisions").as_number() /
                  (static_cast<double>(couplers) *
                   static_cast<double>(slots))
            : 0.0;
    trial.makespan = row.number_or("makespan", 0.0);
    trial.trials = 1;
    // Traffic/timing/workload are folded by their row labels verbatim
    // -- the labels carry the shape/skew parameters, so swept entries
    // land in distinct groups without re-parsing.
    aggregate.fold(row.at("topology").as_string(),
                   row.at("arbitration").as_string(),
                   row.at("traffic").as_string(), trial.load,
                   row.at("wavelengths").as_int(),
                   otis::campaign::parse_route_table(
                       row.string_or("routes", "auto")),
                   row.string_or("timing", "none"),
                   row.string_or("workload", "none"),
                   row.at("nodes").as_int(), couplers, trial);
  }
}

void print_usage(std::ostream& os) {
  os << "usage: campaign_runner --spec FILE.json [--out DIR] [--threads N]\n"
     << "                       [--resume] [--shard I/N] [--no-jsonl]\n"
     << "                       [--no-csv] [--progress] [--list-cells]\n"
     << "  --spec     campaign spec file (see README 'Running campaigns')\n"
     << "  --out      output directory for results.jsonl, results.csv,\n"
     << "             manifest.txt and aggregate.csv\n"
     << "  --threads  worker pool size (default 1; <= 0 = all cores)\n"
     << "  --resume   skip cells already in DIR/manifest.txt, append files\n"
     << "  --shard    run only every N-th cell starting at I (0 <= I < N):\n"
     << "             a deterministic split of one campaign across\n"
     << "             machines; concatenate the shards' results.jsonl and\n"
     << "             manifest.txt to refold the full grid (composes with\n"
     << "             --resume)\n"
     << "  --progress heartbeat on stderr every ~2 s: cells done/total,\n"
     << "             rate, ETA (over this invocation's cells only, so\n"
     << "             --resume shows the true remaining time) and busy\n"
     << "             workers; with the spec's telemetry runtime_stats\n"
     << "             sink set, adds the running barrier-stall share and\n"
     << "             a per-cell stall-attribution line\n"
     << "  --checkpoint-stop SLOT  drill (tests/CI): with the spec's\n"
     << "             checkpoint_every set, stop every cell right after\n"
     << "             its first checkpoint at a boundary >= SLOT, as if\n"
     << "             the process died there; rerun with --resume to\n"
     << "             finish the cells bit-identically\n"
     << "  --list-cells  dry run: print every cell's expansion index,\n"
     << "             status, engine, estimated weight (nodes x slots x\n"
     << "             timing factor, skewed cells weighing 2.5-3x their\n"
     << "             slot-aligned twins, plus the cell's amortized\n"
     << "             share of its topology's route-compile cost --\n"
     << "             O(G^2) compressed vs O(N^2) dense -- for\n"
     << "             balancing shards by work, not cell count) and ID\n"
     << "             without simulating anything -- for planning\n"
     << "             sharded and resumed runs\n";
}

/// The --list-cells dry run: the exact expansion, shard split and
/// manifest skip set a real run would use, as a printout.
int list_cells(const otis::campaign::CampaignSpec& spec,
               const otis::campaign::CampaignOptions& options) {
  const std::vector<otis::campaign::CampaignCell> cells =
      otis::campaign::expand_grid(spec);
  // The compile happens once per topology and its cells share it, so
  // each cell's weight carries an amortized slice of that cost.
  std::vector<std::int64_t> topology_cells(spec.topologies.size(), 0);
  for (const otis::campaign::CampaignCell& cell : cells) {
    ++topology_cells[cell.topology];
  }
  std::unordered_set<std::string> completed;
  if (options.resume && !options.out_dir.empty()) {
    completed = otis::campaign::Manifest::load(
        (std::filesystem::path(options.out_dir) /
         otis::campaign::CampaignRunner::kManifestFile)
            .string());
  }
  std::int64_t pending = 0, done = 0, other_shard = 0;
  std::int64_t pending_weight = 0;
  for (const otis::campaign::CampaignCell& cell : cells) {
    const std::int64_t weight = otis::campaign::cell_weight(
        spec, cell, topology_cells[cell.topology]);
    const char* status = "pending";
    if (cell.index % options.shard_count != options.shard_index) {
      status = "other-shard";
      ++other_shard;
    } else if (completed.count(cell.id) > 0) {
      status = "done";
      ++done;
    } else {
      ++pending;
      pending_weight = otis::core::saturating_add(pending_weight, weight);
    }
    std::cout << cell.index << "\t" << status << "\t"
              << otis::sim::engine_name(cell.engine) << "\t" << weight
              << "\t" << cell.id << "\n";
  }
  std::cout << "[campaign] " << spec.name << ": " << cells.size()
            << " cells, " << pending << " pending (weight "
            << pending_weight << ")";
  if (options.shard_count > 1) {
    std::cout << " in shard " << options.shard_index << "/"
              << options.shard_count << " (" << other_shard
              << " left to other shards)";
  }
  if (options.resume) {
    std::cout << ", " << done << " done per manifest";
  }
  std::cout << " -- dry run, nothing simulated\n";
  return 0;
}

/// Parses "I/N" into (shard_index, shard_count). Strict: both parts
/// must be pure decimal numbers -- a typo'd shard spec must fail, not
/// run a plausible-looking subset of the grid on the wrong machine.
std::pair<int, int> parse_shard(const std::string& text) {
  const auto parse_part = [&](const std::string& part) {
    if (part.empty() || part.size() > 9 ||
        part.find_first_not_of("0123456789") != std::string::npos) {
      throw otis::core::Error("--shard expects I/N with "
                              "decimal I and N, got \"" +
                              text + "\"");
    }
    return std::stoi(part);
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    throw otis::core::Error("--shard expects I/N, got \"" +
                            text + "\"");
  }
  const int index = parse_part(text.substr(0, slash));
  const int count = parse_part(text.substr(slash + 1));
  if (count < 1 || index >= count) {
    throw otis::core::Error("--shard needs 0 <= I < N");
  }
  return {index, count};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const otis::core::Args args(
        argc, argv,
        {"spec", "out", "threads", "resume", "shard", "no-jsonl", "no-csv",
         "progress", "checkpoint-stop", "list-cells", "help"});
    if (args.has("help")) {
      print_usage(std::cout);
      return 0;
    }
    const std::string spec_path = args.get("spec", "");
    if (spec_path.empty()) {
      print_usage(std::cerr);
      return 2;
    }

    otis::campaign::CampaignSpec spec =
        otis::campaign::load_campaign_spec(spec_path);

    otis::campaign::CampaignOptions options;
    options.threads = static_cast<int>(args.get_int("threads", 1));
    options.out_dir = args.get("out", "");
    options.resume = args.has("resume");
    options.write_jsonl = !args.has("no-jsonl");
    options.write_csv = !args.has("no-csv");
    options.progress = args.has("progress");
    if (args.has("checkpoint-stop")) {
      options.checkpoint_stop = args.get_int("checkpoint-stop", -1);
    }
    if (args.has("shard")) {
      std::tie(options.shard_index, options.shard_count) =
          parse_shard(args.get("shard", ""));
    }
    if (args.has("list-cells")) {
      return list_cells(spec, options);
    }

    std::cout << "[campaign] " << spec.name << ": " << spec.cell_count()
              << " cells (" << spec.topologies.size() << " topologies x "
              << spec.arbitrations.size() << " arbitrations x "
              << spec.traffics.size() << " traffics x " << spec.loads.size()
              << " loads x " << spec.wavelengths.size() << " wavelengths x "
              << spec.route_tables.size() << " route tables x "
              << spec.timings.size() << " timings x "
              << spec.workloads.size() << " workloads x "
              << spec.seeds.size() << " seeds), engine "
              << otis::sim::engine_name(spec.engine) << "\n";
    if (options.shard_count > 1) {
      std::cout << "[campaign] shard " << options.shard_index << "/"
                << options.shard_count << "\n";
    }

    auto aggregate = std::make_shared<otis::campaign::AggregateSink>();
    otis::campaign::CampaignRunner runner(std::move(spec));
    runner.add_sink(aggregate);
    if (options.resume && !options.out_dir.empty()) {
      refold_completed_cells(options.out_dir, *aggregate);
    }
    const otis::campaign::CampaignReport report = runner.run(options);

    std::cout << "[campaign] completed " << report.completed_cells << "/"
              << report.total_cells << " cells ("
              << report.skipped_cells << " resumed from manifest, "
              << report.out_of_shard_cells << " left to other shards";
    if (report.interrupted_cells > 0) {
      std::cout << ", " << report.interrupted_cells
                << " checkpointed and interrupted";
    }
    std::cout << "), "
              << report.topologies_compiled
              << " routing tables compiled, ";
    if (report.runtime_rows > 0) {
      std::cout << report.runtime_rows << " runtime rows, ";
    }
    std::cout
              << otis::core::format_double(report.elapsed_seconds, 2)
              << " s";
    if (report.elapsed_seconds > 0.0 && report.completed_cells > 0) {
      std::cout << " ("
                << otis::core::format_double(
                       static_cast<double>(report.completed_cells) /
                           report.elapsed_seconds,
                       1)
                << " cells/s)";
    }
    std::cout << "\n\n";

    if (!aggregate->groups().empty()) {
      otis::core::Table table({"topology", "arb", "load", "W", "trials",
                               "thr/node", "thr sd", "latency", "lat sd",
                               "p95", "delivered"});
      for (const otis::campaign::AggregateSink::Group& g :
           aggregate->groups()) {
        table.add(g.topology, g.arbitration,
                  otis::core::format_double(g.load, 2), g.wavelengths,
                  g.point.trials,
                  otis::core::format_double(g.point.throughput_per_node, 4),
                  otis::core::format_double(g.point.throughput_stddev, 4),
                  otis::core::format_double(g.point.mean_latency, 3),
                  otis::core::format_double(g.point.mean_latency_stddev, 3),
                  otis::core::format_double(g.point.p95_latency, 1),
                  otis::core::format_double(g.point.delivered_fraction, 4));
      }
      table.print(std::cout);
    }

    if (!options.out_dir.empty()) {
      const std::string aggregate_path = options.out_dir + "/aggregate.csv";
      aggregate->write_csv(aggregate_path);
      std::cout << "\noutputs in " << options.out_dir << ": "
                << otis::campaign::CampaignRunner::kJsonlFile << ", "
                << otis::campaign::CampaignRunner::kCsvFile
                << ", aggregate.csv, "
                << otis::campaign::CampaignRunner::kManifestFile << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "campaign_runner: " << e.what() << "\n";
    return 1;
  }
}
