#include "campaign/sink.hpp"

#include <filesystem>
#include <ios>
#include <string>
#include <system_error>

#include "core/error.hpp"
#include "core/table.hpp"

namespace otis::campaign {

namespace {

std::ios_base::openmode file_mode(bool append) {
  return append ? (std::ios::out | std::ios::app)
                : (std::ios::out | std::ios::trunc);
}

/// Fixed-precision float text shared by both file sinks; determinism of
/// the byte stream depends on never using default operator<< for doubles.
std::string num(double value) { return core::format_double(value, 6); }

/// RFC-4180 quoting for cells that carry topology labels / cell IDs --
/// both contain commas (e.g. "SK(4,3,2)").
std::string quoted(const std::string& cell) {
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') {
      out.push_back('"');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void check_row(const CellResult& r) {
  const sim::RunMetrics& m = r.metrics;
  const auto require = [&](bool ok, const char* field,
                           const std::string& why) {
    if (!ok) {
      throw core::Error("campaign: cell " + r.cell.id + ": " + field + " " +
                        why);
    }
  };
  const auto fraction = [&](const char* field, double value) {
    require(value >= 0.0 && value <= 1.0, field,
            "= " + std::to_string(value) + " is outside [0, 1]");
  };
  if (m.latency.count() > 0) {
    require(m.latency.percentile(0.0) >= 1, "latency",
            "min " + std::to_string(m.latency.percentile(0.0)) +
                " is below one slot");
  }
  const double coupler_slots =
      static_cast<double>(r.couplers) * static_cast<double>(m.slots);
  fraction("coupler_utilization_per_wavelength",
           m.coupler_utilization(r.couplers) /
               static_cast<double>(r.cell.wavelengths));
  fraction("collisions_per_coupler_slot",
           coupler_slots > 0.0
               ? static_cast<double>(m.collisions) / coupler_slots
               : 0.0);
  const std::int64_t attempts = m.coupler_transmissions + m.collisions;
  fraction("transmission_success",
           attempts > 0 ? static_cast<double>(m.coupler_transmissions) /
                              static_cast<double>(attempts)
                        : 1.0);
  // Throughput per node is not capped at 1: a window also delivers
  // packets offered before it (saturated SK(6,3,2) at W = 4 reads
  // 1.0001) and a workload may inject bursts (a POPS gossip round reads
  // 2.0). Every engine counts a delivery in the window of the
  // transmission that made it, so that transmission bounds it.
  require(m.delivered_packets >= 0, "throughput_per_node",
          "is negative (delivered " + std::to_string(m.delivered_packets) +
              ")");
  require(m.delivered_packets <= m.coupler_transmissions, "delivered",
          "= " + std::to_string(m.delivered_packets) +
              " exceeds the coupler transmissions " +
              std::to_string(m.coupler_transmissions));
  if (r.workload_completed) {
    require(m.backlog == 0, "backlog",
            "= " + std::to_string(m.backlog) +
                " on a completed closed-loop run");
    require(m.delivered_packets == m.offered_packets, "delivered",
            "= " + std::to_string(m.delivered_packets) + " != offered " +
                std::to_string(m.offered_packets) +
                " on a completed closed-loop run");
  }
}

JsonlSink::JsonlSink(const std::string& path, bool append)
    : out_(path, file_mode(append)) {
  OTIS_REQUIRE(out_.good(), "JsonlSink: cannot open " + path);
}

void JsonlSink::consume(const CellResult& r) {
  const sim::RunMetrics& m = r.metrics;
  out_ << "{\"cell_id\": \"" << r.cell.id << "\""
       << ", \"topology\": \"" << r.topology_label << "\""
       << ", \"arbitration\": \""
       << sim::arbitration_name(r.cell.arbitration) << "\""
       << ", \"traffic\": \"" << r.cell.traffic.label() << "\""
       << ", \"load\": " << num(r.cell.load)
       << ", \"wavelengths\": " << r.cell.wavelengths
       << ", \"routes\": \"" << sim::route_table_name(r.cell.routes) << "\""
       << ", \"timing\": \"" << r.cell.timing.label() << "\""
       << ", \"workload\": \"" << r.cell.workload.label() << "\""
       << ", \"seed\": " << r.cell.seed << ", \"nodes\": " << r.nodes
       << ", \"couplers\": " << r.couplers << ", \"slots\": " << m.slots
       << ", \"offered\": " << m.offered_packets
       << ", \"delivered\": " << m.delivered_packets
       << ", \"dropped\": " << m.dropped_packets
       << ", \"collisions\": " << m.collisions
       << ", \"coupler_transmissions\": " << m.coupler_transmissions
       << ", \"backlog\": " << m.backlog
       << ", \"throughput_per_node\": " << num(m.throughput_per_node(r.nodes))
       << ", \"mean_latency\": " << num(m.latency.mean())
       << ", \"p95_latency\": " << m.latency.percentile(0.95)
       << ", \"max_latency\": " << m.latency.max()
       << ", \"coupler_utilization\": "
       << num(m.coupler_utilization(r.couplers))
       << ", \"delivered_fraction\": "
       << num(m.offered_packets > 0
                  ? static_cast<double>(m.delivered_packets) /
                        static_cast<double>(m.offered_packets)
                  : 0.0)
       << ", \"makespan\": " << m.makespan_slots << "}\n";
}

void JsonlSink::flush() { out_.flush(); }

const std::vector<std::string>& CsvSink::columns() {
  static const std::vector<std::string> kColumns = {
      "cell_id",       "topology",    "arbitration",
      "traffic",       "load",        "wavelengths",
      "routes",        "timing",      "workload",
      "seed",          "nodes",       "couplers",
      "slots",         "offered",     "delivered",
      "dropped",       "collisions",  "coupler_transmissions",
      "backlog",       "throughput_per_node",
      "mean_latency",  "p95_latency", "max_latency",
      "coupler_utilization",          "delivered_fraction",
      "makespan"};
  return kColumns;
}

CsvSink::CsvSink(const std::string& path, bool append)
    : out_(path, file_mode(append)) {
  OTIS_REQUIRE(out_.good(), "CsvSink: cannot open " + path);
  // Append mode still needs the header when nothing was written yet
  // (e.g. --resume pointed at a fresh directory); a headerless CSV
  // shifts every column for DictReader-style consumers.
  std::error_code ec;
  const auto existing = std::filesystem::file_size(path, ec);
  if (!append || ec || existing == 0) {
    const std::vector<std::string>& cols = columns();
    for (std::size_t i = 0; i < cols.size(); ++i) {
      out_ << (i > 0 ? "," : "") << cols[i];
    }
    out_ << "\n";
  }
}

void CsvSink::consume(const CellResult& r) {
  const sim::RunMetrics& m = r.metrics;
  out_ << quoted(r.cell.id) << "," << quoted(r.topology_label) << ","
       << sim::arbitration_name(r.cell.arbitration) << ","
       << quoted(r.cell.traffic.label()) << "," << num(r.cell.load) << ","
       << r.cell.wavelengths << "," << sim::route_table_name(r.cell.routes)
       << "," << quoted(r.cell.timing.label()) << ","
       << quoted(r.cell.workload.label()) << "," << r.cell.seed << ","
       << r.nodes << ","
       << r.couplers << "," << m.slots << "," << m.offered_packets << ","
       << m.delivered_packets << "," << m.dropped_packets << ","
       << m.collisions << "," << m.coupler_transmissions << "," << m.backlog
       << "," << num(m.throughput_per_node(r.nodes)) << ","
       << num(m.latency.mean()) << "," << m.latency.percentile(0.95) << ","
       << m.latency.max() << "," << num(m.coupler_utilization(r.couplers))
       << ","
       << num(m.offered_packets > 0
                  ? static_cast<double>(m.delivered_packets) /
                        static_cast<double>(m.offered_packets)
                  : 0.0)
       << "," << m.makespan_slots << "\n";
}

void CsvSink::flush() { out_.flush(); }

void AggregateSink::consume(const CellResult& r) {
  fold(r.topology_label, sim::arbitration_name(r.cell.arbitration),
       r.cell.traffic.label(), r.cell.load, r.cell.wavelengths,
       r.cell.routes, r.cell.timing.label(), r.cell.workload.label(),
       r.nodes, r.couplers,
       sim::SweepPoint::from_trial(r.metrics, r.cell.load, r.nodes,
                                   r.couplers));
}

void AggregateSink::fold(const std::string& topology,
                         const std::string& arbitration,
                         const std::string& traffic, double load,
                         std::int64_t wavelengths, sim::RouteTable routes,
                         const std::string& timing,
                         const std::string& workload, std::int64_t nodes,
                         std::int64_t couplers,
                         const sim::SweepPoint& trial) {
  // Loads are matched through their emitted 6-decimal form, not exact
  // double equality: resumed trials arrive round-tripped through the
  // JSONL formatting and must land in the same group as live ones.
  const std::string load_key = num(load);
  for (Group& group : groups_) {
    if (group.topology == topology && group.arbitration == arbitration &&
        group.traffic == traffic && num(group.load) == load_key &&
        group.wavelengths == wavelengths && group.routes == routes &&
        group.timing == timing && group.workload == workload) {
      group.point.merge(trial);
      return;
    }
  }
  Group group;
  group.topology = topology;
  group.arbitration = arbitration;
  group.traffic = traffic;
  group.load = load;
  group.wavelengths = wavelengths;
  group.routes = routes;
  group.timing = timing;
  group.workload = workload;
  group.nodes = nodes;
  group.couplers = couplers;
  group.point = trial;
  groups_.push_back(std::move(group));
}

void AggregateSink::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  OTIS_REQUIRE(out.good(), "AggregateSink: cannot open " + path);
  out << "topology,arbitration,traffic,load,wavelengths,routes,timing,"
         "workload,trials,throughput_per_node,throughput_stddev,"
         "mean_latency,mean_latency_stddev,p95_latency,p95_latency_stddev,"
         "coupler_utilization,coupler_utilization_stddev,collision_rate,"
         "collision_rate_stddev,delivered_fraction,"
         "delivered_fraction_stddev,makespan,makespan_stddev\n";
  for (const Group& g : groups_) {
    const sim::SweepPoint& p = g.point;
    out << quoted(g.topology) << "," << g.arbitration << ","
        << quoted(g.traffic) << "," << num(g.load) << ","
        << g.wavelengths << "," << sim::route_table_name(g.routes) << ","
        << quoted(g.timing) << "," << quoted(g.workload) << ","
        << p.trials << ","
        << num(p.throughput_per_node) << "," << num(p.throughput_stddev)
        << "," << num(p.mean_latency) << "," << num(p.mean_latency_stddev)
        << "," << num(p.p95_latency) << "," << num(p.p95_latency_stddev)
        << "," << num(p.coupler_utilization) << ","
        << num(p.coupler_utilization_stddev) << "," << num(p.collision_rate)
        << "," << num(p.collision_rate_stddev) << ","
        << num(p.delivered_fraction) << ","
        << num(p.delivered_fraction_stddev) << "," << num(p.makespan) << ","
        << num(p.makespan_stddev) << "\n";
  }
}

}  // namespace otis::campaign
