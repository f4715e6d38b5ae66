// Tests for the campaign subsystem: grid expansion, spec parsing, the
// one-compile-per-topology contract, thread-count invariance of the
// emitted JSONL/CSV streams, and resume-from-manifest. The big spec used
// below is the ISSUE acceptance grid -- >= 100 cells across SK(4,3,2),
// POPS(6,12) and SII(4,2,12) -- with a short measurement window so the
// whole file stays fast.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/grid.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "workload/trace.hpp"

namespace {

using namespace otis;
using campaign::CampaignOptions;
using campaign::CampaignRunner;
using campaign::CampaignSpec;
using campaign::TopologySpec;

/// The ISSUE acceptance grid: 3 topologies x 1 arbitration x 5 loads x
/// 2 wavelengths x 4 seeds = 120 cells, tiny windows.
CampaignSpec acceptance_spec() {
  CampaignSpec spec;
  spec.name = "acceptance";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2),
                     TopologySpec::pops(6, 12),
                     TopologySpec::stack_imase_itoh(4, 2, 12)};
  spec.loads = {0.1, 0.3, 0.5, 0.7, 0.9};
  spec.wavelengths = {1, 2};
  spec.seeds = {1, 2, 3, 4};
  spec.warmup_slots = 10;
  spec.measure_slots = 40;
  return spec;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Fresh scratch directory under the build tree's temp space.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("otis_campaign_" + tag + "_" +
               std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(CampaignGrid, ExpansionCountsAndOrder) {
  const CampaignSpec spec = acceptance_spec();
  EXPECT_EQ(spec.cell_count(), 3 * 5 * 2 * 4);

  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 120u);

  std::set<std::string> ids;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<std::int64_t>(i));
    ids.insert(cells[i].id);
  }
  EXPECT_EQ(ids.size(), cells.size()) << "cell IDs must be unique";

  // Nesting order: seeds innermost, then wavelengths, loads, topology.
  EXPECT_EQ(cells[0].seed, 1u);
  EXPECT_EQ(cells[1].seed, 2u);
  EXPECT_EQ(cells[0].wavelengths, 1);
  EXPECT_EQ(cells[4].wavelengths, 2);
  EXPECT_DOUBLE_EQ(cells[0].load, 0.1);
  EXPECT_DOUBLE_EQ(cells[8].load, 0.3);
  EXPECT_EQ(cells[0].topology, 0u);
  EXPECT_EQ(cells[40].topology, 1u);
  EXPECT_EQ(cells[80].topology, 2u);

  EXPECT_EQ(cells[0].id,
            "SK(4,3,2)|token|uniform|load=0.100000|w=1|routes=auto|timing=none|"
            "workload=none|seed=1");

  // Axis values that collide in the ID's 6-decimal load form are
  // refused (a silent collision would make resume drop cells).
  CampaignSpec colliding = spec;
  colliding.loads = {0.1, 0.1000000001};
  EXPECT_THROW(campaign::expand_grid(colliding), core::Error);
}

TEST(CampaignSpecJson, ParsesFullSchema) {
  const std::string json = R"({
    "name": "parse-test",
    "topologies": [
      {"kind": "stack_kautz", "s": 6, "d": 3, "k": 2},
      {"kind": "pops", "t": 6, "g": 12},
      {"kind": "stack_imase_itoh", "s": 4, "d": 2, "n": 12}
    ],
    "arbitrations": ["token", "random", "aloha"],
    "traffic": "saturation",
    "loads": [1.0],
    "wavelengths": [1, 4],
    "seeds": [7, 8],
    "warmup_slots": 50,
    "measure_slots": 200,
    "queue_capacity": 16,
    "engine": "sharded",
    "engine_threads": 2,
    "latency_stats": "sketch",
    "checkpoint_every": 500
  })";
  const CampaignSpec spec = campaign::parse_campaign_spec(json);
  EXPECT_EQ(spec.name, "parse-test");
  ASSERT_EQ(spec.topologies.size(), 3u);
  EXPECT_EQ(spec.topologies[0].label(), "SK(6,3,2)");
  EXPECT_EQ(spec.topologies[1].label(), "POPS(6,12)");
  EXPECT_EQ(spec.topologies[2].label(), "SII(4,2,12)");
  EXPECT_EQ(spec.arbitrations.size(), 3u);
  EXPECT_EQ(spec.traffics,
            (std::vector<campaign::TrafficSpec>{
                campaign::TrafficKind::kSaturation}));
  EXPECT_EQ(spec.wavelengths, (std::vector<std::int64_t>{1, 4}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(spec.warmup_slots, 50);
  EXPECT_EQ(spec.measure_slots, 200);
  EXPECT_EQ(spec.queue_capacity, 16);
  EXPECT_EQ(spec.engine, sim::Engine::kSharded);
  EXPECT_EQ(spec.engine_threads, 2);
  EXPECT_EQ(spec.latency_stats, sim::LatencyMode::kSketch);
  EXPECT_EQ(spec.checkpoint_every, 500);
  EXPECT_EQ(spec.cell_count(), 3 * 3 * 1 * 2 * 2);
}

TEST(CampaignSpecJson, DefaultsAndErrors) {
  const CampaignSpec spec = campaign::parse_campaign_spec(
      R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}]})");
  EXPECT_EQ(spec.arbitrations.size(), 1u);
  EXPECT_EQ(spec.traffics,
            (std::vector<campaign::TrafficSpec>{
                campaign::TrafficKind::kUniform}));
  EXPECT_EQ(spec.route_tables,
            (std::vector<sim::RouteTable>{sim::RouteTable::kAuto}));
  EXPECT_EQ(spec.engine, sim::Engine::kPhased);

  EXPECT_THROW(campaign::parse_campaign_spec("{}"), core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"({"topologies": [{"kind": "ring", "n": 4}]})"),
               core::Error);
  EXPECT_THROW(
      campaign::parse_campaign_spec(
          R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
              "arbitrations": ["coin-flip"]})"),
      core::Error);
  EXPECT_THROW(
      campaign::parse_campaign_spec(
          R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
              "loads": []})"),
      core::Error);
  // Misspelled keys fail loudly instead of silently running defaults.
  EXPECT_THROW(
      campaign::parse_campaign_spec(
          R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
              "measure_slot": 100000})"),
      core::Error);
  EXPECT_THROW(
      campaign::parse_campaign_spec(
          R"({"topologies": [{"kind": "pops", "t": 2, "g": 3, "s": 4}]})"),
      core::Error);
}

/// Parses a spec holding the single topology `topology` (a JSON object)
/// and expects core::Error whose message contains `needle`.
void expect_topology_error(const std::string& topology,
                           const std::string& needle) {
  const std::string json = R"({"topologies": [)" + topology + "]}";
  try {
    (void)campaign::parse_campaign_spec(json);
    ADD_FAILURE() << "accepted " << json;
  } catch (const core::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(CampaignSpecJson, RejectsOutOfRangeTopologyParameters) {
  expect_topology_error(R"({"kind": "stack_kautz", "s": 4, "d": 3, "k": -2})",
                        R"(SK(4,3,-2) field "k" must be >= 1 (got -2))");
  expect_topology_error(R"({"kind": "stack_kautz", "s": 0, "d": 3, "k": 2})",
                        R"(field "s")");
  expect_topology_error(R"({"kind": "stack_kautz", "s": 4, "d": 0, "k": 2})",
                        R"(field "d")");
  expect_topology_error(R"({"kind": "pops", "t": 0, "g": 3})",
                        R"(field "t")");
  expect_topology_error(R"({"kind": "pops", "t": 2, "g": -1})",
                        R"(field "g")");
  expect_topology_error(
      R"({"kind": "stack_imase_itoh", "s": -1, "d": 2, "n": 12})",
      R"(field "s")");
  expect_topology_error(
      R"({"kind": "stack_imase_itoh", "s": 4, "d": 0, "n": 12})",
      R"(field "d")");
  expect_topology_error(
      R"({"kind": "stack_imase_itoh", "s": 4, "d": 3, "n": 2})",
      R"(field "n" must be >= 3)");
  // s * d^(k-1) * (d+1) = 1e5 * 1e16 * 101 does not fit in int64: the
  // count is refused instead of wrapping (signed overflow).
  expect_topology_error(
      R"({"kind": "stack_kautz", "s": 100000, "d": 100, "k": 9})",
      "SK(100000,100,9) has more processors than fit in 64 bits");
  EXPECT_THROW((void)TopologySpec::stack_kautz(100000, 100, 9).processor_count(),
               core::Error);
  EXPECT_THROW((void)TopologySpec::pops(std::int64_t{1} << 40,
                                        std::int64_t{1} << 40)
                   .processor_count(),
               core::Error);
  // A huge diameter on degree 1 is in range and terminates: K(1, k) has
  // two vertices whatever k is.
  EXPECT_EQ(TopologySpec::stack_kautz(3, 1, std::int64_t{1} << 62)
                .processor_count(),
            6);

  // Specs built in code are checked where the grid expands, too.
  CampaignSpec spec;
  spec.topologies = {TopologySpec::stack_kautz(4, 3, -2)};
  EXPECT_THROW((void)campaign::expand_grid(spec), core::Error);
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  EXPECT_EQ(campaign::expand_grid(spec).size(), 1u);
}

TEST(CampaignRunnerTest, OneCompilePerTopology) {
  CampaignSpec spec = acceptance_spec();
  campaign::reset_topology_compile_count();

  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  CampaignOptions options;
  options.threads = 4;
  const campaign::CampaignReport report = runner.run(options);

  EXPECT_EQ(report.total_cells, 120);
  EXPECT_EQ(report.completed_cells, 120);
  EXPECT_EQ(report.skipped_cells, 0);
  EXPECT_EQ(report.topologies_compiled, 3);
  EXPECT_EQ(campaign::topology_compile_count(), 3)
      << "120 cells over 3 topologies must compile exactly 3 route tables";

  // 3 topologies x 5 loads x 2 wavelengths groups, each folding 4 seeds.
  EXPECT_EQ(aggregate->groups().size(), 30u);
  for (const campaign::AggregateSink::Group& group : aggregate->groups()) {
    EXPECT_EQ(group.point.trials, 4);
    EXPECT_GE(group.point.throughput_stddev, 0.0);
  }
}

TEST(CampaignRunnerTest, JsonlBitIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = acceptance_spec();
  ScratchDir dir1("t1");
  ScratchDir dir8("t8");

  CampaignOptions options1;
  options1.threads = 1;
  options1.out_dir = dir1.path().string();
  CampaignRunner(spec).run(options1);

  CampaignOptions options8;
  options8.threads = 8;
  options8.out_dir = dir8.path().string();
  CampaignRunner(spec).run(options8);

  const std::string jsonl1 =
      read_file(dir1.path() / CampaignRunner::kJsonlFile);
  const std::string jsonl8 =
      read_file(dir8.path() / CampaignRunner::kJsonlFile);
  ASSERT_FALSE(jsonl1.empty());
  EXPECT_EQ(jsonl1, jsonl8) << "JSONL must be bit-identical for any "
                               "--threads value";
  EXPECT_EQ(read_file(dir1.path() / CampaignRunner::kCsvFile),
            read_file(dir8.path() / CampaignRunner::kCsvFile));

  // Every line is valid JSON with the cell's ID first.
  std::istringstream lines(jsonl1);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const core::Json row = core::Json::parse(line);
    EXPECT_TRUE(row.is_object());
    EXPECT_FALSE(row.at("cell_id").as_string().empty());
    ++count;
  }
  EXPECT_EQ(count, 120u);
}

TEST(CampaignRunnerTest, ResumeSkipsCompletedCells) {
  const CampaignSpec spec = acceptance_spec();

  // Reference: one uninterrupted run.
  ScratchDir full("full");
  CampaignOptions full_options;
  full_options.threads = 4;
  full_options.out_dir = full.path().string();
  CampaignRunner(spec).run(full_options);
  const std::string full_jsonl =
      read_file(full.path() / CampaignRunner::kJsonlFile);
  const std::string full_manifest =
      read_file(full.path() / CampaignRunner::kManifestFile);

  // Simulated interrupt: keep the first 30 cells' rows + manifest lines.
  ScratchDir part("part");
  constexpr std::size_t kDone = 30;
  auto truncate_lines = [](const std::string& text, std::size_t lines) {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < lines && pos != std::string::npos; ++i) {
      pos = text.find('\n', pos);
      if (pos != std::string::npos) {
        ++pos;
      }
    }
    return text.substr(0, pos);
  };
  std::ofstream(part.path() / CampaignRunner::kJsonlFile)
      << truncate_lines(full_jsonl, kDone);
  std::ofstream(part.path() / CampaignRunner::kManifestFile)
      << truncate_lines(full_manifest, kDone);
  // CSV: header + first kDone rows.
  std::ofstream(part.path() / CampaignRunner::kCsvFile) << truncate_lines(
      read_file(full.path() / CampaignRunner::kCsvFile), kDone + 1);

  campaign::reset_topology_compile_count();
  CampaignOptions resume_options;
  resume_options.threads = 4;
  resume_options.out_dir = part.path().string();
  resume_options.resume = true;
  const campaign::CampaignReport report =
      CampaignRunner(spec).run(resume_options);

  EXPECT_EQ(report.skipped_cells, static_cast<std::int64_t>(kDone));
  EXPECT_EQ(report.completed_cells,
            static_cast<std::int64_t>(120 - kDone));
  // 30 done cells cover only the first topology's first 30 of 40 cells,
  // so all 3 topologies still have pending work.
  EXPECT_EQ(campaign::topology_compile_count(), 3);

  // After resume the output files equal the uninterrupted run's, byte
  // for byte.
  EXPECT_EQ(read_file(part.path() / CampaignRunner::kJsonlFile),
            full_jsonl);
  EXPECT_EQ(read_file(part.path() / CampaignRunner::kManifestFile),
            full_manifest);
  EXPECT_EQ(read_file(part.path() / CampaignRunner::kCsvFile),
            read_file(full.path() / CampaignRunner::kCsvFile));

  // Resuming a finished campaign is a no-op.
  const campaign::CampaignReport again =
      CampaignRunner(spec).run(resume_options);
  EXPECT_EQ(again.skipped_cells, 120);
  EXPECT_EQ(again.completed_cells, 0);
  EXPECT_EQ(read_file(part.path() / CampaignRunner::kJsonlFile),
            full_jsonl);
}

TEST(CampaignRunnerTest, ManifestSurvivesSpecGrowth) {
  // IDs are parameter-derived, so enlarging an axis only runs new cells.
  CampaignSpec small;
  small.topologies = {TopologySpec::pops(3, 4)};
  small.loads = {0.2};
  small.seeds = {1, 2};
  small.warmup_slots = 5;
  small.measure_slots = 20;

  ScratchDir dir("grow");
  CampaignOptions options;
  options.out_dir = dir.path().string();
  CampaignRunner(small).run(options);

  CampaignSpec grown = small;
  grown.seeds = {1, 2, 3};
  options.resume = true;
  const campaign::CampaignReport report = CampaignRunner(grown).run(options);
  EXPECT_EQ(report.skipped_cells, 2);
  EXPECT_EQ(report.completed_cells, 1);
}

TEST(CampaignGrid, TrafficAndRoutesAxesExpand) {
  CampaignSpec spec;
  spec.topologies = {TopologySpec::pops(3, 4)};
  spec.traffics = {campaign::TrafficKind::kUniform,
                   campaign::TrafficKind::kHotspot,
                   campaign::TrafficKind::kPermutation,
                   campaign::TrafficKind::kBursty};
  spec.route_tables = {sim::RouteTable::kDense, sim::RouteTable::kCompressed};
  spec.loads = {0.3};
  spec.seeds = {1, 2};
  EXPECT_EQ(spec.cell_count(), 4 * 2 * 2);

  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 16u);
  // Nesting: traffic above load/wavelengths, routes above seed.
  EXPECT_EQ(cells[0].traffic.kind, campaign::TrafficKind::kUniform);
  EXPECT_EQ(cells[4].traffic.kind, campaign::TrafficKind::kHotspot);
  EXPECT_EQ(cells[0].routes, sim::RouteTable::kDense);
  EXPECT_EQ(cells[2].routes, sim::RouteTable::kCompressed);
  EXPECT_EQ(cells[1].seed, 2u);
  EXPECT_EQ(cells[0].id,
            "POPS(3,4)|token|uniform|load=0.300000|w=1|routes=dense|timing=none|"
            "workload=none|seed=1");
  EXPECT_EQ(cells[6].id,
            "POPS(3,4)|token|hotspot(n0,f0.2000)|load=0.300000|w=1|"
            "routes=compressed|timing=none|workload=none|seed=1");
}

TEST(CampaignGrid, TopologySpecProcessorCountMatchesNetworks) {
  EXPECT_EQ(TopologySpec::stack_kautz(4, 3, 2).processor_count(), 48);
  EXPECT_EQ(TopologySpec::stack_kautz(6, 3, 2).processor_count(), 72);
  EXPECT_EQ(TopologySpec::stack_kautz(10, 10, 3).processor_count(), 11000);
  EXPECT_EQ(TopologySpec::pops(6, 12).processor_count(), 72);
  EXPECT_EQ(TopologySpec::stack_imase_itoh(4, 2, 12).processor_count(), 48);
}

TEST(CampaignGrid, CellWeightsSaturateInsteadOfOverflowing) {
  CampaignSpec spec;
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2),
                     TopologySpec::stack_kautz(100000, 100, 3)};
  spec.seeds = {1};
  spec.route_tables = {sim::RouteTable::kDense, sim::RouteTable::kCompressed};
  spec.warmup_slots = 100;
  spec.measure_slots = 1000;
  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 4u);
  // nodes x slots plus half (two cells per topology) of the compile:
  // N^2 router evaluations dense, G^2 compressed (G = N / s groups).
  EXPECT_EQ(campaign::cell_weight(spec, cells[0], 2), 48 * 1100 + 48 * 48 / 2);
  EXPECT_EQ(campaign::cell_weight(spec, cells[1], 2), 48 * 1100 + 12 * 12 / 2);
  // Dense SK(100000,100,3) is a valid spec with ~1.01e11 nodes, whose
  // N^2 compile cost overflowed int64 (signed overflow, UB).
  const std::int64_t nodes = 100000LL * 100 * 100 * 101;
  ASSERT_EQ(spec.topologies[1].processor_count(), nodes);
  EXPECT_EQ(campaign::cell_weight(spec, cells[2], 2),
            std::numeric_limits<std::int64_t>::max());
  // Compressed, every term fits and the weight stays exact.
  const std::int64_t groups = nodes / 100000;
  EXPECT_EQ(campaign::cell_weight(spec, cells[3], 2),
            nodes * 1100 + groups * groups / 2);
}

TEST(CampaignGrid, OverridesResolveExecutionKnobs) {
  CampaignSpec spec;
  spec.topologies = {TopologySpec::pops(3, 4),
                     TopologySpec::stack_kautz(4, 3, 2)};
  spec.seeds = {1};
  campaign::CellOverride override;
  override.topology = "SK(4,3,2)";
  override.engine = sim::Engine::kSharded;
  override.engine_threads = 4;
  override.route_table = sim::RouteTable::kCompressed;
  spec.overrides = {override};

  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].engine, sim::Engine::kPhased);
  EXPECT_EQ(cells[0].routes, sim::RouteTable::kAuto);
  EXPECT_EQ(cells[1].engine, sim::Engine::kSharded);
  EXPECT_EQ(cells[1].engine_threads, 4);
  EXPECT_EQ(cells[1].routes, sim::RouteTable::kCompressed);
  EXPECT_EQ(cells[1].id,
            "SK(4,3,2)|token|uniform|load=0.500000|w=1|routes=compressed|"
            "timing=none|workload=none|seed=1");

  // Several overrides for one topology layer in order, later wins.
  campaign::CellOverride second;
  second.topology = "SK(4,3,2)";
  second.engine_threads = 8;
  spec.overrides.push_back(second);
  EXPECT_EQ(campaign::expand_grid(spec)[1].engine_threads, 8);
  EXPECT_EQ(campaign::expand_grid(spec)[1].engine, sim::Engine::kSharded);
  spec.overrides.pop_back();

  // A pinned route table collapses that topology's routes axis: the
  // dense-vs-compressed comparison grid plus one pinned topology works.
  spec.route_tables = {sim::RouteTable::kDense, sim::RouteTable::kCompressed};
  EXPECT_EQ(spec.cell_count(), 2 + 1);
  const std::vector<campaign::CampaignCell> pinned =
      campaign::expand_grid(spec);
  ASSERT_EQ(pinned.size(), 3u);
  EXPECT_EQ(pinned[0].routes, sim::RouteTable::kDense);
  EXPECT_EQ(pinned[1].routes, sim::RouteTable::kCompressed);
  EXPECT_EQ(pinned[2].routes, sim::RouteTable::kCompressed);
  spec.route_tables = {sim::RouteTable::kAuto};

  // Overrides must name a topology that exists in the grid.
  spec.overrides[0].topology = "SK(9,9,9)";
  EXPECT_THROW(campaign::expand_grid(spec), core::Error);
}

TEST(CampaignSpecJson, ParsesTrafficRoutesAxesAndOverrides) {
  const CampaignSpec spec = campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 2, "g": 3},
                   {"kind": "stack_kautz", "s": 4, "d": 3, "k": 2}],
    "traffic": ["uniform", "hotspot", "bursty"],
    "routes": ["dense", "compressed"],
    "hotspot_node": 1, "hotspot_fraction": 0.5,
    "bursty_enter_on": 0.1, "bursty_exit_on": 0.4,
    "overrides": [{"topology": "SK(4,3,2)", "engine": "sharded",
                   "engine_threads": 2, "routes": "compressed"}]
  })json");
  ASSERT_EQ(spec.traffics.size(), 3u);
  EXPECT_EQ(spec.traffics[0].kind, campaign::TrafficKind::kUniform);
  EXPECT_EQ(spec.traffics[1].kind, campaign::TrafficKind::kHotspot);
  // Plain-string entries inherit the spec-level shape defaults.
  EXPECT_EQ(spec.traffics[1].hotspot_node, 1);
  EXPECT_DOUBLE_EQ(spec.traffics[1].hotspot_fraction, 0.5);
  EXPECT_EQ(spec.traffics[1].label(), "hotspot(n1,f0.5000)");
  EXPECT_EQ(spec.traffics[2].kind, campaign::TrafficKind::kBursty);
  EXPECT_DOUBLE_EQ(spec.traffics[2].bursty_enter_on, 0.1);
  EXPECT_DOUBLE_EQ(spec.traffics[2].bursty_exit_on, 0.4);
  EXPECT_EQ(spec.traffics[2].label(), "bursty(on0.1000,off0.4000)");
  EXPECT_EQ(spec.route_tables,
            (std::vector<sim::RouteTable>{sim::RouteTable::kDense,
                                          sim::RouteTable::kCompressed}));
  EXPECT_EQ(spec.hotspot_node, 1);
  EXPECT_DOUBLE_EQ(spec.hotspot_fraction, 0.5);
  EXPECT_DOUBLE_EQ(spec.bursty_enter_on, 0.1);
  EXPECT_DOUBLE_EQ(spec.bursty_exit_on, 0.4);
  ASSERT_EQ(spec.overrides.size(), 1u);
  EXPECT_EQ(spec.overrides[0].topology, "SK(4,3,2)");
  EXPECT_EQ(spec.overrides[0].engine, sim::Engine::kSharded);
  EXPECT_EQ(spec.overrides[0].engine_threads, 2);
  EXPECT_EQ(spec.overrides[0].route_table, sim::RouteTable::kCompressed);

  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "traffic": ["poisson"]})"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "routes": ["sparse"]})"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "overrides": [{"topology": "POPS(2,3)",
                                      "route": "dense"}]})json"),
               core::Error);
}

TEST(CampaignRunnerTest, TrafficAxisFlowsThroughToRows) {
  CampaignSpec spec;
  spec.name = "traffic-axis";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.traffics = {campaign::TrafficKind::kUniform,
                   campaign::TrafficKind::kHotspot,
                   campaign::TrafficKind::kPermutation,
                   campaign::TrafficKind::kBursty};
  spec.loads = {0.4};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 60;

  ScratchDir dir("traffic");
  CampaignOptions options;
  options.threads = 4;
  options.out_dir = dir.path().string();
  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run(options);

  // One aggregate group per traffic family (the seed axis folds), so
  // the sink must key on traffic, not only on (load, wavelengths).
  ASSERT_EQ(aggregate->groups().size(), 4u);

  std::map<std::string, int> by_traffic;
  std::istringstream lines(read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::string line;
  while (std::getline(lines, line)) {
    const core::Json row = core::Json::parse(line);
    ++by_traffic[row.at("traffic").as_string()];
    EXPECT_EQ(row.at("routes").as_string(), "auto");
    // Each family must actually move packets in this tiny window.
    EXPECT_GT(row.at("delivered").as_int(), 0);
  }
  EXPECT_EQ(by_traffic["uniform"], 2);
  // Shaped families carry their parameters in the row label.
  EXPECT_EQ(by_traffic["hotspot(n0,f0.2000)"], 2);
  EXPECT_EQ(by_traffic["permutation"], 2);
  EXPECT_EQ(by_traffic["bursty(on0.0500,off0.2000)"], 2);
}

TEST(CampaignRunnerTest, DenseAndCompressedCellsProduceIdenticalMetrics) {
  CampaignSpec spec;
  spec.name = "routes-parity";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2),
                     TopologySpec::pops(6, 12),
                     TopologySpec::stack_imase_itoh(4, 2, 12)};
  spec.route_tables = {sim::RouteTable::kDense, sim::RouteTable::kCompressed};
  spec.loads = {0.5};
  spec.seeds = {3};
  spec.warmup_slots = 10;
  spec.measure_slots = 80;

  ScratchDir dir("routesparity");
  CampaignOptions options;
  options.threads = 2;
  options.out_dir = dir.path().string();
  campaign::reset_topology_compile_count();
  const campaign::CampaignReport report = CampaignRunner(spec).run(options);
  EXPECT_EQ(report.completed_cells, 6);
  // Both representations of a topology come from ONE build call.
  EXPECT_EQ(campaign::topology_compile_count(), 3);

  // Per topology, the dense and compressed rows must agree on every
  // metric -- only cell_id and the routes field may differ.
  std::map<std::string, std::string> stripped;
  std::istringstream lines(read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    const core::Json row = core::Json::parse(line);
    const std::string topology = row.at("topology").as_string();
    std::ostringstream metrics;
    metrics << row.at("offered").as_int() << "/"
            << row.at("delivered").as_int() << "/"
            << row.at("collisions").as_int() << "/"
            << row.at("coupler_transmissions").as_int() << "/"
            << row.at("backlog").as_int() << "/"
            << row.at("mean_latency").as_number() << "/"
            << row.at("p95_latency").as_number();
    auto [it, inserted] = stripped.try_emplace(topology, metrics.str());
    if (!inserted) {
      EXPECT_EQ(it->second, metrics.str())
          << topology << ": dense and compressed rows must be identical";
    }
  }
  EXPECT_EQ(rows, 6);
}

TEST(CampaignRunnerTest, ShardsPartitionTheGridAndMergeToFullOutputs) {
  const CampaignSpec spec = acceptance_spec();

  ScratchDir full("shardfull");
  CampaignOptions full_options;
  full_options.threads = 4;
  full_options.out_dir = full.path().string();
  CampaignRunner(spec).run(full_options);

  // Three machines, deterministic split: every cell exactly once.
  constexpr int kShards = 3;
  std::vector<std::unique_ptr<ScratchDir>> dirs;
  std::multiset<std::string> shard_jsonl_lines;
  std::string merged_manifest;
  std::string merged_jsonl;
  std::int64_t completed_total = 0;
  for (int i = 0; i < kShards; ++i) {
    dirs.push_back(
        std::make_unique<ScratchDir>("shard" + std::to_string(i)));
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = dirs.back()->path().string();
    options.shard_index = i;
    options.shard_count = kShards;
    const campaign::CampaignReport report = CampaignRunner(spec).run(options);
    EXPECT_EQ(report.total_cells, 120);
    EXPECT_EQ(report.completed_cells + report.out_of_shard_cells, 120);
    completed_total += report.completed_cells;
    const std::string jsonl =
        read_file(dirs.back()->path() / CampaignRunner::kJsonlFile);
    merged_jsonl += jsonl;
    merged_manifest +=
        read_file(dirs.back()->path() / CampaignRunner::kManifestFile);
    std::istringstream lines(jsonl);
    std::string line;
    while (std::getline(lines, line)) {
      shard_jsonl_lines.insert(line);
    }
  }
  EXPECT_EQ(completed_total, 120);

  // The shards' rows are exactly the full run's rows (order aside).
  std::multiset<std::string> full_lines;
  {
    std::istringstream lines(
        read_file(full.path() / CampaignRunner::kJsonlFile));
    std::string line;
    while (std::getline(lines, line)) {
      full_lines.insert(line);
    }
  }
  EXPECT_EQ(shard_jsonl_lines, full_lines);

  // Concatenating shard outputs yields a directory --resume recognizes
  // as a complete campaign: nothing left to simulate.
  ScratchDir merged("shardmerged");
  std::ofstream(merged.path() / CampaignRunner::kJsonlFile) << merged_jsonl;
  std::ofstream(merged.path() / CampaignRunner::kManifestFile)
      << merged_manifest;
  CampaignOptions resume_options;
  resume_options.out_dir = merged.path().string();
  resume_options.resume = true;
  resume_options.write_csv = false;
  const campaign::CampaignReport resumed =
      CampaignRunner(spec).run(resume_options);
  EXPECT_EQ(resumed.skipped_cells, 120);
  EXPECT_EQ(resumed.completed_cells, 0);

  // --resume composes with --shard: a shard resumed against the merged
  // manifest has no pending work either.
  resume_options.shard_index = 1;
  resume_options.shard_count = kShards;
  const campaign::CampaignReport shard_resumed =
      CampaignRunner(spec).run(resume_options);
  EXPECT_EQ(shard_resumed.completed_cells, 0);
  EXPECT_EQ(shard_resumed.skipped_cells, 40);
  EXPECT_EQ(shard_resumed.out_of_shard_cells, 80);
}

TEST(CampaignRunnerTest, LargeCompressedWdmCellRunsEndToEnd) {
  // The wdm_scale shape at test size: a >= 10^4-processor stack-Kautz
  // cell on the sharded engine with compressed routes, end to end
  // through spec -> grid -> runner -> sinks. The dense table (~1 GB)
  // is never materialized.
  CampaignSpec spec;
  spec.name = "wdm-scale-cell";
  spec.topologies = {TopologySpec::stack_kautz(10, 10, 3)};
  spec.traffics = {campaign::TrafficKind::kUniform};
  spec.loads = {0.5};
  spec.wavelengths = {4};
  spec.route_tables = {sim::RouteTable::kCompressed};
  spec.seeds = {1};
  spec.warmup_slots = 5;
  spec.measure_slots = 30;
  spec.engine = sim::Engine::kSharded;
  spec.engine_threads = 2;

  ScratchDir dir("wdmscale");
  CampaignOptions options;
  options.out_dir = dir.path().string();
  const campaign::CampaignReport report = CampaignRunner(spec).run(options);
  EXPECT_EQ(report.completed_cells, 1);

  const std::string jsonl =
      read_file(dir.path() / CampaignRunner::kJsonlFile);
  const core::Json row = core::Json::parse(jsonl);
  EXPECT_EQ(row.at("nodes").as_int(), 11000);
  EXPECT_EQ(row.at("routes").as_string(), "compressed");
  EXPECT_GT(row.at("delivered").as_int(), 0);
}

TEST(CampaignSpecJson, ParsesShapeSweepsAndTimingAxis) {
  const CampaignSpec spec = campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 2, "g": 3}],
    "traffic": ["uniform",
                {"kind": "hotspot", "node": 2, "fraction": [0.1, 0.3]},
                {"kind": "bursty", "enter_on": 0.05, "exit_on": [0.1, 0.2]}],
    "timings": ["none",
                {"profile": "const", "tuning": [256, 512],
                 "propagation": 128},
                {"profile": "level", "propagation": 64, "level_skew": 32,
                 "guard": 16}]
  })json");
  // Sweep arrays expand into one axis entry per value.
  ASSERT_EQ(spec.traffics.size(), 5u);
  EXPECT_EQ(spec.traffics[1].label(), "hotspot(n2,f0.1000)");
  EXPECT_EQ(spec.traffics[2].label(), "hotspot(n2,f0.3000)");
  EXPECT_EQ(spec.traffics[3].label(), "bursty(on0.0500,off0.1000)");
  EXPECT_EQ(spec.traffics[4].label(), "bursty(on0.0500,off0.2000)");
  ASSERT_EQ(spec.timings.size(), 4u);
  EXPECT_EQ(spec.timings[0].label(), "none");
  EXPECT_EQ(spec.timings[1].label(), "const(t256,p128,g0)");
  EXPECT_EQ(spec.timings[2].label(), "const(t512,p128,g0)");
  EXPECT_EQ(spec.timings[3].label(), "level(t0,p64,l32,g16)");
  EXPECT_EQ(spec.cell_count(), 5 * 4);

  // Non-slot-aligned cells run on the async engine; aligned cells keep
  // the spec engine. The timing label is part of the cell ID.
  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 20u);
  EXPECT_EQ(cells[0].engine, sim::Engine::kPhased);
  EXPECT_EQ(cells[1].engine, sim::Engine::kAsync);
  EXPECT_EQ(cells[1].id,
            "POPS(2,3)|token|uniform|load=0.500000|w=1|routes=auto|"
            "timing=const(t256,p128,g0)|workload=none|seed=1");

  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "timings": ["fast"]})json"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "timings": [{"profile": "warp"}]})json"),
               core::Error);
  // Fractional ticks must fail loudly, not truncate into a cell ID
  // that was never simulated.
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "timings": [{"profile": "const",
                                    "tuning": [256.5]}]})json"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "traffic": [{"kind": "hotspot", "fracton": 0.2}]})json"),
               core::Error);
}

TEST(CampaignRunnerTest, ShapeSweepsProduceDistinctGroups) {
  // Two hotspot fractions in one grid: distinct cells, distinct
  // aggregate groups, and the hotter fraction concentrates traffic.
  CampaignSpec spec;
  spec.name = "shape-sweep";
  spec.topologies = {TopologySpec::pops(6, 4)};
  campaign::TrafficSpec mild(campaign::TrafficKind::kHotspot);
  mild.hotspot_fraction = 0.1;
  campaign::TrafficSpec hot = mild;
  hot.hotspot_fraction = 0.9;
  spec.traffics = {mild, hot};
  spec.loads = {0.5};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 200;

  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run({});
  ASSERT_EQ(aggregate->groups().size(), 2u);
  EXPECT_EQ(aggregate->groups()[0].traffic, "hotspot(n0,f0.1000)");
  EXPECT_EQ(aggregate->groups()[1].traffic, "hotspot(n0,f0.9000)");
  // Funnelling 90% of traffic into one node must hurt throughput.
  EXPECT_LT(aggregate->groups()[1].point.throughput_per_node,
            aggregate->groups()[0].point.throughput_per_node);
}

TEST(CampaignRunnerTest, TimingAxisFlowsThroughToRowsAndAggregate) {
  CampaignSpec spec;
  spec.name = "timing-axis";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  sim::TimingConfig skewed;
  skewed.profile = sim::SkewProfile::kConstant;
  skewed.tuning_ticks = 3 * sim::kTicksPerSlot;
  spec.timings = {sim::TimingConfig{}, skewed};
  spec.loads = {0.3};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 200;

  ScratchDir dir("timing");
  CampaignOptions options;
  options.threads = 2;
  options.out_dir = dir.path().string();
  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run(options);

  std::map<std::string, double> latency_by_timing;
  std::istringstream lines(
      read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    const core::Json row = core::Json::parse(line);
    latency_by_timing[row.at("timing").as_string()] =
        row.at("mean_latency").as_number();
    EXPECT_NE(row.at("cell_id").as_string().find("|timing="),
              std::string::npos);
  }
  EXPECT_EQ(rows, 4);
  ASSERT_EQ(latency_by_timing.count("none"), 1u);
  ASSERT_EQ(latency_by_timing.count("const(t3072,p0,g0)"), 1u);
  // Three slots of tuning per hop must show up in the latency.
  EXPECT_GT(latency_by_timing["const(t3072,p0,g0)"],
            latency_by_timing["none"] + 2.0);

  // The aggregate keys on timing: one group per axis value.
  ASSERT_EQ(aggregate->groups().size(), 2u);
  EXPECT_EQ(aggregate->groups()[0].timing, "none");
  EXPECT_EQ(aggregate->groups()[1].timing, "const(t3072,p0,g0)");
}

TEST(WorkStealingPool, RunsEveryItemOnceAndPropagatesErrors) {
  campaign::WorkStealingPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) {
    h = 0;
  }
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  // Reusable across batches (persistent threads).
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 2);
  }
  EXPECT_THROW(pool.run(8,
                        [](std::size_t i) {
                          if (i == 5) {
                            throw core::Error("boom");
                          }
                        }),
               core::Error);
}

// ------------------------------------------------------- workload axis

TEST(CampaignWorkloadTest, WorkloadAxisExpandsAndCarriesLabels) {
  CampaignSpec spec;
  spec.topologies = {TopologySpec::pops(4, 6)};
  spec.loads = {0.0};
  spec.seeds = {1};
  spec.workloads = {campaign::WorkloadSpec{},
                    campaign::WorkloadSpec{campaign::WorkloadKind::kGossip}};
  EXPECT_EQ(spec.cell_count(), 2);
  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].id,
            "POPS(4,6)|token|uniform|load=0.000000|w=1|routes=auto|"
            "timing=none|workload=none|seed=1");
  EXPECT_EQ(cells[1].id,
            "POPS(4,6)|token|uniform|load=0.000000|w=1|routes=auto|"
            "timing=none|workload=gossip|seed=1");

  // Labels carry the shape parameters.
  campaign::WorkloadSpec bsp{campaign::WorkloadKind::kBsp};
  bsp.phases = 3;
  bsp.shift = 2;
  EXPECT_EQ(bsp.label(), "bsp(p3,s2)");
  campaign::WorkloadSpec reduce{campaign::WorkloadKind::kReduce};
  reduce.root = 4;
  reduce.arity = 3;
  EXPECT_EQ(reduce.label(), "reduce(r4,a3)");
  campaign::WorkloadSpec trace{campaign::WorkloadKind::kTrace};
  trace.trace_file = "/some/dir/uniform.trace";
  EXPECT_EQ(trace.label(), "trace(uniform.trace)");
}

TEST(CampaignWorkloadTest, ParsesWorkloadsJsonAndRejectsBadSpecs) {
  const CampaignSpec spec = campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "loads": [0.0],
    "workloads": ["none", {"kind": "one_to_all", "root": 2}, "gossip",
                  {"kind": "bsp", "phases": [2, 4]},
                  {"kind": "reduce", "arity": 3},
                  {"kind": "gather", "root": 1},
                  {"kind": "trace", "file": "t.trace"}]
  })json");
  ASSERT_EQ(spec.workloads.size(), 8u);  // bsp sweeps into 2 entries
  EXPECT_EQ(spec.workloads[1].label(), "one_to_all(r2)");
  EXPECT_EQ(spec.workloads[3].label(), "bsp(p2,s1)");
  EXPECT_EQ(spec.workloads[4].label(), "bsp(p4,s1)");
  EXPECT_EQ(spec.workloads[5].label(), "reduce(r0,a3)");
  EXPECT_EQ(spec.workloads[7].trace_file, "t.trace");

  // Unknown kinds and keys fail loudly.
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "workloads": ["alltoall"]})json"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "workloads": [{"kind": "bsp", "root": 3}]})json"),
               core::Error);
  // Trace workloads need a file.
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "workloads": [{"kind": "trace"}]})json"),
               core::Error);
  // Schedule kernels cannot run on stack-Imase-Itoh topologies.
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "stack_imase_itoh", "s": 4, "d": 2, "n": 12}],
    "workloads": ["gossip"]})json"),
               core::Error);
  // Closed-loop cells need unbounded VOQs.
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "queue_capacity": 16, "workloads": ["gossip"]})json"),
               core::Error);
  // A root must be a valid node of every topology in the grid (the
  // cross product would otherwise abort mid-run).
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "workloads": [{"kind": "gather", "root": 64}]})json"),
               core::Error);
  // The tests-only event-queue fixture has no delivery feedback: a
  // workload grid pinned to it (spec-level or via override) is refused.
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "engine": "event-queue", "workloads": ["gossip"]})json"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "workloads": ["gossip"],
    "overrides": [{"topology": "POPS(4,6)", "engine": "event-queue"}]})json"),
               core::Error);
}

TEST(CampaignWorkloadTest, WorkloadCellsRunToCompletionWithMakespan) {
  CampaignSpec spec;
  spec.name = "workload-cells";
  spec.topologies = {TopologySpec::pops(6, 12),
                     TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.0};
  spec.seeds = {1};
  spec.warmup_slots = 5;   // ignored by workload cells
  spec.measure_slots = 50;
  spec.workloads = {
      campaign::WorkloadSpec{campaign::WorkloadKind::kOneToAll},
      campaign::WorkloadSpec{campaign::WorkloadKind::kGossip},
      campaign::WorkloadSpec{campaign::WorkloadKind::kGather}};

  ScratchDir dir("workload-cells");
  CampaignOptions options;
  options.threads = 2;
  options.out_dir = dir.path().string();
  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run(options);

  // Uncontended schedule cells hit the analytic bounds exactly:
  // POPS(6,12) broadcasts in 1 and gossips in t = 6; SK(4,3,2)
  // broadcasts in k = 2 and gossips in s + k = 6.
  std::map<std::string, std::map<std::string, std::int64_t>> makespans;
  std::istringstream lines(
      read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    const core::Json row = core::Json::parse(line);
    makespans[row.at("topology").as_string()]
             [row.at("workload").as_string()] =
        row.at("makespan").as_int();
    EXPECT_DOUBLE_EQ(row.at("delivered_fraction").as_number(), 1.0);
    EXPECT_EQ(row.at("backlog").as_int(), 0);
  }
  EXPECT_EQ(rows, 6);
  EXPECT_EQ(makespans["POPS(6,12)"]["one_to_all(r0)"], 1);
  EXPECT_EQ(makespans["POPS(6,12)"]["gossip"], 6);
  EXPECT_EQ(makespans["SK(4,3,2)"]["one_to_all(r0)"], 2);
  EXPECT_EQ(makespans["SK(4,3,2)"]["gossip"], 6);
  EXPECT_GT(makespans["POPS(6,12)"]["gather(r0)"], 1);

  // The aggregate keys on workload and carries the makespan.
  ASSERT_EQ(aggregate->groups().size(), 6u);
  EXPECT_EQ(aggregate->groups()[0].workload, "one_to_all(r0)");
  EXPECT_DOUBLE_EQ(aggregate->groups()[0].point.makespan, 1.0);

  // The CSV carries the workload and makespan columns.
  const std::string csv = read_file(dir.path() / CampaignRunner::kCsvFile);
  EXPECT_NE(csv.find(",workload,"), std::string::npos);
  EXPECT_NE(csv.find(",makespan"), std::string::npos);
  EXPECT_NE(csv.find("\"gossip\""), std::string::npos);
}

TEST(CampaignWorkloadTest, TraceFileCellsReplayEndToEnd) {
  // Record a tiny synthetic trace, point a campaign cell at the file.
  workload::Trace trace;
  trace.nodes = 24;  // POPS(4,6)
  trace.entries = {{0, 0, 7}, {0, 3, 12}, {1, 5, 2}, {4, 23, 11}};
  ScratchDir dir("trace-cell");
  const std::string trace_path = (dir.path() / "tiny.trace").string();
  trace.save_binary(trace_path);

  CampaignSpec spec;
  spec.topologies = {TopologySpec::pops(4, 6)};
  spec.loads = {0.0};
  spec.seeds = {1};
  campaign::WorkloadSpec entry{campaign::WorkloadKind::kTrace};
  entry.trace_file = trace_path;
  spec.workloads = {entry};

  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run(CampaignOptions{});
  ASSERT_EQ(aggregate->groups().size(), 1u);
  EXPECT_EQ(aggregate->groups()[0].workload, "trace(tiny.trace)");
  EXPECT_DOUBLE_EQ(aggregate->groups()[0].point.delivered_fraction, 1.0);
  EXPECT_GE(aggregate->groups()[0].point.makespan, 5.0);

  // A trace recorded on the wrong node count is refused.
  CampaignSpec wrong = spec;
  wrong.topologies = {TopologySpec::pops(6, 12)};
  CampaignRunner bad(wrong);
  EXPECT_THROW(bad.run(CampaignOptions{}), core::Error);
}

TEST(CampaignWorkloadTest, WorkloadCellsAreThreadCountInvariant) {
  CampaignSpec spec;
  spec.name = "workload-invariance";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.arbitrations = {sim::Arbitration::kTokenRoundRobin,
                       sim::Arbitration::kRandomWinner};
  spec.loads = {0.3};  // background traffic beside the collective
  spec.seeds = {1, 2};
  spec.workloads = {
      campaign::WorkloadSpec{campaign::WorkloadKind::kGossip}};

  std::string reference;
  for (const int threads : {1, 3}) {
    ScratchDir dir("wl-threads-" + std::to_string(threads));
    CampaignOptions options;
    options.threads = threads;
    options.out_dir = dir.path().string();
    CampaignRunner runner(spec);
    runner.run(options);
    const std::string jsonl =
        read_file(dir.path() / CampaignRunner::kJsonlFile);
    if (reference.empty()) {
      reference = jsonl;
    } else {
      EXPECT_EQ(reference, jsonl);
    }
  }
}

TEST(CampaignRunnerTest, CheckpointDrillThenResumeIsByteIdentical) {
  // The crash drill: a --checkpoint-stop run interrupts every open-loop
  // cell mid-window (blobs on disk, nothing in the result files), and a
  // --resume run finishes them from the blobs. The resumed directory's
  // results must match an uninterrupted run's byte for byte, and the
  // per-cell blobs must be gone once their cells complete.
  CampaignSpec spec;
  spec.name = "drill";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.3, 0.7};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 120;
  spec.checkpoint_every = 30;

  ScratchDir uninterrupted("ckpt-full");
  {
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = uninterrupted.path().string();
    CampaignRunner runner(spec);
    const campaign::CampaignReport report = runner.run(options);
    EXPECT_EQ(report.completed_cells, 4);
    EXPECT_EQ(report.interrupted_cells, 0);
    // Completed cells clean up their blobs.
    EXPECT_TRUE(std::filesystem::is_empty(uninterrupted.path() /
                                          "checkpoints"));
  }

  ScratchDir drilled("ckpt-drill");
  {
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = drilled.path().string();
    options.checkpoint_stop = 50;  // dies at the slot-60 boundary
    CampaignRunner runner(spec);
    const campaign::CampaignReport report = runner.run(options);
    EXPECT_EQ(report.interrupted_cells, 4);
    EXPECT_EQ(report.completed_cells, 0);
    std::size_t blobs = 0;
    for (const auto& entry : std::filesystem::directory_iterator(
             drilled.path() / "checkpoints")) {
      blobs += entry.is_regular_file() ? 1 : 0;
    }
    EXPECT_EQ(blobs, 4u);
    // Interrupted cells reach no sink and no manifest line.
    EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kJsonlFile), "");
    EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kManifestFile), "");
  }
  {
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = drilled.path().string();
    options.resume = true;
    CampaignRunner runner(spec);
    const campaign::CampaignReport report = runner.run(options);
    EXPECT_EQ(report.completed_cells, 4);
    EXPECT_EQ(report.interrupted_cells, 0);
  }
  EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kJsonlFile),
            read_file(uninterrupted.path() / CampaignRunner::kJsonlFile));
  EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kCsvFile),
            read_file(uninterrupted.path() / CampaignRunner::kCsvFile));
  EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kManifestFile),
            read_file(uninterrupted.path() / CampaignRunner::kManifestFile));
  EXPECT_TRUE(std::filesystem::is_empty(drilled.path() / "checkpoints"));
}

/// Timeseries rows grouped by their cell, each cell's in file order.
std::map<std::string, std::vector<std::string>> rows_by_cell(
    const std::filesystem::path& path) {
  std::map<std::string, std::vector<std::string>> rows;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    rows[core::Json::parse(line).at("cell").as_string()].push_back(line);
  }
  return rows;
}

TEST(CampaignRunnerTest, ResumeKeepsEachCellsTimeseriesRows) {
  // --resume must leave every cell with exactly the timeseries rows an
  // uninterrupted run writes for it: a completed cell keeps its rows, a
  // cell resumed from its blob gets its rows up to the checkpoint back
  // (one schema row, no gap, no duplicate), and a cell rerun from slot 0
  // (blob damaged or missing) keeps no stale rows. The runtime channel
  // appends under --resume instead of starting over.
  CampaignSpec spec;
  spec.name = "drill-timeseries";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.3, 0.7};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 120;
  spec.checkpoint_every = 30;
  spec.engine = sim::Engine::kAsyncSharded;
  spec.engine_threads = 2;
  spec.telemetry.sample_period = 16;
  spec.telemetry.timeseries_path = "timeseries.jsonl";
  spec.runtime_stats_path = "runtime.jsonl";
  const auto run = [&](const std::filesystem::path& dir, bool resume,
                       std::int64_t stop) {
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = dir.string();
    options.resume = resume;
    options.checkpoint_stop = stop;
    CampaignRunner runner(spec);
    return runner.run(options);
  };

  ScratchDir fresh("ts-fresh");
  EXPECT_EQ(run(fresh.path(), false, -1).completed_cells, 4);
  const auto want = rows_by_cell(fresh.path() / "timeseries.jsonl");
  ASSERT_EQ(want.size(), 4u);
  const std::string runtime_before = read_file(fresh.path() / "runtime.jsonl");
  ASSERT_FALSE(runtime_before.empty());

  // A completed campaign run again with --resume: nothing reruns.
  const campaign::CampaignReport again = run(fresh.path(), true, -1);
  EXPECT_EQ(again.skipped_cells, 4);
  EXPECT_EQ(rows_by_cell(fresh.path() / "timeseries.jsonl"), want);
  EXPECT_EQ(read_file(fresh.path() / "runtime.jsonl").rfind(runtime_before, 0),
            0u)
      << "runtime rows of the first invocation were lost";

  // The drill: every cell stops after its slot-60 checkpoint; then cell
  // 0's blob is damaged and cell 1's removed, so those two rerun from
  // slot 0 while cells 2 and 3 resume from their blobs.
  ScratchDir drilled("ts-drill");
  EXPECT_EQ(run(drilled.path(), false, 50).interrupted_cells, 4);
  const std::filesystem::path blobs = drilled.path() / "checkpoints";
  {
    std::fstream blob(blobs / "cell-0.ckpt",
                      std::ios::in | std::ios::out | std::ios::binary);
    blob.seekg(0, std::ios::end);
    const std::streamoff middle = blob.tellg() / 2;
    blob.seekg(middle);
    const char byte = static_cast<char>(blob.get() ^ 0x40);
    blob.seekp(middle);
    blob.put(byte);
  }
  ASSERT_TRUE(std::filesystem::remove(blobs / "cell-1.ckpt"));
  EXPECT_EQ(run(drilled.path(), true, -1).completed_cells, 4);
  EXPECT_EQ(rows_by_cell(drilled.path() / "timeseries.jsonl"), want);
  EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kJsonlFile),
            read_file(fresh.path() / CampaignRunner::kJsonlFile));
}

TEST(CampaignRunnerTest, SketchLatencyModeRunsTheGrid) {
  // latency_stats: "sketch" flips every cell to the O(1)-memory sketch;
  // the grid still runs end to end and reports plausible percentiles.
  CampaignSpec spec;
  spec.name = "sketch";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.5};
  spec.seeds = {1};
  spec.warmup_slots = 10;
  spec.measure_slots = 60;
  spec.latency_stats = sim::LatencyMode::kSketch;

  ScratchDir dir("sketch");
  CampaignOptions options;
  options.out_dir = dir.path().string();
  CampaignRunner runner(spec);
  const campaign::CampaignReport report = runner.run(options);
  EXPECT_EQ(report.completed_cells, 1);
  const std::string jsonl = read_file(dir.path() / CampaignRunner::kJsonlFile);
  EXPECT_NE(jsonl.find("\"p95_latency\""), std::string::npos);
}

/// A plausible open-loop row: 48 nodes, 36 couplers, 100 slots, W = 2.
campaign::CellResult good_row() {
  campaign::CellResult r;
  r.cell.id = "synthetic|cell";
  r.cell.wavelengths = 2;
  r.nodes = 48;
  r.couplers = 36;
  r.metrics.slots = 100;
  r.metrics.offered_packets = 1500;
  r.metrics.delivered_packets = 1400;
  r.metrics.coupler_transmissions = 3000;
  r.metrics.collisions = 40;
  r.metrics.backlog = 100;
  r.metrics.latency.record(1);
  r.metrics.latency.record(4);
  return r;
}

/// check_row must reject `r`, naming the cell and `field`.
void expect_row_rejected(const campaign::CellResult& r,
                         const std::string& field) {
  try {
    campaign::check_row(r);
    ADD_FAILURE() << "row accepted; expected a complaint about " << field;
  } catch (const core::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(r.cell.id), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

TEST(CheckRowTest, AcceptsAPlausibleRow) {
  EXPECT_NO_THROW(campaign::check_row(good_row()));
  campaign::CellResult closed = good_row();
  closed.cell.workload.kind = campaign::WorkloadKind::kBsp;
  closed.workload_completed = true;
  closed.metrics.backlog = 0;
  closed.metrics.delivered_packets = closed.metrics.offered_packets;
  EXPECT_NO_THROW(campaign::check_row(closed));
  // A closed loop cut off by the slot bound may end with a backlog.
  campaign::CellResult cut = good_row();
  cut.cell.workload.kind = campaign::WorkloadKind::kBsp;
  EXPECT_NO_THROW(campaign::check_row(cut));
}

TEST(CheckRowTest, RejectsEachBrokenInvariant) {
  campaign::CellResult r = good_row();
  r.metrics.latency = sim::LatencyStats();
  r.metrics.latency.record(0);
  expect_row_rejected(r, "latency");

  r = good_row();
  r.metrics.delivered_packets = -1;
  expect_row_rejected(r, "throughput_per_node");

  // More than one packet per node-slot is fine (warm-up backlog, bursty
  // workloads) as long as every delivery ended a transmission.
  r = good_row();
  r.metrics.coupler_transmissions = 6000;
  r.metrics.delivered_packets = 48 * 100 + 1;
  EXPECT_NO_THROW(campaign::check_row(r));
  r.metrics.delivered_packets = r.metrics.coupler_transmissions + 1;
  expect_row_rejected(r, "delivered");

  r = good_row();
  r.metrics.coupler_transmissions = 36 * 100 * 2 + 1;
  expect_row_rejected(r, "coupler_utilization_per_wavelength");

  r = good_row();
  r.metrics.collisions = 36 * 100 + 1;
  expect_row_rejected(r, "collisions_per_coupler_slot");

  r = good_row();
  r.metrics.coupler_transmissions = -5;
  expect_row_rejected(r, "coupler_utilization_per_wavelength");

  r = good_row();
  r.metrics.collisions = -5;
  expect_row_rejected(r, "collisions_per_coupler_slot");

  r = good_row();
  r.metrics.coupler_transmissions = 10;
  r.metrics.collisions = -6;
  r.metrics.slots = 0;
  expect_row_rejected(r, "transmission_success");

  r = good_row();
  r.cell.workload.kind = campaign::WorkloadKind::kBsp;
  r.workload_completed = true;
  r.metrics.delivered_packets = r.metrics.offered_packets;
  r.metrics.backlog = 3;
  expect_row_rejected(r, "backlog");

  r = good_row();
  r.cell.workload.kind = campaign::WorkloadKind::kBsp;
  r.workload_completed = true;
  r.metrics.backlog = 0;
  r.metrics.delivered_packets = r.metrics.offered_packets - 1;
  expect_row_rejected(r, "delivered");
}

}  // namespace
