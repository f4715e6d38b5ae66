// Intra-cell checkpoint/restore (sim/checkpoint.hpp) bit-parity:
//  - saving checkpoints is side-effect free: a run that writes blobs
//    every K slots returns the same RunMetrics and coupler-success
//    vector as one that never checkpoints;
//  - an interrupted run (checkpoint_stop_at drill) plus a resumed run
//    is bit-identical to an uninterrupted run on the phased, sharded,
//    async and async-sharded engines across worker counts {1, 2, 5, 8};
//  - sharded blobs are thread-count independent: save under one worker
//    count, resume under another;
//  - timed (skewed) async runs and stateful (bursty) traffic round-trip
//    through the blob;
//  - telemetry continues across the interruption: the interrupted and
//    resumed timeseries files concatenate to the uninterrupted stream,
//    byte for byte, and final probe values match;
//  - a blob whose fingerprint does not match the resuming run (seed or
//    engine changed) is silently ignored -- the run starts fresh;
//  - a damaged blob (one flipped byte) or a truncated one fails its
//    checksum trailer and is ignored the same way, never restored;
//  - the event-queue engine and path-less checkpoint configs are
//    rejected at construction;
//  - the blob bytes themselves are pinned: a saturated sharded cell and
//    a skewed async-sharded cell, stopped after their queues wrapped
//    and grew, write blobs with fixed checksums, so a change to the VOQ
//    arena's layout cannot silently change the format.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/blob.hpp"
#include "core/error.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "obs/probe.hpp"
#include "obs/telemetry.hpp"
#include "routing/compiled_routes.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/timing_model.hpp"
#include "sim/traffic.hpp"
#include "sim/voq_arena.hpp"

namespace {

using namespace otis;

std::string read_bytes(const std::filesystem::path& path) {
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
              ("otis_ckpt_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Exact equality of every metric, including the latency distribution.
void expect_identical(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.coupler_transmissions, b.coupler_transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.makespan_slots, b.makespan_slots);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.percentile(0.5), b.latency.percentile(0.5));
  EXPECT_EQ(a.latency.percentile(0.95), b.latency.percentile(0.95));
}

constexpr std::int64_t kWarmup = 50;
constexpr std::int64_t kMeasure = 400;
constexpr std::int64_t kEvery = 60;    // checkpoint stride (slots)
constexpr std::int64_t kStopAt = 120;  // drill: die at this boundary

struct RunOptions {
  std::int64_t every = 0;
  std::string path;
  bool resume = false;
  std::int64_t stop_at = -1;
  std::shared_ptr<obs::Telemetry> telemetry;
  sim::TimingConfig timing;
  std::uint64_t seed = 42;
  bool drain = false;
  bool bursty = false;
  double load = 0.35;  ///< uniform traffic load (ignored when bursty)
};

struct RunResult {
  sim::RunMetrics metrics;
  std::vector<std::int64_t> coupler_success;
};

/// One SK(4,3,2) run under the given checkpoint configuration.
RunResult run_sk(sim::Engine engine, int threads, const RunOptions& o) {
  hypergraph::StackKautz sk(4, 3, 2);
  sim::SimConfig config;
  config.warmup_slots = kWarmup;
  config.measure_slots = kMeasure;
  config.seed = o.seed;
  config.engine = engine;
  config.threads = threads;
  config.drain = o.drain;
  config.timing = o.timing;
  config.telemetry = o.telemetry;
  config.checkpoint_every_slots = o.every;
  config.checkpoint_path = o.path;
  config.checkpoint_resume = o.resume;
  config.checkpoint_stop_at = o.stop_at;
  std::unique_ptr<sim::TrafficGenerator> traffic;
  if (o.bursty) {
    traffic = std::make_unique<sim::BurstyTraffic>(sk.processor_count(), 0.8,
                                                   0.05, 0.2);
  } else {
    traffic =
        std::make_unique<sim::UniformTraffic>(sk.processor_count(), o.load);
  }
  sim::OpsNetworkSim sim(
      sk.stack(),
      std::make_shared<const routing::CompiledRoutes>(
          routing::compile_stack_kautz_routes(sk)),
      std::move(traffic), config);
  RunResult result;
  result.metrics = sim.run();
  result.coupler_success = sim.coupler_successes();
  return result;
}

/// The uninterrupted reference, the interrupted (drill) leg, and the
/// resumed leg for one (engine, threads) cell; compares resume against
/// reference.
void expect_resume_parity(sim::Engine engine, int threads,
                          const std::filesystem::path& blob,
                          const RunOptions& base = {}) {
  const RunResult reference = run_sk(engine, threads, base);

  RunOptions drill = base;
  drill.every = kEvery;
  drill.path = blob.string();
  drill.stop_at = kStopAt;
  run_sk(engine, threads, drill);  // partial metrics, discarded
  ASSERT_TRUE(std::filesystem::exists(blob));

  RunOptions resume = base;
  resume.every = kEvery;
  resume.path = blob.string();
  resume.resume = true;
  const RunResult resumed = run_sk(engine, threads, resume);

  expect_identical(reference.metrics, resumed.metrics);
  EXPECT_EQ(reference.coupler_success, resumed.coupler_success);
}

sim::TimingConfig constant_timing(sim::SimTime tuning,
                                  sim::SimTime propagation) {
  sim::TimingConfig timing;
  timing.profile = sim::SkewProfile::kConstant;
  timing.tuning_ticks = tuning;
  timing.propagation_ticks = propagation;
  return timing;
}

TEST(Checkpoint, SavingIsSideEffectFree) {
  ScratchDir scratch("save");
  const struct {
    sim::Engine engine;
    int threads;
  } cells[] = {{sim::Engine::kPhased, 1},
               {sim::Engine::kSharded, 3},
               {sim::Engine::kAsync, 1},
               {sim::Engine::kAsyncSharded, 3}};
  int tag = 0;
  for (const auto& cell : cells) {
    SCOPED_TRACE(static_cast<int>(cell.engine));
    const RunResult plain = run_sk(cell.engine, cell.threads, {});
    RunOptions saving;
    saving.every = kEvery;
    saving.path =
        (scratch.path() / ("save_" + std::to_string(tag++) + ".ckpt"))
            .string();
    const RunResult with = run_sk(cell.engine, cell.threads, saving);
    expect_identical(plain.metrics, with.metrics);
    EXPECT_EQ(plain.coupler_success, with.coupler_success);
    EXPECT_TRUE(std::filesystem::exists(saving.path));
  }
}

TEST(Checkpoint, ResumeIsBitIdenticalAcrossEnginesAndThreads) {
  ScratchDir scratch("resume");
  const struct {
    sim::Engine engine;
    std::vector<int> threads;
  } cells[] = {{sim::Engine::kPhased, {1}},
               {sim::Engine::kSharded, {1, 2, 5, 8}},
               {sim::Engine::kAsync, {1}},
               {sim::Engine::kAsyncSharded, {1, 2, 5, 8}}};
  int tag = 0;
  for (const auto& cell : cells) {
    for (const int threads : cell.threads) {
      SCOPED_TRACE(std::to_string(static_cast<int>(cell.engine)) + "/t" +
                   std::to_string(threads));
      expect_resume_parity(
          cell.engine, threads,
          scratch.path() / ("cell_" + std::to_string(tag++) + ".ckpt"));
    }
  }
}

TEST(Checkpoint, ShardedBlobsAreThreadCountIndependent) {
  // Save under 2 workers, resume under 5: the blob stores folded
  // counters plus per-node/per-coupler RNG streams, so the worker count
  // is not part of the state.
  ScratchDir scratch("threads");
  for (const sim::Engine engine :
       {sim::Engine::kSharded, sim::Engine::kAsyncSharded}) {
    SCOPED_TRACE(static_cast<int>(engine));
    const RunResult reference = run_sk(engine, 5, {});

    RunOptions drill;
    drill.every = kEvery;
    drill.path = (scratch.path() / "xthread.ckpt").string();
    drill.stop_at = kStopAt;
    run_sk(engine, 2, drill);

    RunOptions resume;
    resume.every = kEvery;
    resume.path = drill.path;
    resume.resume = true;
    const RunResult resumed = run_sk(engine, 5, resume);
    expect_identical(reference.metrics, resumed.metrics);
    EXPECT_EQ(reference.coupler_success, resumed.coupler_success);
  }
}

TEST(Checkpoint, TimedAsyncRunsResume) {
  // Non-trivial tuning/propagation delays exercise the timed-VOQ ready
  // field and the calendar-queue round-trip.
  ScratchDir scratch("timed");
  RunOptions timed;
  timed.timing = constant_timing(300, 700);
  expect_resume_parity(sim::Engine::kAsync, 1, scratch.path() / "timed.ckpt",
                       timed);
  expect_resume_parity(sim::Engine::kAsyncSharded, 3,
                       scratch.path() / "timed_sharded.ckpt", timed);
}

TEST(Checkpoint, DrainRunsResume) {
  ScratchDir scratch("drain");
  RunOptions drain;
  drain.drain = true;
  expect_resume_parity(sim::Engine::kPhased, 1, scratch.path() / "drain.ckpt",
                       drain);
  expect_resume_parity(sim::Engine::kSharded, 3,
                       scratch.path() / "drain_sharded.ckpt", drain);
}

TEST(Checkpoint, BurstyTrafficStateRoundTrips) {
  // BurstyTraffic carries per-node Markov state beyond its RNG; the
  // traffic checkpoint hooks must restore it exactly.
  ScratchDir scratch("bursty");
  RunOptions bursty;
  bursty.bursty = true;
  expect_resume_parity(sim::Engine::kPhased, 1, scratch.path() / "bursty.ckpt",
                       bursty);
  expect_resume_parity(sim::Engine::kSharded, 3,
                       scratch.path() / "bursty_sharded.ckpt", bursty);
}

std::vector<std::int64_t> probe_values(const obs::Telemetry& tel) {
  std::vector<std::int64_t> values;
  const obs::ProbeRegistry& reg = tel.probes();
  for (obs::ProbeId id = 0; id < reg.probe_count(); ++id) {
    if (reg.kind(id) == obs::ProbeKind::kHistogram) {
      for (std::size_t i = 0; i < reg.bucket_count(id); ++i) {
        values.push_back(reg.bucket(id, i));
      }
    } else {
      values.push_back(reg.value(id));
    }
  }
  return values;
}

TEST(Checkpoint, TelemetryStreamConcatenatesByteExactly) {
  // The sampler's cross-row state (header flag, previous counters, last
  // sampled slot) rides in the blob, so interrupted + resumed
  // timeseries files concatenate to exactly the uninterrupted stream.
  ScratchDir scratch("telemetry");
  const struct {
    sim::Engine engine;
    int threads;
  } cells[] = {{sim::Engine::kPhased, 1},
               {sim::Engine::kSharded, 2},
               {sim::Engine::kAsync, 1},
               {sim::Engine::kAsyncSharded, 2}};
  int tag = 0;
  for (const auto& cell : cells) {
    SCOPED_TRACE(static_cast<int>(cell.engine));
    const std::string suffix = std::to_string(tag++);
    const std::filesystem::path full =
        scratch.path() / ("full_" + suffix + ".jsonl");
    const std::filesystem::path part_a =
        scratch.path() / ("part_a_" + suffix + ".jsonl");
    const std::filesystem::path part_b =
        scratch.path() / ("part_b_" + suffix + ".jsonl");
    obs::TelemetryConfig tel_config;
    tel_config.sample_period = 64;

    tel_config.timeseries_path = full.string();
    const auto tel_full = obs::Telemetry::create(tel_config);
    RunOptions uninterrupted;
    uninterrupted.telemetry = tel_full;
    const RunResult reference =
        run_sk(cell.engine, cell.threads, uninterrupted);
    const std::vector<std::int64_t> reference_probes = probe_values(*tel_full);
    tel_full->close();

    tel_config.timeseries_path = part_a.string();
    RunOptions drill;
    drill.telemetry = obs::Telemetry::create(tel_config);
    drill.every = kEvery;
    drill.path = (scratch.path() / ("tel_" + suffix + ".ckpt")).string();
    drill.stop_at = 240;
    run_sk(cell.engine, cell.threads, drill);
    drill.telemetry->close();

    tel_config.timeseries_path = part_b.string();
    const auto tel_resume = obs::Telemetry::create(tel_config);
    RunOptions resume;
    resume.telemetry = tel_resume;
    resume.every = kEvery;
    resume.path = drill.path;
    resume.resume = true;
    const RunResult resumed = run_sk(cell.engine, cell.threads, resume);
    const std::vector<std::int64_t> resumed_probes = probe_values(*tel_resume);
    tel_resume->close();

    expect_identical(reference.metrics, resumed.metrics);
    EXPECT_EQ(reference.coupler_success, resumed.coupler_success);
    EXPECT_EQ(reference_probes, resumed_probes);
    const std::string interrupted_bytes = read_bytes(part_a);
    EXPECT_GT(interrupted_bytes.size(), 0u)
        << "drill must stop after at least one sampled row";
    EXPECT_EQ(interrupted_bytes + read_bytes(part_b), read_bytes(full))
        << "resumed rows must continue the stream byte-exactly";
  }
}

TEST(Checkpoint, MismatchedFingerprintStartsFresh) {
  ScratchDir scratch("mismatch");
  const std::filesystem::path blob = scratch.path() / "mismatch.ckpt";

  RunOptions drill;
  drill.every = kEvery;
  drill.path = blob.string();
  drill.stop_at = kStopAt;
  run_sk(sim::Engine::kPhased, 1, drill);
  ASSERT_TRUE(std::filesystem::exists(blob));

  // Different seed: the blob is another run's state; ignore it.
  RunOptions other_seed;
  other_seed.seed = 99;
  const RunResult plain = run_sk(sim::Engine::kPhased, 1, other_seed);
  RunOptions resume = other_seed;
  resume.every = kEvery;
  resume.path = blob.string();
  resume.resume = true;
  const RunResult resumed = run_sk(sim::Engine::kPhased, 1, resume);
  expect_identical(plain.metrics, resumed.metrics);

  // Different engine: same story. (Sharded at 1 thread is numerically
  // phased-identical, which is exactly why the fingerprint must still
  // reject the blob -- its payload layout differs.)
  run_sk(sim::Engine::kPhased, 1, drill);  // rewrite the phased blob
  RunOptions cross_engine;
  cross_engine.every = kEvery;
  cross_engine.path = blob.string();
  cross_engine.resume = true;
  const RunResult cross = run_sk(sim::Engine::kSharded, 2, cross_engine);
  const RunResult cross_plain = run_sk(sim::Engine::kSharded, 2, {});
  expect_identical(cross_plain.metrics, cross.metrics);
}

/// Writes a drill blob for `engine`, lets `damage` rewrite its bytes,
/// and checks that resuming from it equals a fresh run: the checksum
/// trailer must reject the blob before any of it is restored.
template <class Damage>
void expect_damaged_blob_runs_fresh(sim::Engine engine, int threads,
                                    const std::string& tag,
                                    const Damage& damage) {
  SCOPED_TRACE(sim::engine_name(engine));
  ScratchDir scratch(tag);
  const std::filesystem::path blob = scratch.path() / (tag + ".ckpt");
  RunOptions drill;
  drill.every = kEvery;
  drill.path = blob.string();
  drill.stop_at = kStopAt;
  run_sk(engine, threads, drill);
  std::string bytes = read_bytes(blob);
  ASSERT_GT(bytes.size(), 64u);
  damage(bytes);
  std::ofstream(blob, std::ios::binary | std::ios::trunc) << bytes;

  RunOptions resume;
  resume.every = kEvery;
  resume.path = blob.string();
  resume.resume = true;
  const RunResult resumed = run_sk(engine, threads, resume);
  const RunResult plain = run_sk(engine, threads, {});
  expect_identical(plain.metrics, resumed.metrics);
  EXPECT_EQ(plain.coupler_success, resumed.coupler_success);
}

TEST(Checkpoint, FlippedByteBlobStartsFresh) {
  // One flipped bit mid-payload once resumed to a mean latency of -6e12.
  for (const auto& [engine, threads] :
       {std::pair{sim::Engine::kPhased, 1},
        std::pair{sim::Engine::kSharded, 2},
        std::pair{sim::Engine::kAsyncSharded, 2}}) {
    expect_damaged_blob_runs_fresh(engine, threads, "flip",
                                   [](std::string& bytes) {
                                     bytes[bytes.size() / 2] ^= 0x40;
                                   });
  }
}

TEST(Checkpoint, TruncatedBlobStartsFresh) {
  // A truncated blob once threw out of the payload reader and killed the
  // whole campaign.
  for (const auto& [engine, threads] : {std::pair{sim::Engine::kPhased, 1},
                                        std::pair{sim::Engine::kAsync, 1}}) {
    expect_damaged_blob_runs_fresh(engine, threads, "truncate",
                                   [](std::string& bytes) {
                                     bytes.resize(bytes.size() * 2 / 3);
                                   });
  }
}

TEST(Checkpoint, ResumeWithoutBlobRunsFresh) {
  ScratchDir scratch("noblob");
  RunOptions resume;
  resume.every = kEvery;
  resume.path = (scratch.path() / "never_written.ckpt").string();
  resume.resume = true;
  const RunResult resumed = run_sk(sim::Engine::kAsync, 1, resume);
  const RunResult plain = run_sk(sim::Engine::kAsync, 1, {});
  expect_identical(plain.metrics, resumed.metrics);
}

TEST(Checkpoint, InvalidConfigsAreRejected) {
  hypergraph::StackKautz sk(4, 3, 2);
  const auto routes = std::make_shared<const routing::CompiledRoutes>(
      routing::compile_stack_kautz_routes(sk));
  auto make_sim = [&](const sim::SimConfig& config) {
    sim::OpsNetworkSim sim(
        sk.stack(), routes,
        std::make_unique<sim::UniformTraffic>(sk.processor_count(), 0.3),
        config);
  };
  sim::SimConfig config;
  config.warmup_slots = kWarmup;
  config.measure_slots = kMeasure;

  // Checkpointing without a path.
  config.checkpoint_every_slots = kEvery;
  EXPECT_THROW(make_sim(config), core::Error);

  // The event-queue engine has no checkpoint support.
  config.checkpoint_path = "/tmp/otis_ckpt_reject.ckpt";
  config.engine = sim::Engine::kEventQueue;
  EXPECT_THROW(make_sim(config), core::Error);

  // Negative stride.
  config.engine = sim::Engine::kPhased;
  config.checkpoint_every_slots = -1;
  EXPECT_THROW(make_sim(config), core::Error);
}

TEST(Checkpoint, BlobBytesArePinned) {
  // Load 0.9 saturates SK(4,3,2) (36 couplers for 48 nodes, ~2 hops per
  // packet), so by the stop the backlog exceeds kInitialCapacity per
  // VOQ: some queue has grown, copying a ring whose head had moved,
  // and kept wrapping. The checksums were taken from the field-array
  // arena the record arena replaced; equal blobs prove the format held.
  constexpr std::int64_t kVoqs = 48 * 3;
  ScratchDir scratch("pinned");
  const struct {
    sim::Engine engine;
    sim::TimingConfig timing;
    std::uint64_t checksum;
  } cells[] = {
      {sim::Engine::kSharded, {}, 0x324d89bda1764df2ULL},
      {sim::Engine::kAsyncSharded, constant_timing(300, 700),
       0xee02e59650e0826aULL},
  };
  int tag = 0;
  for (const auto& cell : cells) {
    SCOPED_TRACE(sim::engine_name(cell.engine));
    RunOptions drill;
    drill.load = 0.9;
    drill.timing = cell.timing;
    drill.every = kEvery;
    drill.stop_at = 3 * kEvery;
    drill.path =
        (scratch.path() / ("pinned_" + std::to_string(tag++) + ".ckpt"))
            .string();
    const RunResult stopped = run_sk(cell.engine, 2, drill);
    ASSERT_TRUE(stopped.metrics.interrupted);
    EXPECT_GT(stopped.metrics.backlog,
              kVoqs * static_cast<std::int64_t>(
                          sim::VoqArena::kInitialCapacity));
    const std::string bytes = read_bytes(drill.path);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(core::blob_checksum(
                  reinterpret_cast<const std::uint8_t*>(bytes.data()),
                  bytes.size()),
              cell.checksum)
        << std::hex << "0x"
        << core::blob_checksum(
               reinterpret_cast<const std::uint8_t*>(bytes.data()),
               bytes.size());
  }
}

}  // namespace
