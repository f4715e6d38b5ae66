#pragma once
/// \file runtime_stats.hpp
/// The runtime-introspection channel: nondeterministic "where is the
/// runtime spending its time" metrics, strictly separate from the
/// deterministic probe/timeseries channel in telemetry.hpp.
///
/// Two-channel contract: the deterministic channel (probes, timeseries
/// rows) is derived from simulation state only and its bytes are part
/// of the engines' thread-count-invariance guarantee. Everything here
/// is wall-clock derived -- barrier waits, steal counts, mailbox
/// pressure -- so it may differ run to run and MUST never feed back
/// into the simulation or the deterministic outputs. Runtime stats are
/// not checkpointed for the same reason: a resumed run restarts its
/// runtime counters.
///
/// Cost model mirrors SimConfig::telemetry: `SimConfig::runtime_stats`
/// is a shared_ptr defaulting to null, and the sharded engines capture
/// `rt != nullptr && rt->active()` ONCE before the worker loop -- the
/// attached-but-disabled mode costs one pointer+flag test per run, a
/// bar the BENCH `runtime_stats` section enforces at <= 2%. With an
/// active session each worker keeps its own ShardRuntime slot (no
/// sharing, no atomics on the hot path) and the engine folds them into
/// the session once after the join.
///
/// Output is schema-headered JSONL like the timeseries writer: one
/// `{"type":"schema","channel":"runtime",...}` row per session label,
/// then `shard` / `workers` / `cell_summary` rows. A shared writer lets
/// a campaign stream every cell's rows into one `runtime.jsonl`.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace otis::obs {

/// Monotonic nanoseconds for runtime-stat deltas (never a simulation
/// input).
[[nodiscard]] inline std::int64_t runtime_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What to record. The all-defaults config means "attached but inert":
/// sessions built from it report active() == false and engines collect
/// nothing -- the BENCH disabled mode.
struct RuntimeStatsConfig {
  /// JSONL output for runtime rows; empty with `collect` set counts
  /// rows without writing (the bench's discard mode).
  std::string path;
  /// Force collection without a file sink. A non-empty path implies it.
  bool collect = false;

  [[nodiscard]] bool enabled() const { return collect || !path.empty(); }
};

/// One engine shard's runtime counters for a whole run. Filled by the
/// owning worker only (stack/vector slot per shard, never shared), so
/// collection adds no synchronization to the engines.
struct ShardRuntime {
  std::int64_t barrier_wait_ns = 0;  ///< blocked in arrive_and_wait
  std::int64_t work_ns = 0;          ///< advancing outside barriers
  std::int64_t windows = 0;          ///< barrier cycles (slots/windows)
  /// Conservative-window accounting (async-sharded; slot engines count
  /// 1 per slot for both): sum of executed widths vs the configured
  /// lookahead -- used < available means horizon/drain clipping.
  std::int64_t lookahead_used = 0;
  std::int64_t lookahead_available = 0;
  /// Cross-shard mailbox pressure. Replays are counted at the consumer
  /// (landing-wheel pushes of mailed arrivals); across a completed run
  /// total sends == total replays.
  std::int64_t mailbox_msgs_sent = 0;
  std::int64_t mailbox_bytes_sent = 0;
  std::int64_t mailbox_msgs_replayed = 0;
  /// Max pending landings seen on the shard's landing wheel (the name
  /// predates the wheel; the async loops once used a calendar queue).
  std::int64_t calendar_peak = 0;
};

/// One pool worker's lifetime counters (core::WorkStealingPool).
struct WorkerRuntime {
  std::int64_t busy_ns = 0;   ///< executing items
  std::int64_t idle_ns = 0;   ///< blocked waiting for a batch
  std::int64_t steal_ns = 0;  ///< scanning/locking queues for work
  std::int64_t items = 0;     ///< items executed
  std::int64_t steals = 0;    ///< items taken from a victim's deque
};

/// Thread-safe append-only JSONL stream for runtime rows, shared
/// across a campaign's cells. An empty path counts rows only. With
/// `append` (a resuming campaign) the rows already at `path` stay and
/// new rows follow them.
class RuntimeStatsWriter {
 public:
  explicit RuntimeStatsWriter(std::string path, bool append = false);

  void append(const std::string& line);
  void flush();
  void close();
  [[nodiscard]] std::int64_t rows() const;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::int64_t rows_ = 0;
};

/// One run's (or one campaign cell's) runtime-stats session. Engines
/// reach it through `SimConfig::runtime_stats` and call active() once
/// and record_shards() once; the campaign runner adds record_workers()
/// for the pool and reads stall_summary() for its progress lines.
class RuntimeStats {
 public:
  /// Standalone session owning its writer.
  static std::shared_ptr<RuntimeStats> create(
      const RuntimeStatsConfig& config);

  /// Campaign session sharing one writer across cells; `label` tags
  /// every row (the cell id, or "campaign" for pool-level rows).
  static std::shared_ptr<RuntimeStats> attach(
      std::shared_ptr<RuntimeStatsWriter> writer, std::string label);

  /// False for default-config sessions: engines collect nothing.
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Folds a completed run's per-shard counters into the session and
  /// emits one `shard` row per entry. `engine` names the loop (e.g.
  /// "phased_sharded"), `mode` is "open_loop" or "workload", `wall_ns`
  /// the worker-loop wall time. Thread-safe across sessions (rows go
  /// through the shared writer); a session itself is used by one cell.
  void record_shards(const std::string& engine, const std::string& mode,
                     std::int64_t wall_ns,
                     const std::vector<ShardRuntime>& shards);

  /// Emits one `workers` row per pool worker.
  void record_workers(std::int64_t wall_ns,
                      const std::vector<WorkerRuntime>& workers);

  /// Smallest share of the total barrier wait a straggler must cause
  /// before stall_summary() names it; below it the run is balanced and
  /// its waits are barrier cost every shard pays alike.
  static constexpr double kBlameMinShare = 0.10;

  /// Stall attribution over everything record_shards() has folded in.
  /// The straggler is the shard that waits least (everyone else waits
  /// for it); the wait it caused is every shard's wait in excess of the
  /// straggler's, as a share of the total barrier wait.
  struct StallSummary {
    std::int64_t shards = 0;            ///< shard rows folded in
    std::int64_t wall_ns = 0;           ///< summed run wall time
    std::int64_t barrier_wait_ns = 0;   ///< summed across shards
    double stall_share = 0.0;  ///< barrier wait / total shard time
    /// The straggler, or -1 when it caused less than kBlameMinShare.
    std::int64_t blamed_shard = -1;
    double blamed_share = 0.0;  ///< wait it caused / barrier_wait_ns
  };
  [[nodiscard]] StallSummary stall_summary() const;

  /// Emits the `cell_summary` row from stall_summary() (no-op when no
  /// shard rows were recorded) and flushes. Call once per cell.
  void finish();

  [[nodiscard]] std::int64_t rows() const;
  /// Closes an owned writer (shared writers are closed by their owner).
  void close();

 private:
  RuntimeStats(std::shared_ptr<RuntimeStatsWriter> writer, std::string label,
               bool active, bool owns_writer);

  void ensure_header();
  void append_row(const std::string& line);

  std::string label_;
  bool active_ = false;
  bool owns_writer_ = false;
  bool header_written_ = false;
  mutable std::mutex mutex_;
  std::vector<ShardRuntime> folded_;  ///< per-shard totals across runs
  std::int64_t wall_ns_ = 0;
  std::shared_ptr<RuntimeStatsWriter> writer_;
};

}  // namespace otis::obs
