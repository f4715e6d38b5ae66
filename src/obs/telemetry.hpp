#pragma once
/// \file telemetry.hpp
/// Run-scoped telemetry: probe registry + time-series sampler + span
/// tracing, attached to a simulation through one nullable pointer.
///
/// Cost model: `SimConfig::telemetry` is a shared_ptr that defaults to
/// null, and every engine guards its instrumentation behind a single
/// `tel != nullptr` branch per slot -- the BENCH telemetry row verifies
/// the attached-but-disabled overhead stays <= 2% on the phased
/// SK(4,3,2)/token case. With sampling enabled the engines fill the
/// probes and emit one JSONL row every `sample_period` slots; the work
/// is proportional to network size but amortized over the period.
///
/// Determinism: probe values and timeseries rows are derived from
/// simulation state only (no RNG draws, no clocks), and the sharded
/// engine fills per-shard ProbeRegistry clones that are folded with
/// order-independent integer addition at the slot barrier -- so for a
/// fixed seed the merged probe values and the timeseries bytes are
/// identical for every thread count. Chrome-trace spans use wall-clock
/// timestamps and are exempt (diagnostics, never inputs).
///
/// Probe naming: short snake_case keys that become JSONL fields.
/// Engine-standard probes (see engine_probe_names()):
///   counters  offered, delivered, transmissions, collisions, dropped
///             (rows carry per-window deltas over the measured window)
///   gauges    backlog (queued + in flight), pending_events
///             (async landing-wheel entries; 0 on slot engines)
///   histogram occupancy (couplers bucketed by queued packets across
///             their feed VOQs; snapshot, bounds 0,1,2,4,8,16,32,64)

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/probe.hpp"
#include "obs/trace_sink.hpp"

namespace otis::obs {

/// What to record; the all-defaults config means "attached but inert"
/// (only the per-slot null/period checks run -- the BENCH mode).
struct TelemetryConfig {
  /// Slots between timeseries samples; 0 disables sampling. A row is
  /// emitted at the end of slots period-1, 2*period-1, ...
  std::int64_t sample_period = 0;
  /// Probe names to include in timeseries rows; empty = all. Unknown
  /// names are rejected when the Telemetry is built.
  std::vector<std::string> probes;
  /// JSONL output for timeseries rows; empty buffers row counts only.
  std::string timeseries_path;
  /// Chrome-trace JSON output for spans; empty disables tracing.
  std::string trace_path;

  [[nodiscard]] bool enabled() const {
    return sample_period > 0 || !trace_path.empty();
  }
  void validate() const;
};

/// Ids of the engine-standard probes (registered by Telemetry).
struct EngineProbes {
  ProbeId offered = 0;
  ProbeId delivered = 0;
  ProbeId transmissions = 0;
  ProbeId collisions = 0;
  ProbeId dropped = 0;
  ProbeId backlog = 0;
  ProbeId pending_events = 0;
  ProbeId occupancy = 0;
};

/// The engine-standard probe names, for allowlist validation in specs.
[[nodiscard]] const std::vector<std::string>& engine_probe_names();

/// Thread-safe append-only JSONL stream, shared across a campaign's
/// cells (each row is tagged with its cell id). An empty path counts
/// rows without writing -- the bench's discard mode.
class TimeSeriesWriter {
 public:
  /// With `resume`, the rows already at `path` are read and held back,
  /// keyed by cell, before the file is rewritten; restore() writes a
  /// cell's rows back. Without it the file starts empty.
  explicit TimeSeriesWriter(std::string path, bool resume = false);

  void append(const std::string& line);
  /// Writes back the held rows of `cell` -- its schema row and every
  /// sample at or before `last_slot` -- and forgets the rest of them. A
  /// resuming campaign calls it for each cell it does not run, and a
  /// cell's session calls it when the cell resumes from its checkpoint,
  /// whose last sampled slot is `last_slot`; every other cell reruns
  /// from slot 0, so its old rows are dropped.
  void restore(const std::string& cell, std::int64_t last_slot);
  void flush();
  void close();
  [[nodiscard]] std::int64_t rows() const;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  /// A held-back row: its slot (-1 for the schema row) and its bytes.
  struct HeldRow {
    std::int64_t slot = -1;
    std::string line;
  };

  std::string path_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::int64_t rows_ = 0;
  std::unordered_map<std::string, std::vector<HeldRow>> held_;
};

/// One run's telemetry session. Engines reach it through
/// `SimConfig::telemetry` and touch only probes()/engine_probes(),
/// due()/sample()/finish(), and trace_sink().
class Telemetry {
 public:
  /// Standalone session owning its writer and trace sink.
  static std::shared_ptr<Telemetry> create(const TelemetryConfig& config);

  /// Campaign session sharing one writer/sink across cells. `label`
  /// tags every row (the cell id); `tid` is the span track (1 + worker
  /// index by the ChromeTraceSink convention). Either sink may be null.
  static std::shared_ptr<Telemetry> attach(
      const TelemetryConfig& config, std::shared_ptr<TimeSeriesWriter> writer,
      std::shared_ptr<ChromeTraceSink> sink, std::string label,
      std::int32_t tid);

  [[nodiscard]] ProbeRegistry& probes() noexcept { return probes_; }
  [[nodiscard]] const ProbeRegistry& probes() const noexcept {
    return probes_;
  }
  [[nodiscard]] const EngineProbes& engine_probes() const noexcept {
    return engine_;
  }
  [[nodiscard]] ChromeTraceSink* trace_sink() const noexcept {
    return sink_.get();
  }
  [[nodiscard]] std::int32_t tid() const noexcept { return tid_; }

  [[nodiscard]] bool sampling() const noexcept { return period_ > 0; }
  /// True when the end of `slot` is a sampling boundary.
  [[nodiscard]] bool due(std::int64_t slot) const noexcept {
    return period_ > 0 && (slot + 1) % period_ == 0;
  }
  /// Emits one timeseries row from the registry's current values
  /// (counter fields as deltas since the previous row).
  void sample(std::int64_t slot);
  /// End of run: engines refresh the probes first, then call this with
  /// the last executed slot; emits a final row unless that slot was
  /// just sampled, and flushes the writer.
  void finish(std::int64_t last_slot);

  /// Sampler cross-row state (header flag + previous counter values),
  /// for engine checkpointing: restoring it lets a resumed run append
  /// rows to the interrupted run's stream byte-identically to an
  /// uninterrupted run (counter fields are deltas against prev_, so
  /// prev_ must survive the restart).
  [[nodiscard]] bool header_written() const noexcept {
    return header_written_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& sampler_prev()
      const noexcept {
    return prev_;
  }
  /// Restores that state at a checkpoint whose last sampled slot is
  /// `last_slot`; a campaign cell's rows up to it that an earlier
  /// invocation wrote go back into the shared writer (see
  /// TimeSeriesWriter::restore).
  void restore_sampler(bool header_written, std::vector<std::int64_t> prev,
                       std::int64_t last_slot);

  [[nodiscard]] std::int64_t rows_sampled() const;
  /// Closes owned sinks (campaign-shared sinks are closed by their
  /// owner); call before reading the output files.
  void close();

 private:
  Telemetry(const TelemetryConfig& config,
            std::shared_ptr<TimeSeriesWriter> writer,
            std::shared_ptr<ChromeTraceSink> sink, std::string label,
            std::int32_t tid, bool owns_sinks);

  std::int64_t period_ = 0;
  std::string label_;
  std::int32_t tid_ = 0;
  bool owns_sinks_ = false;
  bool header_written_ = false;
  ProbeRegistry probes_;
  EngineProbes engine_;
  std::vector<bool> emit_;        ///< allowlist mask by ProbeId
  std::vector<std::int64_t> prev_;  ///< previous counter values by ProbeId
  std::shared_ptr<TimeSeriesWriter> writer_;
  std::shared_ptr<ChromeTraceSink> sink_;
};

/// Emits warmup / measure / drain spans for a slotted engine run. The
/// engine calls at_slot(now) once per slot (inside its telemetry
/// branch) and finish() after the loop; boundaries are detected by
/// slot number, so the helper works for every engine and drain policy.
class WindowSpans {
 public:
  /// Spans go to `tel`'s trace sink; without telemetry or a sink the
  /// helper does nothing.
  WindowSpans(const Telemetry* tel, std::int64_t warmup,
              std::int64_t horizon);

  void at_slot(std::int64_t now);
  void finish();

 private:
  ChromeTraceSink* sink_ = nullptr;
  std::int32_t tid_ = 0;
  std::int64_t warmup_ = 0;
  std::int64_t horizon_ = 0;
  std::int64_t start_us_ = -1;
  std::int64_t measure_us_ = -1;
  std::int64_t drain_us_ = -1;
};

}  // namespace otis::obs
