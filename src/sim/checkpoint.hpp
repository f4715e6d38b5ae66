#pragma once
/// \file checkpoint.hpp
/// Versioned engine-state checkpoints (SimConfig::checkpoint_*).
///
/// A checkpoint blob is a fixed little-endian layout (core/blob.hpp):
///
///   [magic "OTISCKP1"] [version u64] [config fingerprint] [engine payload]
///   [checksum u64]
///
/// The trailer is core::blob_checksum over every byte before it. A blob
/// whose trailer does not match -- a flipped byte, a truncated write --
/// is reported with a warning and ignored, so the cell reruns from slot
/// 0 (deterministically: its outputs are unchanged) instead of resuming
/// from garbage or killing the campaign.
///
/// The fingerprint pins everything the payload's meaning depends on --
/// engine, seed, window sizes, queue capacity, wavelengths, arbitration,
/// drain flag, latency representation, and the topology's node/coupler
/// counts. A resume against a blob whose fingerprint does not match the
/// current run silently starts fresh (the blob belongs to some other
/// cell or an older spec), it is never an error. The engine payload
/// that follows is owned by each engine's run function; restored runs
/// are bit-identical to uninterrupted ones, which the fingerprint makes
/// safe to assume.

#include <cstdint>
#include <string>
#include <vector>

#include "core/blob.hpp"
#include "core/error.hpp"
#include "sim/metrics.hpp"
#include "sim/voq_arena.hpp"

namespace otis::obs {
class Telemetry;
}  // namespace otis::obs

namespace otis::sim {

struct SimConfig;

/// Blob layout version; bump on any payload format change.
inline constexpr std::uint64_t kCheckpointVersion = 2;

/// Appends magic, version and the config fingerprint to `out`. Engines
/// call this first, then append their payload.
void checkpoint_write_header(core::BlobWriter& out, const SimConfig& config,
                             std::int64_t nodes, std::int64_t couplers);

/// Consumes and validates the header from `in`. Returns true when the
/// blob was written by checkpoint_write_header for this exact
/// (config, topology); false on any mismatch. Throws only on a
/// truncated buffer (checkpoint_load screens that out).
[[nodiscard]] bool checkpoint_read_header(core::BlobReader& in,
                                          const SimConfig& config,
                                          std::int64_t nodes,
                                          std::int64_t couplers);

/// Reads the blob at `path` into `bytes`, verifies and strips its
/// checksum trailer, and checks its header against (config, nodes,
/// couplers). Returns true only when an intact, matching checkpoint is
/// present; any failure (missing file, damage or truncation, wrong
/// fingerprint) returns false and the caller runs from slot 0. Never
/// throws.
[[nodiscard]] bool checkpoint_load(const std::string& path,
                                   const SimConfig& config, std::int64_t nodes,
                                   std::int64_t couplers,
                                   std::vector<std::uint8_t>& bytes);

/// Appends the checksum trailer to a finished blob and writes it to
/// `path` atomically (tmp + rename), so a crash mid-write never corrupts
/// the previous checkpoint.
void checkpoint_store(const std::string& path, core::BlobWriter& out);

/// RunMetrics round-trip (the latency representation -- full samples or
/// sketch -- is part of the encoding).
void checkpoint_put_metrics(core::BlobWriter& out, const RunMetrics& m);
void checkpoint_get_metrics(core::BlobReader& in, RunMetrics& m);

/// VOQ arena round-trip. Entries are written head-to-tail per queue and
/// re-pushed on restore, so the restored arena reproduces every queue's
/// logical FIFO state whatever segment layout the saving run had grown
/// into. The restoring engine assigns pools (set_pool) before calling
/// checkpoint_get_voq; restore pushes happen single-threaded.
template <bool Timed>
void checkpoint_put_voq(core::BlobWriter& out, const VoqArenaT<Timed>& voq) {
  out.put_u64(voq.queue_count());
  for (std::size_t q = 0; q < voq.queue_count(); ++q) {
    out.put_u64(voq.size(q));
    voq.for_each_entry(q, [&](const typename VoqArenaT<Timed>::Entry& e) {
      out.put_i64(e.id);
      out.put_i64(e.destination);
      out.put_i64(e.created);
      out.put_i64(e.hops);
      if constexpr (Timed) {
        out.put_i64(e.ready);
      }
    });
  }
}

template <bool Timed>
void checkpoint_get_voq(core::BlobReader& in, VoqArenaT<Timed>& voq) {
  const std::uint64_t queues = in.get_u64();
  OTIS_REQUIRE(queues == voq.queue_count(),
               "checkpoint: VOQ queue count mismatch");
  for (std::size_t q = 0; q < queues; ++q) {
    const std::uint64_t n = in.get_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename VoqArenaT<Timed>::Entry e;
      e.id = in.get_i64();
      e.destination = static_cast<std::int32_t>(in.get_i64());
      e.created = in.get_i64();
      e.hops = static_cast<std::int32_t>(in.get_i64());
      if constexpr (Timed) {
        e.ready = in.get_i64();
      }
      voq.push(q, e);
    }
  }
}

/// Telemetry sampler continuation state: presence flag, last sampled
/// slot, and the sampler's cross-row state (header flag + previous
/// counter values), so a resumed run appends rows byte-identically to
/// an uninterrupted one. Attaching telemetry to only one side of a
/// save/resume pair is a configuration error (OTIS_REQUIRE).
void checkpoint_put_telemetry(core::BlobWriter& out,
                              const obs::Telemetry* tel,
                              std::int64_t tel_last);
/// Returns the restored tel_last (0 when no telemetry was saved).
[[nodiscard]] std::int64_t checkpoint_get_telemetry(core::BlobReader& in,
                                                    obs::Telemetry* tel);

}  // namespace otis::sim
