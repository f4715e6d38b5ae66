#pragma once
/// \file occupancy.hpp
/// Coupler-feed indexing and occupancy bitmasks for the slot engines.
///
/// Phase 2 of the slot loop asks, for every coupler, "which of my feed
/// VOQs are non-empty?". The seed answered by chasing every feed's ring
/// buffer through two indirections per position; the engines now keep
/// the answer materialized as bitmask words maintained on VOQ push/pop:
///
///  - FeedIndex is the immutable geometry of one network: the flattened
///    feed -> VOQ map (qi = voq_base[source] + slot precomputed per feed
///    position) and, per VOQ, one packed 16-byte VoqFeed record holding
///    its request word, its bit in that word and the coupler it feeds, so
///    a mark reads one record. Each VOQ feeds exactly one coupler, so the
///    reverse map is well defined, and the feed positions of coupler h
///    are bits [0, feed_count) of the words at mask_base[h].
///
///  - OccupancyMasks is the per-run mutable state: one request bit per
///    feed position (set iff that VOQ is non-empty) plus a summary
///    bitmap over couplers, so arbitration skips empty couplers with a
///    count-trailing-zeros scan instead of touching their queues at all,
///    and pick_winners consumes the request words directly.
///
/// No mask word is ever shared across threads (that would put atomics
/// on the hot path). Every sharded loop -- phased run_feed_local and
/// async run_sharded -- gives each feed-local shard its own
/// OccupancyMasks, in which only the shard's couplers ever get bits.

#include <cstdint>
#include <vector>

#include "hypergraph/stack_graph.hpp"
#include "obs/probe.hpp"
#include "obs/telemetry.hpp"
#include "sim/metrics.hpp"

namespace otis::sim::detail {

/// Where a VOQ's request bit lives; every mark reads all three fields.
struct VoqFeed {
  std::int64_t word = 0;     ///< request word (FeedIndex::mask_base layout)
  std::int32_t coupler = 0;  ///< fed coupler (route views cap H at int32)
  std::uint32_t bit = 0;     ///< bit within the word
};
static_assert(sizeof(VoqFeed) == 16);

/// Immutable per-network feed geometry (see file comment). Build once
/// per engine; shared by every run mode.
struct FeedIndex {
  std::vector<std::int64_t> feed_base;  ///< per coupler: feed_qi offset (+1)
  std::vector<std::int64_t> feed_qi;    ///< VOQ index per feed position
  std::vector<std::int64_t> mask_base;  ///< per coupler: first word (+1)
  std::vector<VoqFeed> voq_feed;        ///< per VOQ: its request position

  void build(const hypergraph::DirectedHypergraph& hg,
             const std::vector<std::int64_t>& voq_base) {
    const hypergraph::HyperarcId couplers = hg.hyperarc_count();
    feed_base.assign(static_cast<std::size_t>(couplers) + 1, 0);
    mask_base.assign(static_cast<std::size_t>(couplers) + 1, 0);
    for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
      const std::int64_t count = hg.coupler_feed(h).count;
      feed_base[static_cast<std::size_t>(h) + 1] =
          feed_base[static_cast<std::size_t>(h)] + count;
      mask_base[static_cast<std::size_t>(h) + 1] =
          mask_base[static_cast<std::size_t>(h)] + (count + 63) / 64;
    }
    feed_qi.assign(static_cast<std::size_t>(feed_base.back()), 0);
    voq_feed.assign(static_cast<std::size_t>(voq_base.back()), VoqFeed{});
    for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
      const hypergraph::CouplerFeed feed = hg.coupler_feed(h);
      for (std::int64_t si = 0; si < feed.count; ++si) {
        const std::size_t qi = static_cast<std::size_t>(
            voq_base[static_cast<std::size_t>(feed.source[si])] +
            feed.slot[si]);
        feed_qi[static_cast<std::size_t>(
            feed_base[static_cast<std::size_t>(h)] + si)] =
            static_cast<std::int64_t>(qi);
        voq_feed[qi] = VoqFeed{mask_base[static_cast<std::size_t>(h)] + si / 64,
                               static_cast<std::int32_t>(h),
                               static_cast<std::uint32_t>(si % 64)};
      }
    }
  }

  [[nodiscard]] std::size_t coupler_count() const noexcept {
    return feed_base.size() - 1;
  }
};

/// Per-run occupancy state over a FeedIndex (see file comment). The
/// owner calls mark_nonempty on a VOQ's 0 -> 1 size transition and
/// mark_empty on 1 -> 0; the engines do this inline in their enqueue/pop
/// paths. Under tuning or guard delays the async engine narrows a bit to
/// "head may transmit now", setting it when the head's gate opens and
/// clearing it on every pop (async_engine.hpp).
struct OccupancyMasks {
  std::vector<std::uint64_t> request;  ///< FeedIndex::mask_base layout
  std::vector<std::uint64_t> active;   ///< summary bitmap over couplers

  void init(const FeedIndex& fi) {
    request.assign(static_cast<std::size_t>(fi.mask_base.back()), 0);
    active.assign((fi.coupler_count() + 63) / 64, 0);
  }

  void mark_nonempty(const FeedIndex& fi, std::size_t qi) {
    const VoqFeed f = fi.voq_feed[qi];
    request[static_cast<std::size_t>(f.word)] |= std::uint64_t{1} << f.bit;
    const auto h = static_cast<std::uint32_t>(f.coupler);
    active[h >> 6] |= std::uint64_t{1} << (h & 63);
  }

  void mark_empty(const FeedIndex& fi, std::size_t qi) {
    const VoqFeed f = fi.voq_feed[qi];
    request[static_cast<std::size_t>(f.word)] &= ~(std::uint64_t{1} << f.bit);
    const auto h = static_cast<std::size_t>(f.coupler);
    // Clear the summary bit only once every request word went dark.
    for (std::int64_t w = fi.mask_base[h]; w < fi.mask_base[h + 1]; ++w) {
      if (request[static_cast<std::size_t>(w)] != 0) {
        return;
      }
    }
    active[h >> 6] &= ~(std::uint64_t{1} << (h & 63));
  }
};

/// Telemetry helper shared by the phased and async engines: observes
/// each coupler of [begin, end) into the occupancy histogram probe
/// with the total queued packets across its feed VOQs. Runs only at
/// sampling boundaries -- it walks every feed of the range.
template <class Arena>
void observe_occupancy(obs::ProbeRegistry& reg, obs::ProbeId hist,
                       const FeedIndex& fi, const Arena& voq,
                       std::int64_t begin, std::int64_t end) {
  for (std::int64_t h = begin; h < end; ++h) {
    const std::size_t fb =
        static_cast<std::size_t>(fi.feed_base[static_cast<std::size_t>(h)]);
    const std::size_t fe = static_cast<std::size_t>(
        fi.feed_base[static_cast<std::size_t>(h) + 1]);
    std::int64_t queued = 0;
    for (std::size_t f = fb; f < fe; ++f) {
      queued += static_cast<std::int64_t>(
          voq.size(static_cast<std::size_t>(fi.feed_qi[f])));
    }
    reg.observe(hist, queued);
  }
}

/// Refreshes the engine-standard counter/gauge probes from a metrics
/// snapshot and re-observes every coupler into the occupancy histogram
/// (pending_events is the async engines' own). Shared by the phased and
/// async engines so probe values always mean the same thing.
template <class Arena>
void fill_metric_probes(obs::Telemetry& tel, const RunMetrics& m,
                        std::int64_t backlog, const FeedIndex& fi,
                        const Arena& voq) {
  obs::ProbeRegistry& reg = tel.probes();
  const obs::EngineProbes& ids = tel.engine_probes();
  reg.set(ids.offered, m.offered_packets);
  reg.set(ids.delivered, m.delivered_packets);
  reg.set(ids.transmissions, m.coupler_transmissions);
  reg.set(ids.collisions, m.collisions);
  reg.set(ids.dropped, m.dropped_packets);
  reg.set(ids.backlog, backlog);
  reg.clear_histogram(ids.occupancy);
  observe_occupancy(reg, ids.occupancy, fi, voq, 0,
                    static_cast<std::int64_t>(fi.coupler_count()));
}

}  // namespace otis::sim::detail
