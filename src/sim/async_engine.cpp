#include "sim/async_engine.hpp"

#include <algorithm>
#include <barrier>
#include <bit>
#include <exception>
#include <limits>
#include <utility>

#include "core/error.hpp"
#include "sim/arbitration.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sharding.hpp"

namespace otis::sim {
namespace {

/// Same per-run stream as the serial engines: the zero-delay limit must
/// consume the identical RNG sequence.
constexpr std::uint64_t kRunStream = 0x0715;

/// Ceiling on the conservative window width: bounds the per-shard
/// telemetry frame storage and keeps termination/backlog checks (which
/// only happen at window barriers) reasonably fresh under drain.
constexpr SimTime kMaxLookaheadSlots = 32;

/// Slot-valued latency of a timed delivery: the number of whole slots
/// the packet needed, rounding a partially-used slot up. In the
/// zero-delay limit this equals the phased engine's (now - created + 1).
std::int64_t latency_slots(SimTime delivered_tick, SimTime created_tick) {
  return (delivered_tick - created_tick + kTicksPerSlot - 1) / kTicksPerSlot;
}

/// An in-flight transmission: coupler -> receivers, landing at its wheel
/// entry's time. `measuring` is the transmission slot's flag (the phased
/// engine accounts deliveries in the slot that carried them, so the
/// async engine must too). 32 bytes, so a landing-wheel entry with its
/// (time, seq) key is 48: every transmission is appended to a bucket and
/// replayed from it, so each byte here is memory traffic per packet hop.
struct Arrival {
  VoqEntry entry;
  std::int32_t coupler = 0;  ///< fits: checked at construction
  bool measuring = false;
};
using Landings = LandingWheel<Arrival>;

/// Checkpoint form of a pending landing, shared by both run loops:
/// (time, seq, payload).
void put_landing(core::BlobWriter& out, const Landings::Entry& landing) {
  out.put_i64(landing.time);
  out.put_u64(landing.seq);
  out.put_i64(landing.payload.entry.id);
  out.put_i64(landing.payload.entry.destination);
  out.put_i64(landing.payload.entry.created);
  out.put_i64(landing.payload.entry.hops);
  out.put_u64(static_cast<std::uint64_t>(landing.payload.coupler));
  out.put_u8(landing.payload.measuring ? 1 : 0);
}

Landings::Entry get_landing(core::BlobReader& in) {
  Landings::Entry landing;
  landing.time = in.get_i64();
  landing.seq = in.get_u64();
  landing.payload.entry.id = in.get_i64();
  landing.payload.entry.destination = static_cast<std::int32_t>(in.get_i64());
  landing.payload.entry.created = in.get_i64();
  landing.payload.entry.hops = static_cast<std::int32_t>(in.get_i64());
  landing.payload.coupler = static_cast<std::int32_t>(in.get_u64());
  landing.payload.measuring = in.get_u8() != 0;
  return landing;
}

}  // namespace

template <routing::RouteView Routes>
AsyncEngineT<Routes>::AsyncEngineT(const hypergraph::StackGraph& network,
                                   const Routes& routes,
                                   TrafficGenerator& traffic,
                                   const SimConfig& config,
                                   const TimingModel& timing)
    : network_(network),
      routes_(routes),
      traffic_(traffic),
      config_(config),
      timing_(timing) {
  const auto& hg = network_.hypergraph();
  nodes_ = hg.node_count();
  couplers_ = hg.hyperarc_count();
  OTIS_REQUIRE(timing_.coupler_count() == couplers_,
               "AsyncEngine: timing model sized for another network");
  OTIS_REQUIRE(couplers_ <= std::numeric_limits<std::int32_t>::max(),
               "AsyncEngine: coupler ids must fit 32 bits");
  voq_base_.resize(static_cast<std::size_t>(nodes_) + 1);
  voq_base_[0] = 0;
  for (hypergraph::Node v = 0; v < nodes_; ++v) {
    voq_base_[static_cast<std::size_t>(v) + 1] =
        voq_base_[static_cast<std::size_t>(v)] + hg.out_degree(v);
  }
  feed_.build(hg, voq_base_);
  retune_.assign(static_cast<std::size_t>(voq_base_.back()), 0);
  token_.assign(static_cast<std::size_t>(couplers_), 0);

  // Gates are open when no tuning latency and no guard band exist:
  // ready and retune then never pass the arbitrating boundary.
  open_ = timing_.max_tuning() == 0 && timing_.guard() == 0;
  // A winner of slot t lands by boundary t + 1 + ceil(max_prop / T); a
  // gate set at slot t opens by boundary t + 1 + ceil((max_tuning +
  // guard) / T) (the re-tune after a transmission is the latest). The
  // guard is below one slot, so the saturating sum cannot lose a slot.
  landing_depth_ = slot_wheel_depth(timing_.max_propagation());
  gate_depth_ = slot_wheel_depth(
      std::min(timing_.max_tuning(),
               std::numeric_limits<SimTime>::max() - timing_.guard()) +
      timing_.guard());
}

template <routing::RouteView Routes>
SimTime AsyncEngineT<Routes>::lookahead_slots() const {
  // A transmission in slot t lands no earlier than (t+1) * kTicksPerSlot
  // + min_propagation, so it cannot reach another shard's receive step
  // before slot t + 1 + floor(min_propagation / kTicksPerSlot). Tuning
  // and guard delay *eligibility*, never a landing time, so they cannot
  // widen the window.
  return std::min<SimTime>(kMaxLookaheadSlots,
                           1 + timing_.min_propagation() / kTicksPerSlot);
}

template <routing::RouteView Routes>
void AsyncEngineT<Routes>::admit_head(std::size_t qi, SimTime slot,
                                      const TimedVoqArena& voq,
                                      detail::OccupancyMasks& masks,
                                      EligibilityWheel& gates) const {
  if (open_) {
    masks.mark_nonempty(feed_, qi);
    return;
  }
  // The head may transmit once its own tuning finished AND the
  // transmitter re-tuned since the queue's previous transmission, both
  // guard ticks before the boundary.
  if (gates.admit(qi,
                  std::max(voq.front_ready(qi), retune_[qi]) + timing_.guard(),
                  slot)) {
    masks.mark_nonempty(feed_, qi);
  }
}

template <routing::RouteView Routes>
void AsyncEngineT<Routes>::after_pop(std::size_t qi, std::size_t h,
                                     SimTime slot, const TimedVoqArena& voq,
                                     detail::OccupancyMasks& masks,
                                     EligibilityWheel& gates) {
  if (open_) {
    // Any head may go at the next boundary: the bit stays while queued.
    // (The re-tune lands exactly on that boundary and can never block,
    // so it is not tracked.)
    if (voq.empty(qi)) {
      masks.mark_empty(feed_, qi);
    }
    return;
  }
  // Transmitter dead time: busy through this slot, re-tunes after. The
  // next head's gate is therefore past the next boundary: it parks.
  masks.mark_empty(feed_, qi);
  retune_[qi] = ticks_from_slots(slot + 1) +
                timing_.tuning(static_cast<hypergraph::HyperarcId>(h));
  if (!voq.empty(qi)) {
    admit_head(qi, slot, voq, masks, gates);
  }
}

template <routing::RouteView Routes>
RunMetrics AsyncEngineT<Routes>::run(
    std::vector<std::int64_t>& coupler_success) {
  coupler_success.assign(static_cast<std::size_t>(couplers_), 0);
  if (config_.workload != nullptr || config_.engine == Engine::kAsyncSharded) {
    return run_sharded(coupler_success);
  }
  core::Rng rng = core::Rng::stream(config_.seed, kRunStream);
  RunMetrics metrics;
  metrics.slots = config_.measure_slots;
  metrics.latency.prepare(
      resolve_latency_sketch(config_.latency_mode, nodes_),
      config_.measure_slots * nodes_);

  const SimTime horizon = config_.warmup_slots + config_.measure_slots;
  const SimTime drain_bound = horizon + 1'000'000;
  const SimTime warmup_tick = ticks_from_slots(config_.warmup_slots);
  std::int64_t inflight = 0;
  std::int64_t next_packet_id = 0;

  TimedVoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()));
  detail::OccupancyMasks masks;
  masks.init(feed_);
  EligibilityWheel gates(gate_depth_);
  Landings landings(landing_depth_);
  std::uint64_t next_seq = 0;  ///< landing tie-break: transmission order
  SimTime now = 0;

  // Hoisted scratch, as in the phased engine.
  std::vector<std::size_t> winners;
  std::vector<std::size_t> scratch;
  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));
  const std::size_t capacity = static_cast<std::size_t>(config_.wavelengths);
  const std::int64_t queue_cap = config_.queue_capacity;
  const Arbitration policy = config_.arbitration;

  // Telemetry (see phased run_serial): one pointer test per slot when
  // detached, state reads only at sampling boundaries. The async
  // engine additionally reports the landing wheel's pending count.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows(tel, config_.warmup_slots, horizon);
  SimTime tel_last = 0;
  const auto fill_probes = [&]() {
    detail::fill_metric_probes(*tel, metrics, inflight, feed_, voq);
    tel->probes().set(tel->engine_probes().pending_events,
                      static_cast<std::int64_t>(landings.pending()));
  };

  /// Queues `entry` at `at` in slot `now`; `tick` is when it landed
  /// there (its transmitter is tuned `tuning` ticks later). Mirrors the
  /// phased engine's enqueue, including drop accounting. On the
  /// gates-open fast path ready is never read, so the next-coupler
  /// lookup that only feeds the tuning latency is skipped.
  const auto enqueue = [&](const VoqEntry& entry, hypergraph::Node at,
                           SimTime tick, bool measuring) {
    const std::int32_t slot = routes_.next_slot(at, entry.destination);
    const std::size_t qi = static_cast<std::size_t>(
        voq_base_[static_cast<std::size_t>(at)] + slot);
    const std::size_t size = voq.size(qi);
    if (queue_cap > 0 && static_cast<std::int64_t>(size) >= queue_cap) {
      if (measuring) {
        ++metrics.dropped_packets;
      }
      --inflight;
      return;
    }
    SimTime ready = tick;
    if (!open_) {
      ready = tick +
              timing_.tuning(routes_.next_coupler(at, entry.destination));
    }
    voq.push(qi, TimedVoqEntry{entry.id, entry.created, entry.destination,
                               entry.hops, ready});
    if (size == 0) {
      admit_head(qi, now, voq, masks, gates);
    }
  };

  /// Receive step of one landed transmission.
  const auto receive = [&](const Landings::Entry& landing) {
    const Arrival& arrival = landing.payload;
    const hypergraph::Node relay =
        routes_.relay(arrival.coupler, arrival.entry.destination);
    if (relay == arrival.entry.destination) {
      if (arrival.measuring) {
        ++metrics.delivered_packets;
        if (arrival.entry.created >= warmup_tick) {
          metrics.latency.record(
              latency_slots(landing.time, arrival.entry.created));
        }
      }
      --inflight;
    } else {
      enqueue(arrival.entry, relay, landing.time, arrival.measuring);
    }
  };

  // Checkpointing (sim/checkpoint.hpp): same "blob = state at the top
  // of a slot that will execute" contract as the phased serial loop,
  // plus the async-only state -- re-tune deadlines, the pending landings
  // (re-pushed keyed: replay order is a pure function of (time, seq))
  // and the next landing sequence number. Gates are not stored: a
  // restored queue's head is admitted afresh against the resumed slot.
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  const auto save_checkpoint = [&](SimTime next_slot) {
    core::BlobWriter out;
    checkpoint_write_header(out, config_, nodes_, couplers_);
    out.put_i64(next_slot);
    out.put_i64(inflight);
    out.put_i64(next_packet_id);
    out.put_rng(rng);
    out.put_i64_vec(token_);
    out.put_i64_vec(retune_);
    checkpoint_put_metrics(out, metrics);
    out.put_i64_vec(coupler_success);
    checkpoint_put_voq(out, voq);
    out.put_u64(landings.pending());
    landings.for_each(
        [&](const Landings::Entry& landing) { put_landing(out, landing); });
    out.put_u64(next_seq);
    std::vector<std::int64_t> traffic_state;
    traffic_.checkpoint_state(traffic_state);
    out.put_i64_vec(traffic_state);
    checkpoint_put_telemetry(out, tel, tel_last);
    checkpoint_store(config_.checkpoint_path, out);
  };
  SimTime start_slot = 0;
  if (config_.checkpoint_resume) {
    std::vector<std::uint8_t> blob;
    if (checkpoint_load(config_.checkpoint_path, config_, nodes_, couplers_,
                        blob)) {
      core::BlobReader in(blob);
      (void)checkpoint_read_header(in, config_, nodes_, couplers_);
      start_slot = in.get_i64();
      inflight = in.get_i64();
      next_packet_id = in.get_i64();
      rng = in.get_rng();
      token_ = in.get_i64_vec();
      retune_ = in.get_i64_vec();
      checkpoint_get_metrics(in, metrics);
      coupler_success = in.get_i64_vec();
      checkpoint_get_voq(in, voq);
      const std::uint64_t pending = in.get_u64();
      for (std::uint64_t i = 0; i < pending; ++i) {
        Landings::Entry landing = get_landing(in);
        landings.push(landing.time, landing.seq, landing.payload);
      }
      next_seq = in.get_u64();
      traffic_.restore_state(in.get_i64_vec());
      tel_last = checkpoint_get_telemetry(in, tel);
      for (std::size_t qi = 0; qi < voq.queue_count(); ++qi) {
        if (!voq.empty(qi)) {
          admit_head(qi, start_slot, voq, masks, gates);
        }
      }
    }
  }

  for (now = start_slot;;) {
    if (ckpt_every > 0 && now != start_slot && now % ckpt_every == 0) {
      save_checkpoint(now);
      if (config_.checkpoint_stop_at >= 0 &&
          now >= config_.checkpoint_stop_at) {
        // Drill hook: pretend the process died right after the write
        // (no in-flight flush, no telemetry finish()).
        metrics.backlog = inflight;
        metrics.interrupted = true;
        return metrics;
      }
    }
    const SimTime slot_tick = ticks_from_slots(now);
    const bool measuring = now >= config_.warmup_slots && now < horizon;

    // Receive every transmission that landed by this slot boundary --
    // the phased engine's phase 3 runs before the next slot's phase 1,
    // so arrivals at exactly the boundary precede this slot's work.
    landings.replay(now, receive);

    // Generate (stops at the horizon; drain only afterwards). Compact
    // batch: only the slot's actual senders come back.
    if (now < horizon) {
      const std::size_t sender_count =
          traffic_.demand_batch_senders(0, nodes_, rng, senders.data());
      if (measuring) {
        metrics.offered_packets += static_cast<std::int64_t>(sender_count);
      }
      inflight += static_cast<std::int64_t>(sender_count);
      for (std::size_t i = 0; i < sender_count; ++i) {
        const SenderDemand d = senders[i];
        if (config_.recorder != nullptr) {
          config_.recorder->record(now, d.source, d.destination);
        }
        enqueue(VoqEntry{next_packet_id++, slot_tick,
                         static_cast<std::int32_t>(d.destination), 0},
                d.source, slot_tick, measuring);
      }
    }

    // Arbitrate: winner selection over the couplers with a head whose
    // transmitter tuned in time -- the request bits hold exactly those
    // heads once this slot's parked gates open.
    if (!open_) {
      gates.release(now,
                    [&](std::size_t qi) { masks.mark_nonempty(feed_, qi); });
    }
    for (std::size_t aw = 0; aw < masks.active.size(); ++aw) {
      std::uint64_t aword = masks.active[aw];
      while (aword != 0) {
        const std::size_t h =
            (aw << 6) + static_cast<std::size_t>(std::countr_zero(aword));
        aword &= aword - 1;
        const std::size_t fb = static_cast<std::size_t>(feed_.feed_base[h]);
        const std::size_t source_count =
            static_cast<std::size_t>(feed_.feed_base[h + 1]) - fb;
        const std::size_t mb = static_cast<std::size_t>(feed_.mask_base[h]);
        const std::size_t words =
            static_cast<std::size_t>(feed_.mask_base[h + 1]) - mb;
        const bool collided = detail::pick_winners(
            policy, capacity, source_count, masks.request.data() + mb, words,
            token_[h], rng, winners, scratch);
        if (collided && measuring) {
          ++metrics.collisions;
        }
        // Propagate: the transmission occupies slot `now` and lands
        // prop(h) ticks after the next boundary.
        const SimTime at =
            slot_tick + kTicksPerSlot +
            timing_.propagation(static_cast<hypergraph::HyperarcId>(h));
        for (std::size_t si : winners) {
          const std::size_t qi =
              static_cast<std::size_t>(feed_.feed_qi[fb + si]);
          TimedVoqEntry entry = voq.pop_front(qi);
          after_pop(qi, h, now, voq, masks, gates);
          ++entry.hops;
          if (measuring) {
            ++metrics.coupler_transmissions;
            ++coupler_success[h];
          }
          landings.push(at, next_seq++,
                        Arrival{VoqEntry{entry.id, entry.created,
                                         entry.destination, entry.hops},
                                static_cast<std::int32_t>(h), measuring});
        }
      }
    }

    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        fill_probes();
        tel->sample(now);
      }
      tel_last = now;
    }

    const bool more_traffic = now + 1 < horizon;
    const bool keep_draining = config_.drain && inflight > 0;
    if (!(more_traffic || keep_draining)) {
      break;
    }
    ++now;
    if (now > drain_bound) {
      break;
    }
  }

  // Transmissions of the final slot are still in flight; land them (the
  // phased engine's last phase 3 does the same work inside the slot).
  landings.drain(receive);

  metrics.backlog = inflight;
  if (tel != nullptr) {
    windows.finish();
    fill_probes();
    tel->finish(tel_last);
  }
  return metrics;
}

template <routing::RouteView Routes>
RunMetrics AsyncEngineT<Routes>::run_sharded(
    std::vector<std::int64_t>& coupler_success) {
  // Open-loop kAsyncSharded runs and every closed-loop run share this
  // loop; a closed-loop Engine::kAsync run is it with one shard.
  workload::Workload* const load = config_.workload.get();
  const bool closed = load != nullptr;
  if (closed) {
    load->reset();
  }
  const bool sharded = config_.engine == Engine::kAsyncSharded;
  const int threads =
      sharded ? detail::clamp_threads(config_.threads, nodes_, couplers_) : 1;
  const detail::ShardPlan plan =
      detail::plan_shards(threads, voq_base_, feed_);

  // Sharded stream universe (shared with the feed-local phased loop):
  // per-node generation streams, per-coupler arbitration streams, so
  // the partition can never influence a draw. The serial open loop's
  // single kRunStream interleaves draws across the whole network and
  // cannot be split without replaying it, so the sharded open loop is a
  // different -- equally valid -- universe; in the slot-aligned limit it
  // is bit-identical to Engine::kSharded.
  std::vector<core::Rng> gen_rng = detail::node_streams(config_.seed, nodes_);
  std::vector<core::Rng> arb_rng =
      detail::coupler_streams(config_.seed, couplers_);

  // Open and closed loops differ only here and in the completion steps.
  // Open loop: generation stops at `window_end`, only the measure window
  // [window_begin, window_end) counts, and the run drains up to a
  // million slots past it in windows of lookahead_slots(). Closed loop:
  // delivery feedback gates injection every slot, so the window is one
  // slot and a receive barrier between landing and injection feeds the
  // workload; the whole run is measured and the workload's bound caps
  // it. Background packet ids start after the workload's ids (at 0 in
  // open loop).
  const std::int64_t background_base = closed ? load->packet_count() : 0;
  const SimTime window_begin = closed ? 0 : config_.warmup_slots;
  const SimTime window_end =
      closed ? detail::workload_slot_bound(*load) + 1
             : config_.warmup_slots + config_.measure_slots;
  const SimTime drain_bound = window_end + 1'000'000;
  const SimTime warmup_tick = ticks_from_slots(window_begin);
  const SimTime lookahead = closed ? 1 : lookahead_slots();
  const std::size_t capacity = static_cast<std::size_t>(config_.wavelengths);
  const std::int64_t queue_cap = config_.queue_capacity;  // 0 when closed
  const Arbitration policy = config_.arbitration;

  TimedVoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()),
           static_cast<std::size_t>(threads));

  struct Shard : detail::ShardTally {
    std::int64_t node_begin = 0, node_end = 0;
    std::int64_t events_delta = 0;  ///< landing pushes - replays, per fold
    SimTime makespan_tick = 0;      ///< latest workload delivery
    /// Request bits (heads that may transmit now) and coupler summary;
    /// only the bits of the shard's own feed VOQs are ever set.
    detail::OccupancyMasks masks;
    EligibilityWheel gates;  ///< the shard's heads waiting for their gate
    Landings landings;       ///< arrivals at the shard's nodes in flight
    /// Cross-shard arrivals per consumer shard: the consumer re-pushes
    /// them keyed at the window barrier, so the global (time, seq) replay
    /// order is preserved across the handoff.
    std::vector<std::vector<Landings::Entry>> outbox;
    std::vector<std::int64_t> delivered_ids;  ///< workload ids this slot
    std::vector<std::size_t> winners, scratch;
    /// Telemetry snapshots per window slot (cumulative deltas).
    std::vector<std::int64_t> backlog_snap, events_snap;
  };
  std::vector<Shard> shards(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    shard.node_begin = plan.node_cut[static_cast<std::size_t>(w)];
    shard.node_end = plan.node_cut[static_cast<std::size_t>(w) + 1];
    shard.masks.init(feed_);
    shard.gates = EligibilityWheel(gate_depth_);
    shard.landings = Landings(landing_depth_);
    shard.outbox.resize(static_cast<std::size_t>(threads));
    shard.backlog_snap.assign(static_cast<std::size_t>(lookahead), 0);
    shard.events_snap.assign(static_cast<std::size_t>(lookahead), 0);
    shard.latency.prepare(
        resolve_latency_sketch(config_.latency_mode, nodes_),
        closed ? background_base / threads + 1
               : config_.measure_slots * (shard.node_end - shard.node_begin));
    detail::assign_pool(voq, voq_base_, shard.node_begin, shard.node_end, w);
  }

  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));

  // Telemetry: per-shard frames for every slot of the window, folded in
  // the window barrier's completion step in slot order -- probe values
  // and timeseries bytes cannot depend on the partition. Backlog and
  // landings pending are global gauges reconstructed from the window
  // start value plus the shards' cumulative per-slot deltas.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows(tel, window_begin, window_end);
  SimTime tel_last = 0;
  std::vector<obs::ProbeRegistry> frames =
      detail::probe_frames(tel, threads * lookahead);

  // Runtime channel (obs/runtime_stats.hpp): per-shard barrier-wait /
  // window-width / mailbox / landing-wheel-depth accounting. Sends are
  // counted at the producer before the window barrier, replays at the
  // consumer inside its completion step (workers blocked), so across a
  // run total sends == total replays. Serial async runs report no
  // shards.
  detail::ShardRuntimes runtime(
      sharded ? config_.runtime_stats.get() : nullptr, threads);

  // Run state shared across workers; mutated only by the barriers'
  // completion steps, which run while every worker is blocked. `inject`
  // is read-only during phases.
  SimTime win_begin = 0;
  SimTime win_end = closed ? 1 : std::min(lookahead, window_end);
  SimTime slots_run = 0;  ///< closed loop: slots executed
  std::int64_t inflight = 0;
  std::int64_t pending_total = 0;
  bool load_done = false;  ///< closed loop: no more workload injections
  bool running = true;
  bool interrupted = false;  ///< checkpoint_stop_at drill fired
  std::vector<workload::WorkloadPacket> inject;

  // Checkpointing (open loop only; validation rejects it with a
  // workload). Saves happen at window boundaries (the completion step,
  // all workers blocked), at the first boundary at or past each
  // checkpoint_every_slots multiple. As in the feed-local phased loop
  // the blob folds the per-shard counters and keeps the per-unit RNG
  // streams, so it is thread-count independent; landings carry their
  // global (time, seq) keys, and on restore each one lands on the wheel
  // of the shard owning its relay node (final deliveries touch only
  // counters, so any wheel works for them -- shard 0 takes them).
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  SimTime next_ckpt =
      ckpt_every > 0 ? ckpt_every : std::numeric_limits<SimTime>::max();
  std::exception_ptr ckpt_error;  ///< completion step is noexcept
  const auto save_checkpoint = [&](SimTime boundary) {
    core::BlobWriter out;
    checkpoint_write_header(out, config_, nodes_, couplers_);
    out.put_i64(boundary);
    out.put_i64(inflight);
    out.put_i64(pending_total);
    for (const core::Rng& r : gen_rng) {
      out.put_rng(r);
    }
    for (const core::Rng& r : arb_rng) {
      out.put_rng(r);
    }
    out.put_i64_vec(token_);
    out.put_i64_vec(retune_);
    RunMetrics fold;
    std::uint64_t events = 0;
    for (const Shard& shard : shards) {
      shard.fold_into(fold);
      events += shard.landings.pending();
    }
    out.put_i64(fold.offered_packets);
    out.put_i64(fold.delivered_packets);
    out.put_i64(fold.dropped_packets);
    out.put_i64(fold.coupler_transmissions);
    out.put_i64(fold.collisions);
    fold.latency.serialize(out);
    out.put_i64_vec(coupler_success);
    checkpoint_put_voq(out, voq);
    out.put_u64(events);
    for (const Shard& shard : shards) {
      shard.landings.for_each(
          [&](const Landings::Entry& landing) { put_landing(out, landing); });
    }
    std::vector<std::int64_t> traffic_state;
    traffic_.checkpoint_state(traffic_state);
    out.put_i64_vec(traffic_state);
    checkpoint_put_telemetry(out, tel, tel_last);
    checkpoint_store(config_.checkpoint_path, out);
  };
  if (config_.checkpoint_resume) {
    std::vector<std::uint8_t> blob;
    if (checkpoint_load(config_.checkpoint_path, config_, nodes_, couplers_,
                        blob)) {
      core::BlobReader in(blob);
      (void)checkpoint_read_header(in, config_, nodes_, couplers_);
      win_begin = in.get_i64();
      win_end = std::min(win_begin + lookahead,
                         win_begin < window_end ? window_end : drain_bound + 1);
      if (ckpt_every > 0) {
        next_ckpt = (win_begin / ckpt_every + 1) * ckpt_every;
      }
      inflight = in.get_i64();
      pending_total = in.get_i64();
      for (core::Rng& r : gen_rng) {
        r = in.get_rng();
      }
      for (core::Rng& r : arb_rng) {
        r = in.get_rng();
      }
      token_ = in.get_i64_vec();
      retune_ = in.get_i64_vec();
      // The folded counters land in shard 0; the final fold is an
      // order-independent sum/merge, so the split is irrelevant.
      Shard& s0 = shards[0];
      s0.offered = in.get_i64();
      s0.delivered = in.get_i64();
      s0.dropped = in.get_i64();
      s0.transmissions = in.get_i64();
      s0.collisions = in.get_i64();
      s0.latency.deserialize(in);
      coupler_success = in.get_i64_vec();
      checkpoint_get_voq(in, voq);
      const std::uint64_t events = in.get_u64();
      for (std::uint64_t i = 0; i < events; ++i) {
        Landings::Entry landing = get_landing(in);
        const hypergraph::Node destination =
            landing.payload.entry.destination;
        const hypergraph::Node relay =
            routes_.relay(landing.payload.coupler, destination);
        const std::size_t owner =
            relay != destination
                ? static_cast<std::size_t>(
                      plan.node_owner[static_cast<std::size_t>(relay)])
                : 0;
        shards[owner].landings.push(landing.time, landing.seq,
                                    landing.payload);
      }
      traffic_.restore_state(in.get_i64_vec());
      tel_last = checkpoint_get_telemetry(in, tel);
      // The blob stores queues, not masks or gates: each shard admits
      // its own non-empty VOQs' heads afresh against the resumed slot.
      for (Shard& shard : shards) {
        for (std::int64_t qi = voq_base_[static_cast<std::size_t>(
                 shard.node_begin)];
             qi < voq_base_[static_cast<std::size_t>(shard.node_end)]; ++qi) {
          if (!voq.empty(static_cast<std::size_t>(qi))) {
            admit_head(static_cast<std::size_t>(qi), win_begin, voq,
                       shard.masks, shard.gates);
          }
        }
      }
    }
  }

  // Closed loop's receive barrier: fold the landings, feed the workload,
  // and decide -- done with nothing in flight stops before the slot
  // counts; a bound hit counts the boundary, as the phased engines do.
  const auto on_receives_done = [&]() noexcept {
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      pending_total += shard.events_delta;
      shard.events_delta = 0;
      // Feed order across shards is arbitrary but irrelevant: poll()
      // depends only on the delivered SET (workload contract).
      for (const std::int64_t id : shard.delivered_ids) {
        load->delivered(id);
      }
      shard.delivered_ids.clear();
    }
    load_done = load->done();
    if (load_done && inflight == 0) {
      slots_run = win_begin;
      running = false;
      return;
    }
    if (win_begin >= window_end) {
      slots_run = win_begin + 1;
      running = false;
      return;
    }
    inject.clear();
    if (!load_done) {
      load->poll(win_begin, inject);
    }
  };
  const auto on_window_end = [&]() noexcept {
    // Drain the mailboxes while every worker is blocked: a worker-side
    // drain would race with a producer that cleared the barrier first
    // and is already appending next-window mail to the same outbox.
    // Lookahead guarantees every mailed landing slot is at or past the
    // next window's first slot, so the drain order across producers is
    // irrelevant -- replay order is a pure function of (time, seq).
    for (Shard& producer : shards) {
      for (int w = 0; w < threads; ++w) {
        auto& box = producer.outbox[static_cast<std::size_t>(w)];
        if (obs::ShardRuntime* const rt = runtime.at(w)) {
          rt->mailbox_msgs_replayed += static_cast<std::int64_t>(box.size());
        }
        for (Landings::Entry& mail : box) {
          shards[static_cast<std::size_t>(w)].landings.push(
              mail.time, mail.seq, std::move(mail.payload));
        }
        box.clear();
      }
    }
    if (tel != nullptr) {
      for (SimTime s = win_begin; s < win_end; ++s) {
        windows.at_slot(s);
        if (tel->due(s)) {
          const std::size_t k = static_cast<std::size_t>(s - win_begin);
          obs::ProbeRegistry& reg = tel->probes();
          reg.zero();
          std::int64_t backlog = inflight;
          std::int64_t pending = pending_total;
          for (int w = 0; w < threads; ++w) {
            reg.accumulate(frames[static_cast<std::size_t>(w) *
                                      static_cast<std::size_t>(lookahead) +
                                  k]);
            backlog += shards[static_cast<std::size_t>(w)].backlog_snap[k];
            pending += shards[static_cast<std::size_t>(w)].events_snap[k];
          }
          reg.set(tel->engine_probes().backlog, backlog);
          reg.set(tel->engine_probes().pending_events, pending);
          tel->sample(s);
        }
        tel_last = s;
      }
    }
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      pending_total += shard.events_delta;
      shard.events_delta = 0;
    }
    if (closed) {
      // Closed loops leave only at the receive barrier.
      win_begin = win_end;
      win_end = win_begin + 1;
      return;
    }
    const bool more_traffic = win_end < window_end;
    const bool keep_draining = config_.drain && inflight > 0;
    if (!(more_traffic || keep_draining)) {
      running = false;
      return;
    }
    win_begin = win_end;
    if (win_begin > drain_bound) {
      running = false;
      return;
    }
    win_end = std::min(win_begin + lookahead,
                       win_begin < window_end ? window_end : drain_bound + 1);
    // The run is definitely continuing into [win_begin, win_end): save
    // at the first boundary at or past the next checkpoint multiple.
    if (win_begin >= next_ckpt) {
      try {
        save_checkpoint(win_begin);
        next_ckpt = (win_begin / ckpt_every + 1) * ckpt_every;
        if (config_.checkpoint_stop_at >= 0 &&
            win_begin >= config_.checkpoint_stop_at) {
          interrupted = true;
          running = false;
        }
      } catch (...) {
        ckpt_error = std::current_exception();
        running = false;
      }
    }
  };
  std::barrier<decltype(on_receives_done)> receive_barrier(threads,
                                                           on_receives_done);
  std::barrier<decltype(on_window_end)> window_barrier(threads,
                                                       on_window_end);

  /// Queues `entry` at node `at` of `shard` in slot `now` (feed-local:
  /// `at` is owned by `shard`, so the masks and gates it touches are its
  /// own). Closed loops have no queue cap, so they never drop. On the
  /// gates-open fast path ready is never read, so the next-coupler lookup
  /// that only feeds the tuning latency is skipped.
  const auto enqueue = [&](Shard& shard, const VoqEntry& entry,
                           hypergraph::Node at, SimTime tick, bool measuring,
                           SimTime now) {
    const std::int32_t slot = routes_.next_slot(at, entry.destination);
    const std::size_t qi = static_cast<std::size_t>(
        voq_base_[static_cast<std::size_t>(at)] + slot);
    const std::size_t size = voq.size(qi);
    if (queue_cap > 0 && static_cast<std::int64_t>(size) >= queue_cap) {
      if (measuring) {
        ++shard.dropped;
      }
      --shard.inflight_delta;
      return;
    }
    SimTime ready = tick;
    if (!open_) {
      ready = tick +
              timing_.tuning(routes_.next_coupler(at, entry.destination));
    }
    voq.push(qi, TimedVoqEntry{entry.id, entry.created, entry.destination,
                               entry.hops, ready});
    if (size == 0) {
      admit_head(qi, now, voq, shard.masks, shard.gates);
    }
  };

  /// Receive step of one landed transmission, in the receive step of
  /// slot `now`.
  const auto receive = [&](Shard& shard, const Landings::Entry& landing,
                           SimTime now) {
    const Arrival& arrival = landing.payload;
    const SimTime tick = landing.time;
    const hypergraph::Node relay =
        routes_.relay(arrival.coupler, arrival.entry.destination);
    if (relay == arrival.entry.destination) {
      if (arrival.measuring) {
        ++shard.delivered;
        if (arrival.entry.created >= warmup_tick) {
          shard.latency.record(latency_slots(tick, arrival.entry.created));
        }
      }
      if (arrival.entry.id < background_base) {
        shard.delivered_ids.push_back(arrival.entry.id);
        shard.makespan_tick = std::max(shard.makespan_tick, tick);
      }
      --shard.inflight_delta;
    } else {
      enqueue(shard, arrival.entry, relay, tick, arrival.measuring, now);
    }
  };

  const auto worker = [&](int w, obs::ShardRuntime* rt) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    detail::OccupancyMasks& masks = shard.masks;
    while (true) {
      // Cross-shard arrivals were already pushed onto this shard's
      // landing wheel by the window barrier's completion step.
      if (rt != nullptr) {
        ++rt->windows;
        rt->lookahead_used += win_end - win_begin;
        rt->lookahead_available += lookahead;
        rt->calendar_peak = std::max(
            rt->calendar_peak,
            static_cast<std::int64_t>(shard.landings.pending()));
      }
      for (SimTime s = win_begin; s < win_end; ++s) {
        const SimTime slot_tick = ticks_from_slots(s);
        const bool measuring = s >= window_begin && s < window_end;

        // Receive every transmission that landed by this boundary.
        shard.landings.replay(s, [&](const Landings::Entry& landing) {
          --shard.events_delta;
          receive(shard, landing, s);
        });
        if (closed) {
          // All of a boundary's deliveries reach the workload before it
          // is polled for this slot's injections.
          detail::end_phase(threads, receive_barrier, on_receives_done, rt);
          if (!running) {
            return;
          }
        }

        // Generate: the shard's slice of the polled workload packets
        // in the workload's (id-sorted) order, then background traffic
        // (stops at the horizon; drain only afterwards). The id is a
        // function of (slot, source), so no counter is shared.
        for (const workload::WorkloadPacket& packet : inject) {
          if (packet.source < shard.node_begin ||
              packet.source >= shard.node_end) {
            continue;
          }
          ++shard.offered;
          ++shard.inflight_delta;
          enqueue(shard,
                  VoqEntry{packet.id, slot_tick,
                           static_cast<std::int32_t>(packet.destination), 0},
                  packet.source, slot_tick, measuring, s);
        }
        if (!load_done && s < window_end) {
          const std::size_t sender_count =
              traffic_.demand_batch_senders_streams(
                  shard.node_begin, shard.node_end, gen_rng.data(),
                  senders.data() + shard.node_begin);
          if (measuring) {
            shard.offered += static_cast<std::int64_t>(sender_count);
          }
          shard.inflight_delta += static_cast<std::int64_t>(sender_count);
          for (std::size_t i = 0; i < sender_count; ++i) {
            const SenderDemand d =
                senders[static_cast<std::size_t>(shard.node_begin) + i];
            if (config_.recorder != nullptr) {
              config_.recorder->record(s, d.source, d.destination);
            }
            enqueue(shard,
                    VoqEntry{background_base + s * nodes_ + d.source,
                             slot_tick,
                             static_cast<std::int32_t>(d.destination), 0},
                    d.source, slot_tick, measuring, s);
          }
        }

        // Arbitrate the shard's couplers with a head that may transmit,
        // found by scanning its summary bitmap once this slot's parked
        // gates open -- feed-locality makes every read shard-private.
        if (!open_) {
          shard.gates.release(
              s, [&](std::size_t qi) { masks.mark_nonempty(feed_, qi); });
        }
        for (std::size_t aw = 0; aw < masks.active.size(); ++aw) {
          std::uint64_t aword = masks.active[aw];
          while (aword != 0) {
            const std::size_t h =
                (aw << 6) + static_cast<std::size_t>(std::countr_zero(aword));
            aword &= aword - 1;
            const std::size_t fb =
                static_cast<std::size_t>(feed_.feed_base[h]);
            const std::size_t source_count =
                static_cast<std::size_t>(feed_.feed_base[h + 1]) - fb;
            const std::size_t mb =
                static_cast<std::size_t>(feed_.mask_base[h]);
            const std::size_t words =
                static_cast<std::size_t>(feed_.mask_base[h + 1]) - mb;
            const bool collided = detail::pick_winners(
                policy, capacity, source_count, masks.request.data() + mb,
                words, token_[h], arb_rng[h], shard.winners, shard.scratch);
            if (collided && measuring) {
              ++shard.collisions;
            }
            const auto coupler = static_cast<hypergraph::HyperarcId>(h);
            const SimTime at =
                slot_tick + kTicksPerSlot + timing_.propagation(coupler);
            for (std::size_t idx = 0; idx < shard.winners.size(); ++idx) {
              const std::size_t qi = static_cast<std::size_t>(
                  feed_.feed_qi[fb + shard.winners[idx]]);
              TimedVoqEntry entry = voq.pop_front(qi);
              after_pop(qi, h, s, voq, masks, shard.gates);
              ++entry.hops;
              if (measuring) {
                ++shard.transmissions;
                ++coupler_success[h];
              }
              // The global transmission order (slot, coupler, winner) is
              // the sequence key: per-wheel replay order then matches the
              // serial loop's auto-sequenced wheel exactly, whatever
              // shard the landing crosses into.
              const std::uint64_t seq =
                  (static_cast<std::uint64_t>(s) *
                       static_cast<std::uint64_t>(couplers_) +
                   static_cast<std::uint64_t>(h)) *
                      static_cast<std::uint64_t>(capacity) +
                  static_cast<std::uint64_t>(idx);
              Arrival arrival{VoqEntry{entry.id, entry.created,
                                       entry.destination, entry.hops},
                              static_cast<std::int32_t>(h), measuring};
              ++shard.events_delta;
              const hypergraph::Node relay =
                  routes_.relay(coupler, entry.destination);
              if (relay != entry.destination &&
                  plan.node_owner[static_cast<std::size_t>(relay)] != w) {
                shard
                    .outbox[static_cast<std::size_t>(
                        plan.node_owner[static_cast<std::size_t>(relay)])]
                    .push_back(Landings::Entry{at, seq, arrival});
              } else {
                // Final deliveries stay on the transmitter's wheel (only
                // counters are touched at the landing).
                shard.landings.push(at, seq, arrival);
              }
            }
          }
        }

        if (tel != nullptr && tel->due(s)) {
          const std::size_t k = static_cast<std::size_t>(s - win_begin);
          obs::ProbeRegistry& frame =
              frames[static_cast<std::size_t>(w) *
                         static_cast<std::size_t>(lookahead) +
                     k];
          const obs::EngineProbes& ids = tel->engine_probes();
          shard.snapshot(frame, ids);
          for (const hypergraph::HyperarcId h :
               plan.couplers[static_cast<std::size_t>(w)]) {
            detail::observe_occupancy(frame, ids.occupancy, feed_, voq, h,
                                      h + 1);
          }
          shard.backlog_snap[k] = shard.inflight_delta;
          shard.events_snap[k] = shard.events_delta;
        }
      }
      if (rt != nullptr) {
        // The outboxes hold exactly this window's cross-shard sends
        // (the previous window's were drained at the last barrier).
        for (const auto& box : shard.outbox) {
          rt->mailbox_msgs_sent += static_cast<std::int64_t>(box.size());
          rt->mailbox_bytes_sent +=
              static_cast<std::int64_t>(box.size() * sizeof(Landings::Entry));
        }
      }
      detail::end_phase(threads, window_barrier, on_window_end, rt);
      if (!running) {
        return;
      }
    }
  };
  runtime.run(threads, "async_sharded", closed ? "workload" : "open_loop",
              worker);

  if (ckpt_error != nullptr) {
    std::rethrow_exception(ckpt_error);
  }

  // Open loop lands everything still in flight (the last window's
  // barrier already drained every mailbox onto the wheels). A receive
  // only counts a delivery or re-enqueues at a relay's VOQ -- it never
  // schedules a new landing -- so a full per-shard wheel drain empties
  // the system. Order inside each shard still follows (time, seq); the
  // cross-shard interleaving is irrelevant because a shard's flush
  // touches only its own VOQs and counters. Drill interruptions skip the
  // flush: the checkpoint already captured those landings, and the
  // resumed run lands them. Closed loops leave undeliverable landings
  // pending and report them as backlog.
  if (!closed && !interrupted) {
    for (Shard& shard : shards) {
      shard.landings.drain([&](const Landings::Entry& landing) {
        receive(shard, landing, slot_at_or_after(landing.time));
      });
    }
  }

  RunMetrics metrics;
  metrics.slots = closed ? slots_run : config_.measure_slots;
  SimTime makespan_tick = 0;
  std::int64_t pending = 0;
  for (const Shard& shard : shards) {
    shard.fold_into(metrics);
    inflight += shard.inflight_delta;
    makespan_tick = std::max(makespan_tick, shard.makespan_tick);
    pending += static_cast<std::int64_t>(shard.landings.pending());
  }
  metrics.makespan_slots = (makespan_tick + kTicksPerSlot - 1) / kTicksPerSlot;
  metrics.backlog = inflight;
  metrics.interrupted = interrupted;
  // Drill interruptions skip finish(): the process "died", and the
  // resumed run continues the telemetry stream where this one stopped.
  if (tel != nullptr && !interrupted) {
    windows.finish();
    detail::fill_metric_probes(*tel, metrics, inflight, feed_, voq);
    tel->probes().set(tel->engine_probes().pending_events, pending);
    tel->finish(tel_last);
  }
  return metrics;
}

template class AsyncEngineT<routing::CompiledRoutes>;
template class AsyncEngineT<routing::CompressedRoutes>;

}  // namespace otis::sim
