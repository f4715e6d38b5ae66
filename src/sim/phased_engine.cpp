#include "sim/phased_engine.hpp"

#include <algorithm>
#include <barrier>
#include <bit>
#include <chrono>
#include <exception>

#include "core/error.hpp"
#include "sim/arbitration.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sharding.hpp"

namespace otis::sim {
namespace {

/// Legacy per-run stream tag (must match the event-queue engine).
constexpr std::uint64_t kRunStream = 0x0715;
/// Sharded/workload per-unit streams and the closed-loop slot bound
/// are shared with the async engine (ops_network.hpp detail) so
/// workload runs agree across engines.
using detail::coupler_streams;
using detail::node_streams;
using detail::workload_slot_bound;

/// How far ahead the routing walk prefetches relay entries. Consecutive
/// winners land on scattered relay-table rows, so a short look-ahead
/// hides the load latency without thrashing the prefetch queue.
constexpr std::size_t kRelayPrefetchAhead = 8;

}  // namespace

template <routing::RouteView Routes>
PhasedEngineT<Routes>::PhasedEngineT(const hypergraph::StackGraph& network,
                                     const Routes& routes,
                                     TrafficGenerator& traffic,
                                     const SimConfig& config)
    : network_(network),
      routes_(routes),
      traffic_(traffic),
      config_(config) {
  const auto& hg = network_.hypergraph();
  nodes_ = hg.node_count();
  couplers_ = hg.hyperarc_count();
  voq_base_.resize(static_cast<std::size_t>(nodes_) + 1);
  voq_base_[0] = 0;
  for (hypergraph::Node v = 0; v < nodes_; ++v) {
    voq_base_[static_cast<std::size_t>(v) + 1] =
        voq_base_[static_cast<std::size_t>(v)] + hg.out_degree(v);
  }
  feed_.build(hg, voq_base_);
  token_.assign(static_cast<std::size_t>(couplers_), 0);
}

template <routing::RouteView Routes>
RunMetrics PhasedEngineT<Routes>::run(
    std::vector<std::int64_t>& coupler_success) {
  coupler_success.assign(static_cast<std::size_t>(couplers_), 0);
  if (config_.workload != nullptr || config_.engine == Engine::kSharded) {
    return run_feed_local(coupler_success);
  }
  return run_serial(coupler_success);
}

template <routing::RouteView Routes>
RunMetrics PhasedEngineT<Routes>::run_serial(
    std::vector<std::int64_t>& coupler_success) {
  core::Rng rng = core::Rng::stream(config_.seed, kRunStream);
  RunMetrics metrics;
  metrics.slots = config_.measure_slots;
  metrics.latency.prepare(
      resolve_latency_sketch(config_.latency_mode, nodes_),
      config_.measure_slots * nodes_);

  const SimTime horizon = config_.warmup_slots + config_.measure_slots;
  const SimTime drain_bound = horizon + 1'000'000;
  std::int64_t inflight = 0;
  std::int64_t next_packet_id = 0;

  VoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()));
  detail::OccupancyMasks masks;
  masks.init(feed_);

  // Hoisted scratch: one allocation per run, not per coupler-slot.
  std::vector<std::size_t> winners;
  std::vector<std::size_t> scratch;
  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));
  /// Transmissions whose receiver relays them onward. Packets that
  /// reached their destination are counted inline during arbitration
  /// (metric updates cannot disturb same-slot winner selection); only
  /// relays defer to phase 3, because their enqueues would make queues
  /// non-empty for couplers arbitrated later in the same slot.
  struct Relay {
    VoqEntry entry;
    hypergraph::Node node;
  };
  std::vector<Relay> relays;
  const std::size_t capacity = static_cast<std::size_t>(config_.wavelengths);
  const std::int64_t queue_cap = config_.queue_capacity;
  const Arbitration policy = config_.arbitration;
  const bool single_token =
      policy == Arbitration::kTokenRoundRobin && capacity == 1;
  PhaseBreakdown* breakdown = config_.phase_breakdown;
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0, t1, t2;

  // Telemetry: one pointer test per slot when detached; sampling work
  // only at tel->due() boundaries. State reads only -- never RNG.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows(tel, config_.warmup_slots, horizon);
  SimTime tel_last = 0;
  const auto enqueue = [&](const VoqEntry& entry, hypergraph::Node at,
                           bool measuring) {
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
    voq.push(qi, entry);
    if (size == 0) {
      masks.mark_nonempty(feed_, qi);
    }
  };

  // Checkpointing (sim/checkpoint.hpp). A blob written at the top of
  // slot S is "everything needed to run slots S.. onward": the resumed
  // run replays the identical remainder, so restored results are
  // bit-identical to an uninterrupted run's. Saves only happen at the
  // top of a slot the run is definitely going to execute, so a resume
  // never runs a slot the uninterrupted run skipped.
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  const auto save_checkpoint = [&](SimTime next_slot) {
    core::BlobWriter out;
    checkpoint_write_header(out, config_, nodes_, couplers_);
    out.put_i64(next_slot);
    out.put_i64(inflight);
    out.put_i64(next_packet_id);
    out.put_rng(rng);
    out.put_i64_vec(token_);
    checkpoint_put_metrics(out, metrics);
    out.put_i64_vec(coupler_success);
    checkpoint_put_voq(out, voq);
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
      checkpoint_get_metrics(in, metrics);
      coupler_success = in.get_i64_vec();
      checkpoint_get_voq(in, voq);
      traffic_.restore_state(in.get_i64_vec());
      tel_last = checkpoint_get_telemetry(in, tel);
      for (std::size_t qi = 0; qi < voq.queue_count(); ++qi) {
        if (!voq.empty(qi)) {
          masks.mark_nonempty(feed_, qi);
        }
      }
    }
  }

  for (SimTime now = start_slot;;) {
    if (ckpt_every > 0 && now != start_slot && now % ckpt_every == 0) {
      save_checkpoint(now);
      if (config_.checkpoint_stop_at >= 0 &&
          now >= config_.checkpoint_stop_at) {
        // Drill hook: pretend the process died right after the write.
        // No telemetry finish() -- the resumed run continues the stream.
        metrics.backlog = inflight;
        metrics.interrupted = true;
        return metrics;
      }
    }
    const bool measuring = now >= config_.warmup_slots && now < horizon;
    if (breakdown != nullptr) {
      t0 = Clock::now();
    }

    // Phase 1: traffic generation (stops at the horizon; drain only).
    // The compact batch hands back just the ~load*N senders, so the
    // enqueue loop runs over actual packets with no idle-node branch.
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
        enqueue(VoqEntry{next_packet_id++, d.destination, now, 0}, d.source,
                measuring);
      }
    }
    if (breakdown != nullptr) {
      t1 = Clock::now();
    }

    // Phase 2: arbitration over the couplers with any non-empty feed,
    // found by scanning the occupancy summary bitmap. Final deliveries
    // complete inline; relays defer (see `relays`).
    relays.clear();
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
        const auto transmit = [&](std::size_t si) {
          const std::size_t qi =
              static_cast<std::size_t>(feed_.feed_qi[fb + si]);
          VoqEntry entry = voq.pop_front(qi);
          if (voq.empty(qi)) {
            masks.mark_empty(feed_, qi);
          }
          ++entry.hops;
          if (measuring) {
            ++metrics.coupler_transmissions;
            ++coupler_success[h];
          }
          const hypergraph::Node relay = routes_.relay(
              static_cast<hypergraph::HyperarcId>(h), entry.destination);
          if (relay == entry.destination) {
            if (measuring) {
              ++metrics.delivered_packets;
              if (entry.created >= config_.warmup_slots) {
                metrics.latency.record(now - entry.created + 1);
              }
            }
            --inflight;
          } else {
            relays.push_back(Relay{entry, relay});
          }
        };
        if (single_token) {
          transmit(detail::pick_single_token(
              source_count, masks.request.data() + mb, words, token_[h]));
          continue;
        }
        const bool collided = detail::pick_winners(
            policy, capacity, source_count, masks.request.data() + mb, words,
            token_[h], rng, winners, scratch);
        if (collided && measuring) {
          ++metrics.collisions;
        }
        if (winners.size() > 1) {
          // Warm the relay entries for the whole winner batch before the
          // delivery walk: on dense tables consecutive winners' entries
          // share no cache line, so each lookup is otherwise a cold miss.
          for (std::size_t si : winners) {
            const std::size_t qi =
                static_cast<std::size_t>(feed_.feed_qi[fb + si]);
            routes_.prefetch_relay(static_cast<hypergraph::HyperarcId>(h),
                                   voq.front(qi).destination);
          }
        }
        for (std::size_t si : winners) {
          transmit(si);
        }
      }
    }
    if (breakdown != nullptr) {
      t2 = Clock::now();
    }

    // Phase 3: relayed packets re-queue at their next hop.
    for (const Relay& r : relays) {
      enqueue(r.entry, r.node, measuring);
    }
    if (breakdown != nullptr) {
      const Clock::time_point t3 = Clock::now();
      breakdown->generate_seconds +=
          std::chrono::duration<double>(t1 - t0).count();
      breakdown->arbitrate_seconds +=
          std::chrono::duration<double>(t2 - t1).count();
      breakdown->receive_seconds +=
          std::chrono::duration<double>(t3 - t2).count();
      ++breakdown->slots;
    }

    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        detail::fill_metric_probes(*tel, metrics, inflight, feed_, voq);
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

  metrics.backlog = inflight;
  if (tel != nullptr) {
    windows.finish();
    detail::fill_metric_probes(*tel, metrics, inflight, feed_, voq);
    tel->finish(tel_last);
  }
  return metrics;
}

template <routing::RouteView Routes>
RunMetrics PhasedEngineT<Routes>::run_feed_local(
    std::vector<std::int64_t>& coupler_success) {
  // Open-loop sharded runs and every closed-loop run share this loop;
  // a closed-loop Engine::kPhased run is it with one shard. All
  // randomness comes from the per-node/per-coupler streams (see
  // ops_network.hpp detail tags), so no partition can move a draw.
  workload::Workload* const load = config_.workload.get();
  const bool closed = load != nullptr;
  if (closed) {
    load->reset();
  }
  const bool sharded = config_.engine == Engine::kSharded;
  const int threads =
      sharded ? detail::clamp_threads(config_.threads, nodes_, couplers_) : 1;
  const detail::ShardPlan plan =
      detail::plan_shards(threads, voq_base_, feed_);
  std::vector<core::Rng> gen_rng = node_streams(config_.seed, nodes_);
  std::vector<core::Rng> arb_rng = coupler_streams(config_.seed, couplers_);

  // Open and closed loops differ only here and in the completion step.
  // Open loop: generation stops at `window_end`, only the measure window
  // [window_begin, window_end) counts, and the run drains up to a
  // million slots past it. Closed loop: the whole run is one measure
  // window, background traffic runs until the workload completes, and
  // the workload's bound caps the run. Background packet ids start
  // after the workload's ids (at 0 in open loop).
  const std::int64_t background_base = closed ? load->packet_count() : 0;
  const SimTime window_begin = closed ? 0 : config_.warmup_slots;
  const SimTime window_end =
      closed ? workload_slot_bound(*load) + 1
             : config_.warmup_slots + config_.measure_slots;
  const SimTime last_slot = closed ? window_end - 1 : window_end + 1'000'000;
  const std::size_t capacity = static_cast<std::size_t>(config_.wavelengths);
  const std::int64_t queue_cap = config_.queue_capacity;  // 0 when closed
  const Arbitration policy = config_.arbitration;

  VoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()),
           static_cast<std::size_t>(threads));
  /// Compact senders; disjoint per-shard slices at node_begin offsets.
  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));

  /// A winner of the current slot, hop counter already bumped.
  struct Winner {
    VoqEntry entry;
    hypergraph::HyperarcId coupler = 0;
  };
  /// A winner on its way to the shard that owns its relay node.
  struct Mail {
    VoqEntry entry;
    hypergraph::Node relay = 0;
  };
  struct Shard : detail::ShardTally {
    std::int64_t node_begin = 0, node_end = 0;
    /// Request bits and coupler summary; only the bits of the shard's
    /// own feed VOQs are ever set.
    detail::OccupancyMasks masks;
    std::vector<Winner> sent;  ///< the slot's winners, in coupler order
    /// Relays from each producer shard (this one included), written by
    /// the producer before the mail barrier, in coupler order.
    std::vector<std::vector<Mail>> inbox;
    std::vector<std::int64_t> delivered_ids;  ///< workload ids this slot
    std::vector<std::size_t> winners, scratch;
  };
  std::vector<Shard> shards(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    shard.node_begin = plan.node_cut[static_cast<std::size_t>(w)];
    shard.node_end = plan.node_cut[static_cast<std::size_t>(w) + 1];
    shard.masks.init(feed_);
    shard.inbox.resize(static_cast<std::size_t>(threads));
    shard.latency.prepare(
        resolve_latency_sketch(config_.latency_mode, nodes_),
        closed ? background_base / threads + 1
               : config_.measure_slots * (shard.node_end - shard.node_begin));
    detail::assign_pool(voq, voq_base_, shard.node_begin, shard.node_end, w);
  }

  // Telemetry: per-shard probe frames, folded with order-independent
  // integer adds in the slot barrier's completion step -- the merged
  // values are sums over ALL nodes/couplers, so they cannot depend on
  // the partition (= thread count).
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows(tel, window_begin, window_end);
  SimTime tel_last = 0;
  std::vector<obs::ProbeRegistry> frames = detail::probe_frames(tel, threads);

  // Runtime channel (obs/runtime_stats.hpp): wall-clock barrier/work
  // and mailbox accounting, one private row per shard. Serial phased
  // runs report no shards.
  detail::ShardRuntimes runtime(
      sharded ? config_.runtime_stats.get() : nullptr, threads);

  // Slot state shared across workers; mutated only in the slot
  // barrier's completion step (every worker is blocked then) and read
  // once per slot by the workers. `inject` is read-only during phases.
  SimTime now = 0;
  std::int64_t inflight = 0;
  std::int64_t makespan = 0;
  bool generating = true;  ///< background traffic fires this slot
  bool running = true;
  bool interrupted = false;  ///< checkpoint_stop_at drill fired
  std::vector<workload::WorkloadPacket> inject;
  if (closed) {
    load->poll(0, inject);
  }

  // Checkpointing (open loop only; validation rejects it with a
  // workload). The blob holds the fold of the per-shard counters and the
  // per-unit RNG streams, never the partition itself, so it is
  // thread-count independent: a run checkpointed with 2 workers resumes
  // bit-identically with 8. Saves happen in the completion step -- every
  // worker is blocked, so the shared state is quiescent -- and only at
  // the top of a slot the run will execute (the serial loop's contract).
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  std::exception_ptr ckpt_error;  ///< completion step is noexcept
  const auto save_checkpoint = [&](SimTime next_slot) {
    core::BlobWriter out;
    checkpoint_write_header(out, config_, nodes_, couplers_);
    out.put_i64(next_slot);
    out.put_i64(inflight);
    for (const core::Rng& r : gen_rng) {
      out.put_rng(r);
    }
    for (const core::Rng& r : arb_rng) {
      out.put_rng(r);
    }
    out.put_i64_vec(token_);
    RunMetrics fold;
    for (const Shard& shard : shards) {
      shard.fold_into(fold);
    }
    out.put_i64(fold.offered_packets);
    out.put_i64(fold.delivered_packets);
    out.put_i64(fold.dropped_packets);
    out.put_i64(fold.coupler_transmissions);
    out.put_i64(fold.collisions);
    fold.latency.serialize(out);
    out.put_i64_vec(coupler_success);
    checkpoint_put_voq(out, voq);
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
      now = in.get_i64();
      generating = now < window_end;
      inflight = in.get_i64();
      for (core::Rng& r : gen_rng) {
        r = in.get_rng();
      }
      for (core::Rng& r : arb_rng) {
        r = in.get_rng();
      }
      token_ = in.get_i64_vec();
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
      traffic_.restore_state(in.get_i64_vec());
      tel_last = checkpoint_get_telemetry(in, tel);
      // The blob stores queues, not masks: each shard re-marks its own
      // non-empty VOQs so arbitration sees the saved requests.
      for (Shard& shard : shards) {
        for (std::int64_t qi = voq_base_[static_cast<std::size_t>(
                 shard.node_begin)];
             qi < voq_base_[static_cast<std::size_t>(shard.node_end)]; ++qi) {
          if (!voq.empty(static_cast<std::size_t>(qi))) {
            shard.masks.mark_nonempty(feed_, static_cast<std::size_t>(qi));
          }
        }
      }
    }
  }

  const auto on_slot_end = [&]() noexcept {
    bool delivered_any = false;
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      // Feed order across shards is arbitrary but irrelevant: poll()
      // depends only on the delivered SET (workload contract).
      for (std::int64_t id : shard.delivered_ids) {
        load->delivered(id);
        delivered_any = true;
      }
      shard.delivered_ids.clear();
    }
    bool finished = false;
    if (closed) {
      if (delivered_any) {
        makespan = now + 1;
      }
      generating = !load->done();
      finished = !generating && inflight == 0;
      inject.clear();
    } else {
      finished = now + 1 >= window_end && !(config_.drain && inflight > 0);
    }
    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        // Backlog is global state only the completion step knows.
        detail::merge_frames(*tel, frames, inflight);
        tel->sample(now);
      }
      tel_last = now;
    }
    if (finished) {
      running = false;
      return;
    }
    ++now;
    if (now > last_slot) {
      running = false;
      return;
    }
    if (closed) {
      if (generating) {
        load->poll(now, inject);
      }
      return;
    }
    generating = now < window_end;
    if (ckpt_every > 0 && now % ckpt_every == 0) {
      try {
        save_checkpoint(now);
        if (config_.checkpoint_stop_at >= 0 &&
            now >= config_.checkpoint_stop_at) {
          interrupted = true;
          running = false;
        }
      } catch (...) {
        ckpt_error = std::current_exception();
        running = false;
      }
    }
  };
  std::barrier<> mail_barrier(threads);
  std::barrier<decltype(on_slot_end)> slot_barrier(threads, on_slot_end);

  // Only the shard owning `at` calls this, and `at`'s VOQs feed only
  // that shard's couplers, so the masks it marks are its own. Closed
  // loops have no queue cap, so they never drop.
  const auto enqueue = [&](Shard& shard, const VoqEntry& entry,
                           hypergraph::Node at, bool measuring) {
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
    if (size == 0) {
      shard.masks.mark_nonempty(feed_, qi);
    }
    voq.push(qi, entry);
  };

  const auto worker = [&](int w, obs::ShardRuntime* rt) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    detail::OccupancyMasks& masks = shard.masks;

    while (true) {
      const SimTime slot = now;
      const bool measuring = slot >= window_begin && slot < window_end;
      // Phase 1a: the shard's slice of the eligible workload injections,
      // in the workload's (id-sorted) order.
      for (const workload::WorkloadPacket& packet : inject) {
        if (packet.source < shard.node_begin ||
            packet.source >= shard.node_end) {
          continue;
        }
        ++shard.offered;
        ++shard.inflight_delta;
        enqueue(shard, VoqEntry{packet.id, packet.destination, slot, 0},
                packet.source, measuring);
      }
      // Phase 1b: background traffic over the shard's nodes (load 0
      // generators never fire). The id is a function of (slot, source),
      // so no counter is shared.
      if (generating) {
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
            config_.recorder->record(slot, d.source, d.destination);
          }
          enqueue(shard,
                  VoqEntry{background_base + slot * nodes_ + d.source,
                           d.destination, slot, 0},
                  d.source, measuring);
        }
      }

      // Phase 2: arbitration over the shard's couplers with any
      // non-empty feed, found by scanning its summary bitmap. Every VOQ
      // read here was pushed by this shard, so phase 1 needs no barrier.
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
              policy, capacity, source_count, masks.request.data() + mb,
              words, token_[h], arb_rng[h], shard.winners, shard.scratch);
          if (collided && measuring) {
            ++shard.collisions;
          }
          for (std::size_t si : shard.winners) {
            const std::size_t qi =
                static_cast<std::size_t>(feed_.feed_qi[fb + si]);
            VoqEntry entry = voq.pop_front(qi);
            if (voq.empty(qi)) {
              masks.mark_empty(feed_, qi);
            }
            ++entry.hops;
            if (measuring) {
              ++shard.transmissions;
              ++coupler_success[h];
            }
            shard.sent.push_back(
                Winner{entry, static_cast<hypergraph::HyperarcId>(h)});
          }
        }
      }

      // Routing: each winner's relay is looked up once, prefetched a few
      // entries ahead (consecutive winners' table rows share no cache
      // line). Final deliveries complete here and feed back at the slot
      // end; relays go to the inbox of the shard owning the relay node.
      for (std::size_t i = 0; i < shard.sent.size(); ++i) {
        if (i + kRelayPrefetchAhead < shard.sent.size()) {
          const Winner& ahead = shard.sent[i + kRelayPrefetchAhead];
          routes_.prefetch_relay(ahead.coupler, ahead.entry.destination);
        }
        const Winner& win = shard.sent[i];
        const hypergraph::Node relay =
            routes_.relay(win.coupler, win.entry.destination);
        if (relay == win.entry.destination) {
          if (measuring) {
            ++shard.delivered;
            if (win.entry.created >= window_begin) {
              shard.latency.record(slot - win.entry.created + 1);
            }
          }
          if (win.entry.id < background_base) {
            shard.delivered_ids.push_back(win.entry.id);
          }
          --shard.inflight_delta;
          continue;
        }
        if (threads == 1) {
          // Nothing to mail: this is the one-shard receive order already.
          enqueue(shard, win.entry, relay, measuring);
          continue;
        }
        const std::int32_t owner =
            plan.node_owner[static_cast<std::size_t>(relay)];
        shards[static_cast<std::size_t>(owner)]
            .inbox[static_cast<std::size_t>(w)]
            .push_back(Mail{win.entry, relay});
        if (rt != nullptr && owner != w) {
          ++rt->mailbox_msgs_sent;
          rt->mailbox_bytes_sent += static_cast<std::int64_t>(sizeof(Mail));
        }
      }
      shard.sent.clear();
      if (threads > 1) {
        // A lone shard mailed nothing (relays re-queued in place above).
        detail::timed_wait(mail_barrier, rt);
      }

      // Phase 3: relayed packets re-queue at their next hop, after the
      // slot's injections. Producer order is coupler order (see
      // ShardPlan), so every VOQ gets its pushes -- and the queue cap
      // its drops -- in the one-shard (coupler, winner) order, whatever
      // the partition.
      for (int p = 0; p < threads; ++p) {
        std::vector<Mail>& box = shard.inbox[static_cast<std::size_t>(p)];
        for (const Mail& mail : box) {
          enqueue(shard, mail.entry, mail.relay, measuring);
        }
        if (rt != nullptr && p != w) {
          rt->mailbox_msgs_replayed += static_cast<std::int64_t>(box.size());
        }
        box.clear();
      }

      if (tel != nullptr && tel->due(slot)) {
        // Feed-locality makes the snapshot shard-private: the shard's
        // couplers are fed only by VOQs it pushed and popped itself.
        obs::ProbeRegistry& frame = frames[static_cast<std::size_t>(w)];
        const obs::EngineProbes& ids = tel->engine_probes();
        shard.snapshot(frame, ids);
        for (const hypergraph::HyperarcId h :
             plan.couplers[static_cast<std::size_t>(w)]) {
          detail::observe_occupancy(frame, ids.occupancy, feed_, voq, h,
                                    h + 1);
        }
      }
      if (rt != nullptr) {
        // Slot engines have a fixed one-slot "window".
        ++rt->windows;
        ++rt->lookahead_used;
        ++rt->lookahead_available;
      }
      detail::end_phase(threads, slot_barrier, on_slot_end, rt);
      if (!running) {
        break;
      }
    }
  };
  runtime.run(threads, "phased_sharded", closed ? "workload" : "open_loop",
              worker);

  if (ckpt_error != nullptr) {
    std::rethrow_exception(ckpt_error);
  }

  RunMetrics metrics;
  metrics.slots = closed ? now + 1 : config_.measure_slots;
  metrics.makespan_slots = makespan;
  for (const Shard& shard : shards) {
    shard.fold_into(metrics);
  }
  metrics.backlog = inflight;
  metrics.interrupted = interrupted;
  // Drill interruptions skip finish(): the process "died", and the
  // resumed run continues the telemetry stream where this one stopped.
  if (tel != nullptr && !interrupted) {
    windows.finish();
    detail::fill_metric_probes(*tel, metrics, inflight, feed_, voq);
    tel->finish(tel_last);
  }
  return metrics;
}

template class PhasedEngineT<routing::CompiledRoutes>;
template class PhasedEngineT<routing::CompressedRoutes>;

}  // namespace otis::sim
