#pragma once
/// \file async_engine.hpp
/// Asynchronous timed-event engine behind Engine::kAsync.
///
/// The phased engines treat a slot as indivisible; this engine runs the
/// same generate / tune / arbitrate / propagate / receive cycle as timed
/// events over sub-slot ticks (kTicksPerSlot per slot), honouring a
/// TimingModel:
///
///   generate   -- a node's packet enters its VOQ at the slot boundary;
///   tune       -- the packet becomes *eligible* once its transmitter
///                 has tuned: ready = arrival + tuning(coupler); the
///                 transmitter also re-tunes after each transmission
///                 (dead time), so a VOQ that sent in slot t is next
///                 eligible at (t+1)*slot + tuning -- under backlog the
///                 tuning latency throttles the per-transmitter service
///                 rate, though a coupler's other feeds can cover the
///                 gap (stacking hides tuning dead time);
///   arbitrate  -- couplers still arbitrate at slot boundaries (the OPS
///                 hardware is slotted), but only over head packets that
///                 were ready guard ticks before the boundary;
///   propagate  -- a winner of slot t reaches its receivers at
///                 (t+1) * kTicksPerSlot + propagation(coupler), i.e. in
///                 the receive step of slot ceil(time / kTicksPerSlot),
///                 at most 1 + ceil(max_propagation / kTicksPerSlot)
///                 slots ahead: it is appended to that slot's bucket of
///                 a landing wheel (slot_wheel.hpp);
///   receive    -- each slot replays its landing bucket in (time, seq)
///                 order, delivering each packet or re-enqueuing it at
///                 the relay, where the tune step repeats.
///
/// VOQs live in the timed record arena (voq_arena.hpp) with
/// the phased engines' occupancy bitmasks (occupancy.hpp); arbitration
/// scans only couplers with request bits set and hands their words to
/// pick_winners directly. When every tuning latency and the guard are
/// zero the gate provably always passes (ready and retune never exceed
/// the arbitrating boundary), so a request bit is simply "queue
/// non-empty" and the retune bookkeeping is skipped outright. Otherwise
/// a request bit means "head may transmit now". A head's gate,
/// max(ready, retune) + guard, changes only when the head does -- a push
/// into an empty queue, a pop -- so it is computed exactly there: the
/// bit is set at once if the gate is open by the current boundary, else
/// the queue parks on an eligibility wheel (slot_wheel.hpp) until the
/// first slot whose boundary opens it, at most 1 + ceil((max_tuning +
/// guard) / kTicksPerSlot) slots ahead.
///
/// In the slot-aligned limit (every delay zero) each step degenerates to
/// its phased counterpart at the same boundary in the same order, with
/// the same single RNG stream consumed identically -- so the engine is
/// bit-identical to PhasedEngineT for every seed, topology, arbitration
/// policy and route-table representation (tests/test_async_engine.cpp).
/// With nonzero skew the run remains a pure function of the seed and the
/// timing model.
///
/// The engine has two run loops, built from the same wheel helpers. run()
/// is the serial open loop: one landing wheel, one eligibility wheel and
/// the legacy single RNG stream, the parity reference against
/// PhasedEngineT and the event queue (above). run_sharded() runs every
/// other configuration as a conservative parallel discrete-event
/// simulation: nodes are partitioned into contiguous shard ranges whose
/// cuts never split a coupler's feed set (so a coupler, its feed VOQs,
/// their request bits and their gates are all owned by one worker, and
/// each shard keeps its own OccupancyMasks and eligibility wheel), each
/// shard replays its own landing wheel, and workers run freely inside
/// windows of `lookahead` slots -- a transmission in slot t lands no
/// earlier than (t+1) * kTicksPerSlot + min_propagation, so lookahead =
/// 1 + floor(min_propagation / kTicksPerSlot) slots of any shard's
/// future are unaffected by the others (the bounded-window barrier
/// relaxation DARSIM documents for registered hardware). Cross-shard
/// arrivals travel through per-pair mailboxes drained onto the consumer's
/// wheel at the window barrier; every landing carries an explicit global
/// sequence key ((slot * couplers + coupler) * wavelengths + winner), so
/// each wheel's replay order is a pure function of the run and results
/// are invariant across thread counts. Open-loop Engine::kAsyncSharded runs draw from
/// the per-node/per-coupler stream universe (== the sharded phased
/// engine when slot-aligned). A closed-loop (workload) run is the same
/// loop with the lookahead pinned to one slot, because delivery feedback
/// gates every slot's injections: one extra barrier after the receive
/// step feeds the deliveries to the workload, applies the done/bound
/// exit rules and polls. A closed-loop Engine::kAsync run is its
/// one-shard case, so serial and sharded workload runs agree
/// bit-for-bit by construction.

#include <cstdint>
#include <vector>

#include "hypergraph/stack_graph.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "routing/route_view.hpp"
#include "sim/metrics.hpp"
#include "sim/occupancy.hpp"
#include "sim/ops_network.hpp"
#include "sim/slot_wheel.hpp"
#include "sim/timing_model.hpp"
#include "sim/traffic.hpp"
#include "sim/voq_arena.hpp"

namespace otis::sim {

/// Internal engine used by OpsNetworkSim for Engine::kAsync.
/// Single-run object: construct, run() once.
template <routing::RouteView Routes>
class AsyncEngineT {
 public:
  /// All references must outlive the engine. `config` must be validated
  /// by the caller (OpsNetworkSim does); `timing` must be sized for
  /// `network`.
  AsyncEngineT(const hypergraph::StackGraph& network, const Routes& routes,
               TrafficGenerator& traffic, const SimConfig& config,
               const TimingModel& timing);

  /// Runs the configured window; returns measurement-window metrics and
  /// fills per-coupler success counts (sized to the coupler count).
  /// When SimConfig::workload is set the run is closed-loop instead:
  /// run-to-completion with delivery feedback and makespan (see
  /// phased_engine.hpp) -- deliveries land per the timing model, so a
  /// skewed workload run shows how tuning/propagation stretch a
  /// collective's critical path. In the slot-aligned limit workload
  /// runs are bit-identical to the phased engines (which share the
  /// per-node/per-coupler workload RNG streams).
  RunMetrics run(std::vector<std::int64_t>& coupler_success);

 private:
  /// Every run but the serial open loop: feed-local shards in
  /// conservative windows (see file comment); closed loops run it with
  /// one-slot windows.
  RunMetrics run_sharded(std::vector<std::int64_t>& coupler_success);

  /// Conservative window width in slots (>= 1; see file comment).
  [[nodiscard]] SimTime lookahead_slots() const;

  /// Gates queue `qi`'s new head in `slot` (after a push into an empty
  /// queue, or a restore): sets its request bit in `masks` if it may
  /// transmit at this slot's boundary, else parks the queue on `gates`
  /// until the first slot it may (see file comment).
  void admit_head(std::size_t qi, SimTime slot, const TimedVoqArena& voq,
                  detail::OccupancyMasks& masks,
                  EligibilityWheel& gates) const;
  /// The pop side: queue `qi` just fed coupler `h` in `slot`. Clears its
  /// request bit unless gates are open and it still has a head; with
  /// gates closed, re-tunes the transmitter and admits the next head.
  void after_pop(std::size_t qi, std::size_t h, SimTime slot,
                 const TimedVoqArena& voq, detail::OccupancyMasks& masks,
                 EligibilityWheel& gates);

  const hypergraph::StackGraph& network_;
  const Routes& routes_;
  TrafficGenerator& traffic_;
  const SimConfig& config_;
  const TimingModel& timing_;

  std::int64_t nodes_ = 0;
  std::int64_t couplers_ = 0;
  /// Flat VOQ index space: node v's queues are voq_base_[v] + slot.
  std::vector<std::int64_t> voq_base_;
  /// Feed -> VOQ map and request-mask geometry (immutable per network).
  detail::FeedIndex feed_;
  /// Per-VOQ transmitter re-tune gate: earliest tick the queue's next
  /// head may transmit after the previous transmission.
  std::vector<SimTime> retune_;
  std::vector<std::int64_t> token_;
  /// No tuning latency and no guard band: every gate always passes, so
  /// occupancy alone decides contention (see file comment).
  bool open_ = true;
  /// Slot-wheel depths (slot_wheel_depth) for landings and parked gates.
  std::size_t landing_depth_ = 1;
  std::size_t gate_depth_ = 1;
};

/// The dense-table instantiation.
using AsyncEngine = AsyncEngineT<routing::CompiledRoutes>;

extern template class AsyncEngineT<routing::CompiledRoutes>;
extern template class AsyncEngineT<routing::CompressedRoutes>;

}  // namespace otis::sim
