#pragma once
/// \file ops_network.hpp
/// Slot-synchronous simulator of multi-OPS networks.
///
/// Model (matching the paper's hardware assumptions):
///  - time is slotted; in one slot a coupler carries at most one packet
///    (single-wavelength OPS, Sec. 2.2);
///  - a processor owns one statically-tuned transmitter per out-coupler
///    and one receiver per in-coupler, so it can send and receive on all
///    its couplers in the same slot (multi-hop network with fixed tuning,
///    Sec. 1);
///  - a transmission on a coupler is heard by all its targets; the
///    routing relay (or the destination) consumes it, everyone else
///    discards it;
///  - contention for a coupler is resolved by a pluggable arbitration
///    policy -- the "distributed control" knob of the companion paper
///    [11]: token round-robin, random winner, or oblivious (collision
///    destroys all packets in that coupler-slot; senders retry).
///
/// Four execution engines share this model:
///  - kEventQueue: the original per-slot-event loop on the generic
///    EventQueue; kept as the seed-faithful reference implementation
///    (tests-only fixture since the async layer landed);
///  - kPhased: a direct three-phase slot loop (generate / arbitrate /
///    receive) over a record-per-entry VOQ arena with per-coupler
///    occupancy bitmasks and CompiledRoutes tables. Bit-identical to
///    kEventQueue for every seed, several times faster;
///  - kSharded: the phased slot model on the feed-local shard plan
///    (sharding.hpp): each worker owns a block of nodes together with
///    every coupler they feed, relays cross to the owning worker
///    through per-pair mailboxes, and RNG is drawn from per-node /
///    per-coupler streams, so the result is bit-identical for EVERY
///    thread count (though, in open loop and by design, a different --
///    equally valid -- universe than the serial engines);
///  - kAsync: the timed engine on slot wheels (async_engine.hpp)
///    honouring SimConfig::timing -- transmitter tuning latencies,
///    per-coupler propagation skew, slot guard bands in sub-slot ticks.
///    Bit-identical to kPhased when the timing model is slot-aligned
///    (every delay zero).
///
/// The simulator works for *any* stack-graph network: POPS, stack-Kautz
/// and stack-Imase-Itoh differ only in the StackGraph and the routing
/// handed in.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "hypergraph/stack_graph.hpp"
#include "obs/runtime_stats.hpp"
#include "obs/telemetry.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/timing_model.hpp"
#include "sim/traffic.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace otis::sim {

namespace detail {
/// RNG stream tags for the per-unit streams. The sharded engine always
/// draws generation randomness from per-node streams and arbitration
/// randomness from per-coupler streams (so work partitioning cannot
/// influence the outcome); in workload (closed-loop) mode EVERY engine
/// does, which is what makes workload-driven runs bit-identical across
/// engines as well as thread counts. The values keep the families
/// disjoint from each other and from the serial engines' 0x0715 run
/// stream.
inline constexpr std::uint64_t kNodeStreamBase = 0x4F50534E4F444500ULL;
inline constexpr std::uint64_t kCouplerStreamBase = 0x4F5053435E504C00ULL;

/// The per-node generation streams for one run. Every engine that
/// draws per-unit randomness MUST build its streams through these two
/// helpers -- a second hand-rolled copy that drifted would silently
/// break the cross-engine/thread-count parity guarantees.
inline std::vector<core::Rng> node_streams(std::uint64_t seed,
                                           std::int64_t nodes) {
  std::vector<core::Rng> streams;
  streams.reserve(static_cast<std::size_t>(nodes));
  for (std::int64_t v = 0; v < nodes; ++v) {
    streams.push_back(core::Rng::stream(
        seed, kNodeStreamBase + static_cast<std::uint64_t>(v)));
  }
  return streams;
}

/// The per-coupler arbitration streams for one run.
inline std::vector<core::Rng> coupler_streams(std::uint64_t seed,
                                              std::int64_t couplers) {
  std::vector<core::Rng> streams;
  streams.reserve(static_cast<std::size_t>(couplers));
  for (std::int64_t h = 0; h < couplers; ++h) {
    streams.push_back(core::Rng::stream(
        seed, kCouplerStreamBase + static_cast<std::uint64_t>(h)));
  }
  return streams;
}

/// Slot bound on closed-loop runs, shared by every engine (the engines
/// must cut a stuck run off at the SAME slot or their reported
/// slots/backlog would diverge): a workload that has not completed and
/// drained by then (dependency livelock under aloha, or a trace whose
/// generation slots run away) ends the run with a backlog instead of
/// spinning forever.
inline SimTime workload_slot_bound(const workload::Workload& load) {
  return 1'000'000 + 64 * load.packet_count();
}
}  // namespace detail

/// Coupler-contention resolution policies.
enum class Arbitration {
  kTokenRoundRobin,  ///< rotating priority per coupler: fair, collision-free
  kRandomWinner,     ///< uniformly random contender wins, others wait
  kSlottedAloha,     ///< each contender transmits w.p. 1/2; >1 collides
};

[[nodiscard]] const char* arbitration_name(Arbitration policy);

/// Execution engines (see file comment).
enum class Engine {
  kEventQueue,    ///< seed-faithful event-driven loop (tests-only fixture)
  kPhased,        ///< direct three-phase slot loop; == kEventQueue bit-for-bit
  kSharded,       ///< phased loop over N worker threads; thread-count invariant
  kAsync,         ///< timed events on slot wheels; == kPhased when slot-aligned
  kAsyncSharded,  ///< conservative-PDES async over N workers; thread-count
                  ///< invariant; closed-loop kAsync is its one-shard case
};

[[nodiscard]] const char* engine_name(Engine engine);

/// Which routing-table representation the phased engines run on. Both
/// answer every route query identically (CompressedRoutes verifies that
/// at compile time), so the choice never changes results -- only memory:
/// dense is O(N^2 + H*N), compressed is O(G^2 + H).
enum class RouteTable {
  kDense,       ///< dense CompiledRoutes tables
  kCompressed,  ///< group-factored CompressedRoutes tables
  kAuto,        ///< compressed at/above kAutoRouteTableNodes, else dense
};

[[nodiscard]] const char* route_table_name(RouteTable table);

/// Node count at which RouteTable::kAuto flips from dense to compressed
/// tables. Below it the dense table is at most ~32 MiB and its
/// branch-free relay lookup is marginally cheaper; above it the O(N^2)
/// footprint starts to dominate the simulation's memory.
inline constexpr std::int64_t kAutoRouteTableNodes = 2048;

/// kAuto resolved against a concrete node count (kDense/kCompressed pass
/// through).
[[nodiscard]] constexpr RouteTable resolve_route_table(
    RouteTable table, std::int64_t nodes) noexcept {
  if (table == RouteTable::kAuto) {
    return nodes >= kAutoRouteTableNodes ? RouteTable::kCompressed
                                         : RouteTable::kDense;
  }
  return table;
}

/// How per-packet latency samples are stored (see LatencyStats). Both
/// modes report identical count/sum/mean/min/max; percentiles from the
/// sketch carry a bounded relative error (<= LatencyStats::
/// kSketchRelativeError) instead of being exact.
enum class LatencyMode {
  kFull,    ///< every sample retained; exact percentiles; O(delivered) memory
  kSketch,  ///< log-spaced bucket sketch; O(1) memory per cell
  kAuto,    ///< sketch at/above kAutoLatencySketchNodes nodes, else full
};

[[nodiscard]] const char* latency_mode_name(LatencyMode mode);

/// Node count at which LatencyMode::kAuto flips from full samples to the
/// sketch. Below it a measured window's samples are a few MB at most and
/// exact percentiles are worth keeping (and existing outputs stay
/// byte-identical); above it sample storage scales with delivered
/// packets -- hundreds of MB per cell at N ~ 10^5 -- while the sketch
/// stays at a fixed ~15 KiB.
inline constexpr std::int64_t kAutoLatencySketchNodes = 32768;

/// True when `mode` resolved against a concrete node count selects the
/// sketch representation (mirrors resolve_route_table).
[[nodiscard]] constexpr bool resolve_latency_sketch(
    LatencyMode mode, std::int64_t nodes) noexcept {
  if (mode == LatencyMode::kAuto) {
    return nodes >= kAutoLatencySketchNodes;
  }
  return mode == LatencyMode::kSketch;
}

/// Wall-time attribution of the slot loop's three phases, filled by the
/// serial phased engine when SimConfig::phase_breakdown points at one
/// (micro_benchmarks --phase-breakdown). Other engines ignore it -- the
/// serial loop is the one whose speedup the acceptance bar measures.
struct PhaseBreakdown {
  std::int64_t slots = 0;  ///< slot iterations attributed below
  double generate_seconds = 0.0;
  double arbitrate_seconds = 0.0;
  double receive_seconds = 0.0;
};

/// A packet in flight.
struct Packet {
  std::int64_t id = 0;
  hypergraph::Node source = 0;
  hypergraph::Node destination = 0;
  SimTime created = 0;
  int hops = 0;
};

/// Routing callbacks: which coupler a node uses for a destination, and
/// which member of the coupler's target set relays the packet onward.
/// The phased engines bake these into CompiledRoutes once at
/// construction; only the event-queue engine calls them per packet.
struct RoutingHooks {
  /// next_coupler(current, destination) -> coupler id.
  std::function<hypergraph::HyperarcId(hypergraph::Node, hypergraph::Node)>
      next_coupler;
  /// relay_on(coupler, destination) -> the node that picks the packet up
  /// off that coupler (must be one of the coupler's targets).
  std::function<hypergraph::Node(hypergraph::HyperarcId, hypergraph::Node)>
      relay_on;
};

/// Simulator configuration.
struct SimConfig {
  Arbitration arbitration = Arbitration::kTokenRoundRobin;
  std::int64_t warmup_slots = 200;     ///< excluded from metrics; >= 0
  std::int64_t measure_slots = 2000;   ///< measured window; > 0
  std::int64_t queue_capacity = 0;     ///< 0 = unbounded VOQs; >= 0
  std::uint64_t seed = 1;
  bool drain = false;  ///< keep running (no new traffic) until empty
  /// Wavelengths per coupler (WDM extension; the paper's couplers are
  /// single-wavelength, its "further research" direction): up to this
  /// many senders succeed per coupler-slot. Must be >= 1.
  std::int64_t wavelengths = 1;
  /// Execution engine. kPhased is the default: same results as the
  /// legacy event queue, several times faster.
  Engine engine = Engine::kPhased;
  /// Worker threads for kSharded and kAsyncSharded (<= 0 means hardware
  /// concurrency). Ignored by the serial engines. Results never depend
  /// on this value.
  int threads = 1;
  /// Routing-table representation for simulators constructed from
  /// RoutingHooks (pre-compiled tables pick their own representation).
  /// Results never depend on this value; see RouteTable. kAuto falls
  /// back to dense tables when the hooks are not group-factored, so it
  /// accepts every router kDense does; only an explicit kCompressed
  /// requires factoredness (and throws otherwise).
  RouteTable route_table = RouteTable::kAuto;
  /// Latency-sample representation (LatencyStats full samples vs the
  /// log-bucket sketch). kAuto flips to the sketch at
  /// kAutoLatencySketchNodes so small runs keep exact percentiles and
  /// byte-identical outputs while N ~ 10^5+ cells stop scaling memory
  /// with delivered-packet count. Never changes which packets are
  /// simulated -- only how their latencies are aggregated.
  LatencyMode latency_mode = LatencyMode::kAuto;
  /// Intra-run checkpointing (sim/checkpoint.hpp): when
  /// checkpoint_every_slots > 0 the engine serializes its full state to
  /// checkpoint_path every that-many slots (atomic tmp+rename), and with
  /// checkpoint_resume set it restores from an existing compatible blob
  /// before running -- the resumed run is bit-identical to an
  /// uninterrupted one. Open-loop runs on the phased/sharded/async/
  /// async-sharded engines only (no workload, no trace sink).
  std::int64_t checkpoint_every_slots = 0;
  std::string checkpoint_path;
  bool checkpoint_resume = false;
  /// Test/drill hook: when >= 0, the run stops right after writing the
  /// first checkpoint at a boundary slot >= this value (simulating an
  /// interruption); the returned metrics are the partial window and the
  /// blob on disk is the handoff to a checkpoint_resume run.
  std::int64_t checkpoint_stop_at = -1;
  /// Sub-slot timing (tuning latencies, propagation skew, guard bands;
  /// timing_model.hpp). Non-slot-aligned configs require Engine::kAsync
  /// or Engine::kAsyncSharded -- the slotted engines cannot honour them
  /// and refuse rather than silently ignoring the skew.
  TimingConfig timing;
  /// Closed-loop workload (workload/workload.hpp). When set the run is
  /// driven to completion instead of a fixed measure window:
  /// warmup_slots/measure_slots are ignored, every slot is measured,
  /// the engine injects the workload's packets as their dependencies
  /// deliver, and RunMetrics::makespan_slots reports the completion
  /// time. The traffic generator keeps running as *background* load
  /// alongside the workload until it completes (hand in load 0 for an
  /// uncontended run). Workload runs draw generation randomness from
  /// per-node streams and arbitration randomness from per-coupler
  /// streams on every engine, so the result is bit-identical across
  /// phased/sharded/async engines, route tables and thread counts.
  /// Requires unbounded VOQs (queue_capacity 0: a dropped dependency
  /// would stall its dependents forever) and a non-event-queue engine.
  std::shared_ptr<workload::Workload> workload;
  /// Optional generation capture: every open-loop packet the engines
  /// generate is recorded as a (slot, source, destination) trace entry
  /// for bit-identical replay (workload/trace.hpp). Supported by the
  /// phased, sharded and async engines (not the tests-only event-queue
  /// fixture).
  std::shared_ptr<workload::TraceRecorder> recorder;
  /// Optional per-phase timing sink (must outlive the run). Honoured by
  /// serial Engine::kPhased runs only; see PhaseBreakdown.
  PhaseBreakdown* phase_breakdown = nullptr;
  /// Optional telemetry session (obs/telemetry.hpp): timeseries probe
  /// sampling every sample_period slots plus warmup/measure/drain spans
  /// in the Chrome trace. Null (the default) costs the engines one
  /// pointer test per slot; sampling reads engine state only (no RNG,
  /// no reordering), so attaching it never changes RunMetrics, and the
  /// sharded engine's per-shard probe frames merge order-independently
  /// at the slot barrier, keeping probe values and timeseries bytes
  /// identical across thread counts. Supported by the phased, sharded
  /// and async engines (not the tests-only event-queue fixture).
  std::shared_ptr<obs::Telemetry> telemetry;
  /// Optional runtime-introspection session (obs/runtime_stats.hpp):
  /// the NONdeterministic channel -- per-shard barrier-wait/advance
  /// time, conservative-window widths, mailbox pressure and landing-
  /// wheel depth, all wall-clock derived. Collected by the sharded phased
  /// and async-sharded worker loops only; the serial engines have no
  /// barriers to attribute. Null or inactive costs one pointer+flag
  /// test per run (checked once before the worker loop, never per
  /// slot), and collection never touches simulation state: RunMetrics,
  /// probe values and timeseries bytes are unchanged whether or not a
  /// session is attached -- the strict separation that keeps the
  /// deterministic channel's thread-count-invariance intact.
  std::shared_ptr<obs::RuntimeStats> runtime_stats;
};

/// The slot-synchronous multi-OPS network simulator.
class OpsNetworkSim {
 public:
  /// `network` must outlive the simulator. Traffic generator is owned.
  /// The hooks are baked into a routing table at construction unless the
  /// engine is kEventQueue; `config.route_table` picks dense
  /// CompiledRoutes or group-factored CompressedRoutes (kAuto decides by
  /// node count).
  OpsNetworkSim(const hypergraph::StackGraph& network, RoutingHooks routing,
                std::unique_ptr<TrafficGenerator> traffic, SimConfig config);

  /// Same, with pre-compiled routes (share one table across many trials
  /// of a sweep instead of re-baking per simulator).
  OpsNetworkSim(const hypergraph::StackGraph& network,
                std::shared_ptr<const routing::CompiledRoutes> routes,
                std::unique_ptr<TrafficGenerator> traffic, SimConfig config);

  /// Convenience: compiled routes by value.
  OpsNetworkSim(const hypergraph::StackGraph& network,
                routing::CompiledRoutes routes,
                std::unique_ptr<TrafficGenerator> traffic, SimConfig config);

  /// Same, with a pre-compiled group-factored table (the O(G^2 + H)
  /// representation; share it across trials exactly like dense tables).
  OpsNetworkSim(const hypergraph::StackGraph& network,
                std::shared_ptr<const routing::CompressedRoutes> routes,
                std::unique_ptr<TrafficGenerator> traffic, SimConfig config);

  /// Convenience: compressed routes by value.
  OpsNetworkSim(const hypergraph::StackGraph& network,
                routing::CompressedRoutes routes,
                std::unique_ptr<TrafficGenerator> traffic, SimConfig config);

  /// Overrides the timing model compiled from SimConfig::timing for
  /// Engine::kAsync runs -- the hook for trace-derived models
  /// (TimingModel::from_trace), which need an optical design the config
  /// cannot name declaratively. Must match the network's coupler count.
  void set_timing_model(std::shared_ptr<const TimingModel> timing);

  /// Runs warmup + measurement (+ optional drain); returns the metrics of
  /// the measurement window.
  RunMetrics run();

  /// Per-coupler successful-transmission counts of the measured window
  /// (valid after run()).
  [[nodiscard]] const std::vector<std::int64_t>& coupler_successes() const {
    return coupler_success_;
  }

 private:
  void validate_config() const;
  RunMetrics run_event_queue();
  void slot();
  void enqueue(Packet packet, hypergraph::Node at);

  const hypergraph::StackGraph& network_;
  RoutingHooks routing_;
  /// Exactly one of these is set for the phased engines; the event-queue
  /// engine routes through routing_ (served from whichever table exists
  /// when the simulator was built from one).
  std::shared_ptr<const routing::CompiledRoutes> routes_;
  std::shared_ptr<const routing::CompressedRoutes> compressed_routes_;
  std::shared_ptr<const TimingModel> timing_model_;  ///< kAsync override
  std::unique_ptr<TrafficGenerator> traffic_;
  SimConfig config_;
  core::Rng rng_;
  EventQueue queue_;

  /// Virtual output queues: per node, per out-coupler slot (indexed by
  /// position of the coupler in out_hyperarcs(node)). Event-queue engine
  /// only; the slot engines use a record arena (voq_arena.hpp) internally.
  std::vector<std::vector<std::deque<Packet>>> voq_;
  std::vector<std::int64_t> token_;  ///< per coupler, round-robin cursor
  std::vector<std::int64_t> coupler_success_;
  RunMetrics metrics_;
  bool measuring_ = false;
  std::int64_t next_packet_id_ = 0;
  std::int64_t inflight_ = 0;
};

}  // namespace otis::sim
