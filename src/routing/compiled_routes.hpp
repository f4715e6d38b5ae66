#pragma once
/// \file compiled_routes.hpp
/// Compiled routing tables for the slot-synchronous simulator.
///
/// The simulator's inner loop used to route every packet hop through a
/// std::function pair (RoutingHooks). CompiledRoutes bakes those
/// callbacks once per (topology, routing-policy) pair into two dense
/// int32 tables:
///   - next_slot(node, dest)    : the VOQ slot `node` queues into,
///   - relay(coupler, dest)     : the node that picks the packet up.
/// next_coupler(node, dest) is derived: a node's out-couplers are its
/// group's CSR arc range in slot order (StackGraph::out_slot_of), so it
/// is the node's first out-coupler plus next_slot(node, dest). After
/// baking, a hop is two array loads -- no virtual dispatch, no
/// std::function, no std::find. Memory is O(N^2 + H*N) int32 entries,
/// fine for paper-scale networks (N up to a few thousand); beyond that
/// use the group-factored CompressedRoutes (compressed_routes.hpp),
/// which stores the same decisions in O(G^2 + H) and is bit-identical
/// in simulation. Both tables model the RouteView concept
/// (route_view.hpp) the phased engines are templated over.
///
/// Adapters cover every router shipped by the library: the Kautz label
/// router (via StackKautzRouter), the Imase-Itoh arithmetic router (via
/// its stack network), the generic-stack router and the dense
/// TableRouter it wraps.

#include <cstdint>
#include <functional>
#include <vector>

#include "hypergraph/stack_graph.hpp"

namespace otis::core {
class WorkStealingPool;
}  // namespace otis::core

namespace otis::hypergraph {
class Pops;
class StackImaseItoh;
class StackKautz;
}  // namespace otis::hypergraph

namespace otis::routing {

/// Dense per-node next-slot and per-coupler relay tables.
class CompiledRoutes {
 public:
  using NextCouplerFn =
      std::function<hypergraph::HyperarcId(hypergraph::Node, hypergraph::Node)>;
  using RelayFn =
      std::function<hypergraph::Node(hypergraph::HyperarcId, hypergraph::Node)>;

  /// Bakes tables by evaluating the callbacks for every (node, dest) pair
  /// with node != dest. Validates that every chosen coupler is feedable
  /// by its node and that the relay of every chosen coupler is one of the
  /// coupler's targets.
  ///
  /// With `pool` set, the next-slot rows are filled in parallel over
  /// source nodes (row v owns [v*N, (v+1)*N)) and the relay table in a
  /// second pass over destination columns (column dest owns
  /// relay_[h*N + dest] for every h), so no two workers ever touch the
  /// same entry and the result is bit-identical to serial. The callbacks
  /// must be const-thread-safe.
  static CompiledRoutes compile(const hypergraph::StackGraph& network,
                                const NextCouplerFn& next_coupler,
                                const RelayFn& relay_on,
                                core::WorkStealingPool* pool = nullptr);

  /// Nodes covered by the node-indexed tables.
  [[nodiscard]] std::int64_t node_count() const noexcept { return nodes_; }
  /// Couplers covered by the relay table.
  [[nodiscard]] std::int64_t coupler_count() const noexcept {
    return couplers_;
  }

  /// Coupler a packet at `node` heading to `dest` transmits on (-1 on
  /// the diagonal node == dest).
  [[nodiscard]] hypergraph::HyperarcId next_coupler(
      hypergraph::Node node, hypergraph::Node dest) const noexcept {
    const std::int32_t slot = next_slot(node, dest);
    return slot < 0 ? -1 : out_begin_[static_cast<std::size_t>(node)] + slot;
  }

  /// VOQ slot (position in out_hyperarcs(node)) of that coupler.
  [[nodiscard]] std::int32_t next_slot(hypergraph::Node node,
                                       hypergraph::Node dest) const noexcept {
    return next_slot_[index(node, dest)];
  }

  /// Node that consumes a packet for `dest` heard on `coupler`.
  [[nodiscard]] hypergraph::Node relay(hypergraph::HyperarcId coupler,
                                       hypergraph::Node dest) const noexcept {
    return relay_[static_cast<std::size_t>(coupler) *
                      static_cast<std::size_t>(nodes_) +
                  static_cast<std::size_t>(dest)];
  }

  /// Hints the cache toward the next-slot entry of (node, dest), the
  /// relay hop's lookup that misses once the table outgrows the cache.
  void prefetch_next_slot(hypergraph::Node node,
                          hypergraph::Node dest) const noexcept {
    __builtin_prefetch(next_slot_.data() + index(node, dest));
  }

  /// Bytes held by the baked tables (the O(N^2 + H*N) footprint).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (next_slot_.size() + relay_.size() + out_begin_.size()) *
           sizeof(std::int32_t);
  }

  /// What a dense table for `nodes` nodes and `couplers` couplers would
  /// occupy, without building it -- for memory-model reporting at sizes
  /// where the dense table cannot (or should not) be allocated.
  [[nodiscard]] static std::size_t dense_bytes(std::int64_t nodes,
                                               std::int64_t couplers) noexcept {
    const std::size_t n = static_cast<std::size_t>(nodes);
    const std::size_t h = static_cast<std::size_t>(couplers);
    return (n * n + h * n + n) * sizeof(std::int32_t);
  }

  /// The baked tables re-exposed as callbacks, for code that still wants
  /// the hook interface (e.g. the legacy event-queue engine). The
  /// callbacks capture `this`: they are valid only while this object
  /// stays alive and unmoved (hold it via shared_ptr, as OpsNetworkSim
  /// does, when the callbacks outlive the current scope).
  [[nodiscard]] NextCouplerFn next_coupler_fn() const;
  [[nodiscard]] RelayFn relay_fn() const;

 private:
  [[nodiscard]] std::size_t index(hypergraph::Node node,
                                  hypergraph::Node dest) const noexcept {
    return static_cast<std::size_t>(node) * static_cast<std::size_t>(nodes_) +
           static_cast<std::size_t>(dest);
  }

  std::int64_t nodes_ = 0;
  std::int64_t couplers_ = 0;
  std::vector<std::int32_t> next_slot_;  // [node][dest]
  std::vector<std::int32_t> relay_;      // [coupler][dest]
  std::vector<std::int32_t> out_begin_;  // [node] first out-coupler
};

/// Kautz label routing on SK(s, d, k), compiled. A non-null `pool`
/// parallelizes the table fill (bit-identical output).
[[nodiscard]] CompiledRoutes compile_stack_kautz_routes(
    const hypergraph::StackKautz& network,
    core::WorkStealingPool* pool = nullptr);

/// Single-hop POPS routing (relay is always the destination), compiled.
[[nodiscard]] CompiledRoutes compile_pops_routes(
    const hypergraph::Pops& network, core::WorkStealingPool* pool = nullptr);

/// Table-driven shortest-path routing for any stack-graph (BFS tables on
/// the base digraph via GenericStackRouter / TableRouter), compiled.
[[nodiscard]] CompiledRoutes compile_generic_stack_routes(
    const hypergraph::StackGraph& network,
    core::WorkStealingPool* pool = nullptr);

/// Shortest-path routing on SII(s, d, n); the Imase-Itoh arithmetic
/// router is exact but per-call, so the compiled table is built from the
/// generic shortest-path tables (they agree on distances by construction).
[[nodiscard]] CompiledRoutes compile_stack_imase_itoh_routes(
    const hypergraph::StackImaseItoh& network,
    core::WorkStealingPool* pool = nullptr);

}  // namespace otis::routing
