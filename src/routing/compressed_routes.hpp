#pragma once
/// \file compressed_routes.hpp
/// Group-factored compressed routing tables for stack-graph networks.
///
/// Every router this library ships is *group-factored*: on a stack-graph
/// sigma(s, G) the coupler a node transmits on depends only on the
/// (source group, destination group) pair, and the node that picks a
/// packet off a coupler is always the member of the coupler's target
/// group whose in-group copy index equals the destination's. (That is
/// the paper's routing convention for SK/SII -- "the processor whose
/// index matches the destination's relays" -- and trivially true for
/// single-hop POPS.) CompiledRoutes ignores this structure and stores
/// O(N^2 + H*N) int32 entries; CompressedRoutes stores the per-group
/// decisions instead:
///   - group_next_slot(gx, gy): O(G^2),
///   - relay_base(coupler) = first node of the coupler's target group:
///     O(H),
/// and recovers the per-node answers with the group/copy arithmetic
/// node -> (node / s, node % s); the next coupler is the group's first
/// out-coupler plus the slot. A hop is still two array loads plus two
/// integer divisions -- no virtual dispatch -- and the memory drops from
/// O(N^2 + H*N) to O(G^2 + H), which is what makes N ~ 10^5 simulations
/// fit in RAM (see README "Route-table memory models").
///
/// Two construction paths:
///   - compile(): evaluates the routing callbacks on group
///     representatives only -- O(G^2) router calls, the dense table is
///     never materialized. Group-factoredness is spot-checked on a
///     second copy representative per pair and the relay convention is
///     verified per decision; a non-factored router throws.
///   - compress(): folds an existing dense CompiledRoutes, verifying
///     every (node, dest) pair against the factored form -- the
///     exhaustive cross-check for small instances (tests use it to
///     prove compile() and the dense tables agree everywhere).

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

class CompiledRoutes;

/// Per-(group, group) next-slot table plus per-coupler relay bases; a
/// RouteView (see route_view.hpp).
class CompressedRoutes {
 public:
  using NextCouplerFn =
      std::function<hypergraph::HyperarcId(hypergraph::Node, hypergraph::Node)>;
  using RelayFn =
      std::function<hypergraph::Node(hypergraph::HyperarcId, hypergraph::Node)>;

  /// Bakes group-level tables by evaluating the callbacks on group
  /// representatives (O(G^2) calls). Throws core::Error when the
  /// callbacks are detectably not group-factored or break the
  /// index-preserving relay convention.
  ///
  /// With `pool` set the per-source-group rows are spread across its
  /// workers; each row writes only its own pre-sized [gx*G, (gx+1)*G)
  /// table range, so the parallel result is bit-identical to serial
  /// (the callbacks must be const-thread-safe, which every shipped
  /// router is -- they are pure table/arithmetic lookups).
  static CompressedRoutes compile(const hypergraph::StackGraph& network,
                                  const NextCouplerFn& next_coupler,
                                  const RelayFn& relay_on,
                                  core::WorkStealingPool* pool = nullptr);

  /// Folds a dense table into the group-factored form, verifying every
  /// (node, dest) pair on the way -- O(N^2), for small instances and
  /// tests. Throws core::Error when the dense table is not
  /// group-factored.
  static CompressedRoutes compress(const hypergraph::StackGraph& network,
                                   const CompiledRoutes& dense);

  [[nodiscard]] std::int64_t node_count() const noexcept { return nodes_; }
  [[nodiscard]] std::int64_t coupler_count() const noexcept {
    return couplers_;
  }
  [[nodiscard]] std::int64_t group_count() const noexcept { return groups_; }
  [[nodiscard]] std::int64_t stacking_factor() const noexcept { return s_; }

  /// Coupler a packet at `node` heading to `dest` transmits on. Defined
  /// for node != dest (for node == dest it returns the same-group
  /// decision, not the dense tables' -1 diagonal).
  [[nodiscard]] hypergraph::HyperarcId next_coupler(
      hypergraph::Node node, hypergraph::Node dest) const noexcept {
    const std::int32_t slot = next_slot(node, dest);
    return slot < 0 ? -1
                    : group_out_begin_[static_cast<std::size_t>(node / s_)] +
                          slot;
  }

  /// VOQ slot (position in out_hyperarcs(node)) of that coupler; the
  /// slot is group-uniform because a stack node's out-couplers are its
  /// base vertex's CSR arc range.
  [[nodiscard]] std::int32_t next_slot(hypergraph::Node node,
                                       hypergraph::Node dest) const noexcept {
    return group_next_slot_[group_index(node, dest)];
  }

  /// Node that consumes a packet for `dest` heard on `coupler`: the
  /// copy of the coupler's target group with the destination's index.
  [[nodiscard]] hypergraph::Node relay(hypergraph::HyperarcId coupler,
                                       hypergraph::Node dest) const noexcept {
    return relay_base_[static_cast<std::size_t>(coupler)] + dest % s_;
  }

  /// Hints the cache toward the next-slot entry of (node, dest): at
  /// G ~ 10^3 the G*G table outgrows L2 (the relay bases stay cached).
  void prefetch_next_slot(hypergraph::Node node,
                          hypergraph::Node dest) const noexcept {
    __builtin_prefetch(group_next_slot_.data() + group_index(node, dest));
  }

  /// Bytes held by the baked tables (the O(G^2 + H) footprint).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (group_next_slot_.size() + relay_base_.size() +
            group_out_begin_.size()) *
           sizeof(std::int32_t);
  }

  /// The tables re-exposed as callbacks (event-queue engine, legacy
  /// call sites). Capture `this`; keep the object alive and unmoved.
  [[nodiscard]] NextCouplerFn next_coupler_fn() const;
  [[nodiscard]] RelayFn relay_fn() const;

 private:
  [[nodiscard]] std::size_t group_index(hypergraph::Node node,
                                        hypergraph::Node dest) const noexcept {
    return static_cast<std::size_t>(node / s_) *
               static_cast<std::size_t>(groups_) +
           static_cast<std::size_t>(dest / s_);
  }

  /// Sizes the tables and fills relay_base_ from the topology alone.
  static CompressedRoutes layout(const hypergraph::StackGraph& network);

  std::int64_t s_ = 1;
  std::int64_t groups_ = 0;
  std::int64_t nodes_ = 0;
  std::int64_t couplers_ = 0;
  std::vector<std::int32_t> group_next_slot_;  // [group][dest group]
  std::vector<std::int32_t> relay_base_;  // [coupler] target group's node 0
  std::vector<std::int32_t> group_out_begin_;  // [group] first out-coupler
};

/// Kautz label routing on SK(s, d, k), compiled directly at group
/// granularity (the dense table is never materialized). A non-null
/// `pool` parallelizes the row loop (bit-identical output).
[[nodiscard]] CompressedRoutes compress_stack_kautz_routes(
    const hypergraph::StackKautz& network,
    core::WorkStealingPool* pool = nullptr);

/// Single-hop POPS routing, group-compiled.
[[nodiscard]] CompressedRoutes compress_pops_routes(
    const hypergraph::Pops& network, core::WorkStealingPool* pool = nullptr);

/// Table-driven shortest-path routing for any stack-graph,
/// group-compiled (the BFS tables are per base vertex already).
[[nodiscard]] CompressedRoutes compress_generic_stack_routes(
    const hypergraph::StackGraph& network,
    core::WorkStealingPool* pool = nullptr);

/// Shortest-path routing on SII(s, d, n), group-compiled.
[[nodiscard]] CompressedRoutes compress_stack_imase_itoh_routes(
    const hypergraph::StackImaseItoh& network,
    core::WorkStealingPool* pool = nullptr);

}  // namespace otis::routing
