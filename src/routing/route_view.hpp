#pragma once
/// \file route_view.hpp
/// The RouteView concept: what the slot engines need from a routing
/// table.
///
/// A route view answers three hot-path questions -- which VOQ slot a
/// packet queues into, which coupler that slot feeds, and which node
/// picks the packet off a coupler -- plus the two sizes the engines use
/// to lay out their flat state. The phased engines are templated over
/// this concept, so each implementation is compiled into the slot loop
/// with no virtual dispatch: a hop stays two array loads (dense tables,
/// CompiledRoutes) or two loads plus the group/copy integer arithmetic
/// (group-factored tables, CompressedRoutes). prefetch_next_slot hints
/// the lookup of a relay hop that misses once the table outgrows cache.
///
/// Contract shared by all implementations:
///  - next_coupler/next_slot are defined for node != dest only (the
///    engines never route a delivered packet); the dense tables return
///    -1 on the diagonal, the compressed ones return the loop decision.
///    next_coupler is -1 exactly where next_slot is.
///  - relay(coupler, dest) is defined for every (coupler, dest) pair
///    some route actually produces.

#include <concepts>
#include <cstdint>

#include "hypergraph/hypergraph.hpp"

namespace otis::routing {

template <class R>
concept RouteView =
    requires(const R view, hypergraph::Node node, hypergraph::HyperarcId h) {
      { view.next_coupler(node, node) } noexcept
          -> std::convertible_to<hypergraph::HyperarcId>;
      { view.next_slot(node, node) } noexcept
          -> std::convertible_to<std::int32_t>;
      { view.relay(h, node) } noexcept -> std::convertible_to<hypergraph::Node>;
      { view.prefetch_next_slot(node, node) } noexcept;
      { view.node_count() } noexcept -> std::convertible_to<std::int64_t>;
      { view.coupler_count() } noexcept -> std::convertible_to<std::int64_t>;
      { view.memory_bytes() } noexcept -> std::convertible_to<std::size_t>;
    };

}  // namespace otis::routing
