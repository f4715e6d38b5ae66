#include "routing/compressed_routes.hpp"

#include <limits>

#include "core/error.hpp"
#include "core/work_pool.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/generic_stack_routing.hpp"
#include "routing/stack_routing.hpp"

namespace otis::routing {

CompressedRoutes CompressedRoutes::layout(
    const hypergraph::StackGraph& network) {
  CompressedRoutes routes;
  routes.s_ = network.stacking_factor();
  routes.groups_ = network.base().order();
  routes.nodes_ = network.node_count();
  routes.couplers_ = network.hypergraph().hyperarc_count();
  OTIS_REQUIRE(routes.nodes_ <= std::numeric_limits<std::int32_t>::max() &&
                   routes.couplers_ <= std::numeric_limits<std::int32_t>::max(),
               "CompressedRoutes: network too large for int32 tables");
  const std::size_t g = static_cast<std::size_t>(routes.groups_);
  routes.group_next_slot_.assign(g * g, -1);
  routes.group_out_begin_.resize(g);
  for (std::size_t x = 0; x < g; ++x) {
    routes.group_out_begin_[x] = static_cast<std::int32_t>(
        network.base().out_begin(static_cast<graph::Vertex>(x)));
  }
  // Relay bases are pure topology: coupler h targets the s copies of its
  // base arc's head, so the relay for dest is head*s + (dest mod s).
  routes.relay_base_.resize(static_cast<std::size_t>(routes.couplers_));
  for (hypergraph::HyperarcId h = 0; h < routes.couplers_; ++h) {
    const graph::Arc arc = network.base().arc(network.arc_of_coupler(h));
    routes.relay_base_[static_cast<std::size_t>(h)] =
        static_cast<std::int32_t>(arc.head * routes.s_);
  }
  return routes;
}

CompressedRoutes CompressedRoutes::compile(
    const hypergraph::StackGraph& network, const NextCouplerFn& next_coupler,
    const RelayFn& relay_on, core::WorkStealingPool* pool) {
  OTIS_REQUIRE(next_coupler && relay_on,
               "CompressedRoutes: routing callbacks must be set");
  CompressedRoutes routes = layout(network);
  const std::int64_t s = routes.s_;
  // One work item per source group: row gx writes exactly the pre-sized
  // entries [gx*G, (gx+1)*G) of the slot table, so rows are independent and
  // the parallel fill is bit-identical to the serial one.
  const auto compile_row = [&](std::size_t row) {
    const auto gx = static_cast<graph::Vertex>(row);
    const hypergraph::Node src = network.node_of(gx, 0);
    for (graph::Vertex gy = 0; gy < routes.groups_; ++gy) {
      // Same-group traffic exists only for s >= 2; with s == 1 the
      // (gx, gx) entry stays -1 and is never queried.
      if (gx == gy && s < 2) {
        continue;
      }
      const hypergraph::Node dest =
          gx == gy ? network.node_of(gy, 1) : network.node_of(gy, 0);
      const hypergraph::HyperarcId h = next_coupler(src, dest);
      const std::int64_t slot = network.out_slot_of(src, h);
      OTIS_REQUIRE(slot >= 0,
                   "CompressedRoutes: router chose a coupler the node "
                   "cannot feed");
      const std::size_t at = static_cast<std::size_t>(gx) *
                                 static_cast<std::size_t>(routes.groups_) +
                             static_cast<std::size_t>(gy);
      routes.group_next_slot_[at] = static_cast<std::int32_t>(slot);
      OTIS_REQUIRE(
          relay_on(h, dest) == routes.relay(h, dest),
          "CompressedRoutes: relay is not index-preserving (relay_on does "
          "not pick the target-group copy with the destination's index)");
      if (s >= 2) {
        // Spot-check factoredness on a second representative pair: the
        // top copy of the source group and a different dest copy must
        // make the same group decision and follow the same relay form.
        const hypergraph::Node src2 = network.node_of(gx, s - 1);
        const hypergraph::Node dest2 =
            gx == gy ? network.node_of(gy, 0) : network.node_of(gy, s - 1);
        OTIS_REQUIRE(next_coupler(src2, dest2) == h,
                     "CompressedRoutes: router is not group-factored "
                     "(copies of the same group pick different couplers)");
        OTIS_REQUIRE(
            relay_on(h, dest2) == routes.relay(h, dest2),
            "CompressedRoutes: relay is not index-preserving for all "
            "copies of the destination group");
      }
    }
  };
  const auto rows = static_cast<std::size_t>(routes.groups_);
  if (pool != nullptr && pool->thread_count() > 1 && routes.groups_ > 1) {
    pool->run(rows, compile_row);
  } else {
    for (std::size_t row = 0; row < rows; ++row) {
      compile_row(row);
    }
  }
  return routes;
}

CompressedRoutes CompressedRoutes::compress(
    const hypergraph::StackGraph& network, const CompiledRoutes& dense) {
  OTIS_REQUIRE(dense.node_count() == network.node_count(),
               "CompressedRoutes: dense table was compiled for another "
               "network");
  CompressedRoutes routes = layout(network);
  for (hypergraph::Node v = 0; v < routes.nodes_; ++v) {
    for (hypergraph::Node d = 0; d < routes.nodes_; ++d) {
      if (v == d) {
        continue;
      }
      const hypergraph::HyperarcId h = dense.next_coupler(v, d);
      const std::int32_t slot = dense.next_slot(v, d);
      std::int32_t& slot_entry =
          routes.group_next_slot_[routes.group_index(v, d)];
      if (slot_entry < 0) {
        slot_entry = slot;
      } else {
        OTIS_REQUIRE(slot_entry == slot,
                     "CompressedRoutes: dense table is not group-factored "
                     "(copies of the same group pick different couplers)");
      }
      OTIS_REQUIRE(routes.next_coupler(v, d) == h,
                   "CompressedRoutes: dense next coupler is not its "
                   "group's out-coupler at the slot");
      OTIS_REQUIRE(dense.relay(h, d) == routes.relay(h, d),
                   "CompressedRoutes: dense relay is not index-preserving");
    }
  }
  return routes;
}

CompressedRoutes::NextCouplerFn CompressedRoutes::next_coupler_fn() const {
  return [this](hypergraph::Node node, hypergraph::Node dest) {
    return next_coupler(node, dest);
  };
}

CompressedRoutes::RelayFn CompressedRoutes::relay_fn() const {
  return [this](hypergraph::HyperarcId coupler, hypergraph::Node dest) {
    return relay(coupler, dest);
  };
}

CompressedRoutes compress_stack_kautz_routes(
    const hypergraph::StackKautz& network, core::WorkStealingPool* pool) {
  const StackKautzRouter router(network);
  return CompressedRoutes::compile(
      network.stack(),
      [&router](hypergraph::Node c, hypergraph::Node d) {
        return router.next_coupler(c, d);
      },
      [&router](hypergraph::HyperarcId h, hypergraph::Node d) {
        return router.relay_on(h, d);
      },
      pool);
}

CompressedRoutes compress_pops_routes(const hypergraph::Pops& network,
                                      core::WorkStealingPool* pool) {
  const PopsRouter router(network);
  return CompressedRoutes::compile(
      network.stack(),
      [&router](hypergraph::Node c, hypergraph::Node d) {
        return router.next_coupler(c, d);
      },
      [](hypergraph::HyperarcId, hypergraph::Node d) { return d; }, pool);
}

CompressedRoutes compress_generic_stack_routes(
    const hypergraph::StackGraph& network, core::WorkStealingPool* pool) {
  const GenericStackRouter router(network);
  return CompressedRoutes::compile(
      network,
      [&router](hypergraph::Node c, hypergraph::Node d) {
        return router.next_coupler(c, d);
      },
      [&router](hypergraph::HyperarcId h, hypergraph::Node d) {
        return router.relay_on(h, d);
      },
      pool);
}

CompressedRoutes compress_stack_imase_itoh_routes(
    const hypergraph::StackImaseItoh& network, core::WorkStealingPool* pool) {
  return compress_generic_stack_routes(network.stack(), pool);
}

}  // namespace otis::routing
