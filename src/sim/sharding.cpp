#include "sim/sharding.hpp"

#include <algorithm>
#include <thread>

#include "core/error.hpp"

namespace otis::sim::detail {

void ShardTally::snapshot(obs::ProbeRegistry& frame,
                          const obs::EngineProbes& ids) const {
  frame.zero();
  frame.set(ids.offered, offered);
  frame.set(ids.delivered, delivered);
  frame.set(ids.transmissions, transmissions);
  frame.set(ids.collisions, collisions);
  frame.set(ids.dropped, dropped);
}

void ShardTally::fold_into(RunMetrics& m) const {
  m.offered_packets += offered;
  m.delivered_packets += delivered;
  m.dropped_packets += dropped;
  m.coupler_transmissions += transmissions;
  m.collisions += collisions;
  m.latency.merge(latency);
}

std::vector<obs::ProbeRegistry> probe_frames(const obs::Telemetry* tel,
                                             std::int64_t count) {
  std::vector<obs::ProbeRegistry> frames;
  if (tel != nullptr && tel->sampling()) {
    frames.reserve(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      frames.push_back(tel->probes().clone_schema());
    }
  }
  return frames;
}

void merge_frames(obs::Telemetry& tel,
                  const std::vector<obs::ProbeRegistry>& frames,
                  std::int64_t backlog) {
  obs::ProbeRegistry& reg = tel.probes();
  reg.zero();
  for (const obs::ProbeRegistry& frame : frames) {
    reg.accumulate(frame);
  }
  reg.set(tel.engine_probes().backlog, backlog);
}

int clamp_threads(int requested, std::int64_t nodes, std::int64_t couplers) {
  int threads = requested;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (threads <= 0) {
    threads = 1;
  }
  return static_cast<int>(std::min<std::int64_t>(
      threads, std::max<std::int64_t>(1, std::max(nodes, couplers))));
}

ShardPlan plan_shards(int threads, const std::vector<std::int64_t>& voq_base,
                      const FeedIndex& feed) {
  const std::int64_t nodes = static_cast<std::int64_t>(voq_base.size()) - 1;
  const std::int64_t couplers =
      static_cast<std::int64_t>(feed.coupler_count());
  ShardPlan plan;
  plan.node_cut.assign(static_cast<std::size_t>(threads) + 1, 0);
  plan.node_cut.back() = nodes;
  plan.couplers.resize(static_cast<std::size_t>(threads));
  plan.node_owner.assign(static_cast<std::size_t>(nodes), 0);
  if (threads == 1) {
    // One shard owns every node and coupler, so there is no cut to
    // place (each serial closed-loop run plans this way, once per run).
    plan.couplers[0].resize(static_cast<std::size_t>(couplers));
    for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
      plan.couplers[0][static_cast<std::size_t>(h)] = h;
    }
    return plan;
  }

  // A cut between nodes k-1 and k is feed-local iff no coupler's feed
  // set spans it. A coupler's owner arbitrates over its feed VOQs while
  // other shards push into theirs, which is only safe when every one of
  // those queues lives in the owner's shard -- so cuts inside a feed
  // span are forbidden and the ideal balanced boundaries snap outward
  // to the nearest legal position.
  // The node owning a VOQ: the last base at or below its index.
  const auto node_of = [&](std::int64_t qi) -> hypergraph::Node {
    return std::upper_bound(voq_base.begin(), voq_base.end(), qi) -
           voq_base.begin() - 1;
  };
  std::vector<std::uint8_t> allowed(static_cast<std::size_t>(nodes) + 1, 1);
  for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
    hypergraph::Node lo = nodes;
    hypergraph::Node hi = 0;
    for (std::int64_t p = feed.feed_base[static_cast<std::size_t>(h)];
         p < feed.feed_base[static_cast<std::size_t>(h) + 1]; ++p) {
      const hypergraph::Node v =
          node_of(feed.feed_qi[static_cast<std::size_t>(p)]);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    for (hypergraph::Node k = lo + 1; k <= hi; ++k) {
      allowed[static_cast<std::size_t>(k)] = 0;
    }
  }

  for (int w = 1; w < threads; ++w) {
    const std::int64_t ideal = nodes * w / threads;
    std::int64_t best = 0;
    for (std::int64_t d = 0;; ++d) {
      if (ideal - d >= 0 &&
          allowed[static_cast<std::size_t>(ideal - d)] != 0) {
        best = ideal - d;
        break;
      }
      if (ideal + d <= nodes &&
          allowed[static_cast<std::size_t>(ideal + d)] != 0) {
        best = ideal + d;
        break;
      }
    }
    // Snapping keeps cuts monotone; coinciding cuts leave a shard empty.
    plan.node_cut[static_cast<std::size_t>(w)] =
        std::max(best, plan.node_cut[static_cast<std::size_t>(w) - 1]);
  }
  for (int w = 0; w < threads; ++w) {
    for (std::int64_t v = plan.node_cut[static_cast<std::size_t>(w)];
         v < plan.node_cut[static_cast<std::size_t>(w) + 1]; ++v) {
      plan.node_owner[static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(w);
    }
  }
  // A coupler goes to the shard holding its feeds. Couplers are numbered
  // in CSR order of their source group, so each shard's couplers form
  // one ascending block after the previous shard's: walking the shards
  // in order walks the couplers in id order (the phased closed-loop
  // receive relies on it). A feedless coupler, never active, joins the
  // current block.
  std::int32_t owner = 0;
  for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
    const std::int64_t fb = feed.feed_base[static_cast<std::size_t>(h)];
    if (fb != feed.feed_base[static_cast<std::size_t>(h) + 1]) {
      const std::int32_t next = plan.node_owner[static_cast<std::size_t>(
          node_of(feed.feed_qi[static_cast<std::size_t>(fb)]))];
      OTIS_REQUIRE(next >= owner,
                   "plan_shards: coupler ids must ascend with their feed "
                   "nodes");
      owner = next;
    }
    plan.couplers[static_cast<std::size_t>(owner)].push_back(h);
  }
  return plan;
}

}  // namespace otis::sim::detail
