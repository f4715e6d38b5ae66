#pragma once
/// \file sharding.hpp
/// Worker-count resolution, the feed-local shard partition and the
/// worker scaffolding shared by the sharded slot and timed-event loops.
///
/// A feed-local plan cuts the node range only where no coupler's feed
/// set spans the cut, so a coupler, every VOQ that feeds it and the
/// request bits over those VOQs all belong to one shard. The owner can
/// then arbitrate, pop and push on them without atomics or a barrier
/// between injection and arbitration; only relayed packets cross
/// shards, through the engines' per-pair mailboxes.

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "obs/probe.hpp"
#include "obs/runtime_stats.hpp"
#include "obs/telemetry.hpp"
#include "sim/metrics.hpp"
#include "sim/occupancy.hpp"

namespace otis::sim::detail {

/// SimConfig::threads resolved for a network: <= 0 means one worker per
/// hardware thread (at least one), and no run gets more workers than it
/// has nodes or couplers to hand out.
[[nodiscard]] int clamp_threads(int requested, std::int64_t nodes,
                                std::int64_t couplers);

/// Feed-local partition: contiguous node ranges whose cuts never split a
/// coupler's feed set, and per-shard coupler lists owned by the shard
/// holding the coupler's feed nodes. The lists are consecutive blocks of
/// ascending ids (CSR coupler numbering; plan_shards checks it), so
/// shard order is coupler order. Cuts snap outward from the balanced
/// positions to the nearest legal one, so a topology with few legal cuts
/// leaves some shards empty; an empty shard still joins every barrier.
struct ShardPlan {
  std::vector<std::int64_t> node_cut;    ///< threads + 1 cut positions
  std::vector<std::int32_t> node_owner;  ///< node -> shard index
  std::vector<std::vector<hypergraph::HyperarcId>> couplers;
};

/// Plans `threads` shards over the VOQ layout `voq_base` (node v's
/// queues are voq_base[v] + slot) and its feed geometry.
[[nodiscard]] ShardPlan plan_shards(int threads,
                                    const std::vector<std::int64_t>& voq_base,
                                    const FeedIndex& feed);

/// Counters every sharded loop keeps per shard. They fold into the run's
/// totals by order-independent sums and merges, so no total can depend
/// on the partition.
struct ShardTally {
  std::int64_t offered = 0, delivered = 0, dropped = 0;
  std::int64_t transmissions = 0, collisions = 0;
  std::int64_t inflight_delta = 0;  ///< since the last completion step
  LatencyStats latency;

  /// Clears the shard's probe frame and writes the counters into it.
  void snapshot(obs::ProbeRegistry& frame, const obs::EngineProbes& ids) const;
  /// Adds the counters and latency samples into `m`.
  void fold_into(RunMetrics& m) const;
};

/// `count` empty probe frames (one per shard, or per shard and window
/// slot) when `tel` samples, else none.
[[nodiscard]] std::vector<obs::ProbeRegistry> probe_frames(
    const obs::Telemetry* tel, std::int64_t count);

/// Completion-step side of a sample: the run's registry becomes the sum
/// of the shard frames plus the global backlog gauge.
void merge_frames(obs::Telemetry& tel,
                  const std::vector<obs::ProbeRegistry>& frames,
                  std::int64_t backlog);

/// Gives the VOQs of nodes [begin, end) to arena pool `pool`, so a
/// shard's pushes only ever grow its own pool.
template <class Arena>
void assign_pool(Arena& voq, const std::vector<std::int64_t>& voq_base,
                 std::int64_t begin, std::int64_t end, int pool) {
  for (std::int64_t qi = voq_base[static_cast<std::size_t>(begin)];
       qi < voq_base[static_cast<std::size_t>(end)]; ++qi) {
    voq.set_pool(static_cast<std::size_t>(qi),
                 static_cast<std::uint32_t>(pool));
  }
}

/// Arrives at `barrier` and waits. With the runtime channel on (`rt`
/// non-null) the wait is added to the shard's barrier time.
template <class Barrier>
void timed_wait(Barrier& barrier, obs::ShardRuntime* rt) {
  if (rt == nullptr) {
    barrier.arrive_and_wait();
    return;
  }
  const std::int64_t t0 = obs::runtime_now_ns();
  barrier.arrive_and_wait();
  rt->barrier_wait_ns += obs::runtime_now_ns() - t0;
}

/// Ends a phase: arrives at `barrier` and waits as timed_wait does, or,
/// for a lone shard, runs the barrier's completion step `done` in place.
/// A one-party std::barrier still synchronises on every arrival, which
/// costs a serial closed loop a large share of each small slot.
template <class Barrier, class Completion>
void end_phase(int threads, Barrier& barrier, Completion& done,
               obs::ShardRuntime* rt) {
  if (threads == 1) {
    done();
    return;
  }
  timed_wait(barrier, rt);
}

/// The runtime channel's rows for one sharded run: one private
/// obs::ShardRuntime per shard, allocated only when the session is
/// active, so an attached-but-disabled session never reaches a loop.
class ShardRuntimes {
 public:
  ShardRuntimes(obs::RuntimeStats* stats, int threads)
      : stats_(stats != nullptr && stats->active() ? stats : nullptr),
        rows_(stats_ != nullptr ? static_cast<std::size_t>(threads) : 0) {}
  ShardRuntimes(const ShardRuntimes&) = delete;
  ShardRuntimes& operator=(const ShardRuntimes&) = delete;

  /// Shard w's row, or null when the channel is off.
  [[nodiscard]] obs::ShardRuntime* at(int w) {
    return stats_ != nullptr ? &rows_[static_cast<std::size_t>(w)] : nullptr;
  }

  /// Runs worker(w, at(w)) for every shard w in [0, threads) and joins
  /// them (one shard runs on the calling thread). With the channel on,
  /// each shard's work time is its loop's wall time less its barrier
  /// waits, and the rows are recorded under (engine, mode).
  template <class Worker>
  void run(int threads, const char* engine, const char* mode,
           const Worker& worker) {
    const std::int64_t start = stats_ != nullptr ? obs::runtime_now_ns() : 0;
    const auto timed = [&](int w) {
      obs::ShardRuntime* const rt = at(w);
      const std::int64_t loop_start = rt != nullptr ? obs::runtime_now_ns() : 0;
      worker(w, rt);
      if (rt != nullptr) {
        rt->work_ns +=
            obs::runtime_now_ns() - loop_start - rt->barrier_wait_ns;
      }
    };
    if (threads == 1) {
      timed(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (int w = 0; w < threads; ++w) {
        pool.emplace_back(timed, w);
      }
      for (std::thread& t : pool) {
        t.join();
      }
    }
    if (stats_ != nullptr) {
      stats_->record_shards(engine, mode, obs::runtime_now_ns() - start,
                            rows_);
    }
  }

 private:
  obs::RuntimeStats* stats_;  ///< null when the channel is off
  std::vector<obs::ShardRuntime> rows_;
};

}  // namespace otis::sim::detail
