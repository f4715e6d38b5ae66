#pragma once
/// \file voq_arena.hpp
/// Record arena backing the slot engines' virtual output queues
/// (replaces the per-queue RingBuffer<Packet> vector).
///
/// Every queue operation on the hot path moves a whole entry: a push
/// writes one, pop_front and front copy one. The arena therefore stores
/// entry records (VoqEntry is 24 bytes, TimedVoqEntry 32), so an
/// operation touches the queue's header line plus the one line its
/// record spans (rarely two) -- never one line per field. The per-queue
/// header (segment pointer, head, length, capacity, pool) is packed
/// into 24 bytes for the same reason.
///
/// Queues own power-of-two segments carved from their pool's blocks. A
/// full queue gets a fresh segment of twice the size and abandons the
/// old one; as with per-queue doubling vectors, abandoned space is
/// bounded by the live capacity (geometric series). Blocks are never
/// reallocated, so a segment pointer stays valid until init().
///
/// Sharded runs hand every shard its own pool (init(queues, shards) +
/// set_pool): pushes -- the only operation that can grow a pool -- are
/// always issued by the owning shard, while the barrier-separated
/// arbitration phase only pops (head/size updates, no allocation), so
/// concurrent phases never race on a pool's blocks.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace otis::sim {

/// One queued packet, minus the source node: once a packet sits in a
/// VOQ its source is never read again (relays are resolved from the
/// coupler), so the arena does not store it. The destination fits in
/// int32 because both route views refuse larger networks; packed beside
/// hops, it keeps the record at 24 bytes.
struct VoqEntry {
  std::int64_t id = 0;
  std::int64_t created = 0;  ///< slot (phased) or tick (async)
  std::int32_t destination = 0;
  std::int32_t hops = 0;
};
static_assert(sizeof(VoqEntry) == 24);

/// VoqEntry plus the tick the transmitter finishes tuning (async
/// engine's eligibility gate): 32 bytes, two records per cache line.
struct TimedVoqEntry {
  std::int64_t id = 0;
  std::int64_t created = 0;
  std::int32_t destination = 0;
  std::int32_t hops = 0;
  std::int64_t ready = 0;
};
static_assert(sizeof(TimedVoqEntry) == 32);

template <bool Timed>
class VoqArenaT {
 public:
  using Entry = std::conditional_t<Timed, TimedVoqEntry, VoqEntry>;

  /// Initial per-queue segment capacity (matches the old RingBuffer).
  static constexpr std::uint32_t kInitialCapacity = 8;

  /// Headers point into the pools' blocks, so a copy would alias them.
  VoqArenaT() = default;
  VoqArenaT(const VoqArenaT&) = delete;
  VoqArenaT& operator=(const VoqArenaT&) = delete;

  /// Re-initializes to `queue_count` empty queues spread over
  /// `pool_count` independently growable pools. Every queue starts in
  /// pool 0; sharded callers reassign with set_pool() before pushing.
  void init(std::size_t queue_count, std::size_t pool_count = 1) {
    pools_.clear();
    pools_.resize(pool_count);
    queues_.assign(queue_count, Header{});
  }

  void set_pool(std::size_t q, std::uint32_t pool) {
    queues_[q].pool = pool;
  }

  [[nodiscard]] std::size_t queue_count() const noexcept {
    return queues_.size();
  }
  [[nodiscard]] std::size_t size(std::size_t q) const noexcept {
    return queues_[q].len;
  }
  [[nodiscard]] bool empty(std::size_t q) const noexcept {
    return queues_[q].len == 0;
  }

  void push(std::size_t q, const Entry& e) {
    Header& ref = queues_[q];
    if (ref.len == ref.cap) {
      grow(ref);
    }
    ref.base[(ref.head + ref.len) & (ref.cap - 1)] = e;
    ++ref.len;
  }

  /// Copy of the head entry; the queue must be non-empty.
  [[nodiscard]] Entry front(std::size_t q) const {
    const Header& ref = queues_[q];
    return ref.base[ref.head];
  }

  /// Ready tick of the head entry (the async eligibility gate reads only
  /// this field).
  [[nodiscard]] std::int64_t front_ready(std::size_t q) const
    requires Timed
  {
    const Header& ref = queues_[q];
    return ref.base[ref.head].ready;
  }

  /// Removes and returns the head entry; the queue must be non-empty.
  Entry pop_front(std::size_t q) {
    Header& ref = queues_[q];
    const Entry e = ref.base[ref.head];
    ref.head = (ref.head + 1) & (ref.cap - 1);
    --ref.len;
    return e;
  }

  /// Visits queue `q`'s entries head to tail (checkpoint serialization:
  /// re-pushing the visited sequence into a fresh arena reproduces the
  /// queue's logical FIFO state exactly, whatever the segment layout).
  template <typename Fn>
  void for_each_entry(std::size_t q, Fn&& fn) const {
    const Header& ref = queues_[q];
    for (std::uint32_t i = 0; i < ref.len; ++i) {
      fn(ref.base[(ref.head + i) & (ref.cap - 1)]);
    }
  }

 private:
  /// Per-queue metadata, packed so every queue operation touches one
  /// header cache line (three headers per 64-byte line).
  struct Header {
    Entry* base = nullptr;   ///< segment start, in a block of its pool
    std::uint32_t head = 0;  ///< head offset (masked by cap - 1)
    std::uint32_t len = 0;   ///< live entry count
    std::uint32_t cap = 0;   ///< segment capacity (power of two)
    std::uint32_t pool = 0;  ///< owning pool index
  };

  /// Blocks of records that are never reallocated, so segment pointers
  /// stay valid. (One doubling vector per pool never fits the buffers
  /// it freed; a 108-cell campaign's heap kept them, +1/3 peak RSS.)
  struct Pool {
    std::vector<std::vector<Entry>> blocks;
    std::size_t total = 0;  ///< records reserved over all blocks
  };

  /// Smallest block, in records.
  static constexpr std::size_t kMinBlock = 4096;

  /// `count` fresh records from `pool`: the tail of its last block, or a
  /// new block at least as large as all earlier ones together, so a pool
  /// holds O(log) blocks.
  static Entry* carve(Pool& pool, std::uint32_t count) {
    if (pool.blocks.empty() || pool.blocks.back().size() + count >
                                   pool.blocks.back().capacity()) {
      pool.blocks.emplace_back().reserve(
          std::max({std::size_t{count}, pool.total, kMinBlock}));
      pool.total += pool.blocks.back().capacity();
    }
    std::vector<Entry>& block = pool.blocks.back();
    block.resize(block.size() + count);
    return block.data() + block.size() - count;
  }

  void grow(Header& ref) {
    const std::uint32_t old_cap = ref.cap;
    const std::uint32_t new_cap =
        old_cap == 0 ? kInitialCapacity : old_cap * 2;
    Entry* segment = carve(pools_[ref.pool], new_cap);
    for (std::uint32_t i = 0; i < ref.len; ++i) {
      segment[i] = ref.base[(ref.head + i) & (old_cap - 1)];
    }
    ref.base = segment;
    ref.head = 0;
    ref.cap = new_cap;
  }

  std::vector<Pool> pools_;
  std::vector<Header> queues_;
};

/// The phased engines' arena.
using VoqArena = VoqArenaT<false>;
/// The async engine's arena (per-entry ready ticks).
using TimedVoqArena = VoqArenaT<true>;

}  // namespace otis::sim
