#pragma once
/// \file slot_wheel.hpp
/// Per-slot timer wheels for the async engine: a hashed timing wheel
/// (Varghese & Lauck, SOSP 1987) with one bucket per slot.
///
/// Multi-OPS couplers arbitrate on slot boundaries, and the timing
/// model's delays (tuning, propagation, guard) only move a packet's
/// eligibility or landing by a bounded number of slots, known once the
/// TimingModel is compiled. So instead of a general pending-event set,
/// each of the engine's two timed mechanisms is a ring of per-slot
/// buckets indexed by slot mod depth:
///
///  - LandingWheel holds in-flight transmissions keyed (time, seq). A
///    winner of slot t lands at tick (t+1)*T + prop, which the receive
///    step of slot ceil(time / T) <= t + 1 + ceil(max_prop / T) sees.
///    replay(s) hands out bucket s's due entries in (time, seq) order:
///    exactly the set, and exactly the order, that a priority queue
///    pops with time <= s*T. Pushes append; a bucket whose appends came
///    in key order -- one producer under constant propagation, the
///    common case -- is replayed without sorting, any other (cross-shard
///    mail, per-level skew) is sorted once, at its replay.
///  - EligibilityWheel holds queues whose head may not transmit yet:
///    admit(q, gate, s) parks q until the first slot whose boundary is
///    at or past the head's gate tick (unless slot s's already is), and
///    release(s) hands back the queues due at s.
///
/// slot_wheel_depth(max_delay) sizes a wheel so nothing wraps: a power
/// of two, capped at kMaxWheelSlots. Delays are unbounded (TimingConfig
/// only requires >= 0), so an entry due more than the depth ahead waits
/// in its bucket through the earlier laps: every replay and release
/// takes only what is due. Any depth is therefore correct; the bound
/// only keeps later-lap entries rare.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "sim/event_queue.hpp"

namespace otis::sim {

/// Depth cap of every slot wheel (a power of two).
inline constexpr std::size_t kMaxWheelSlots = 1024;

/// The first slot whose boundary is at or past `tick` (>= 0): the slot
/// whose receive step lands an arrival at `tick`, and the first slot in
/// which a head whose gate opens at `tick` may transmit.
[[nodiscard]] constexpr SimTime slot_at_or_after(SimTime tick) noexcept {
  return (tick >> kSubSlotBits) + ((tick & (kTicksPerSlot - 1)) != 0 ? 1 : 0);
}

/// Buckets for events due at most `max_delay` ticks past the boundary
/// after the slot that schedules them: 2 + ceil(max_delay / T), rounded
/// up to a power of two, at most kMaxWheelSlots.
[[nodiscard]] inline std::size_t slot_wheel_depth(SimTime max_delay) {
  OTIS_REQUIRE(max_delay >= 0, "slot_wheel_depth: delay must be >= 0");
  const SimTime slots = 2 + slot_at_or_after(max_delay);
  return std::bit_ceil(static_cast<std::size_t>(
      std::min<SimTime>(slots, static_cast<SimTime>(kMaxWheelSlots))));
}

/// Transmissions in flight, replayed per landing slot (see file comment).
template <typename Payload>
class LandingWheel {
 public:
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;  ///< tie-break at equal times; unique per time
    Payload payload{};
  };

  /// `depth` must be a power of two (slot_wheel_depth).
  explicit LandingWheel(std::size_t depth = 1)
      : buckets_(depth), mask_(depth - 1) {
    OTIS_REQUIRE(std::has_single_bit(depth),
                 "LandingWheel: depth must be a power of two");
  }

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Schedules `payload` at tick `time` (>= 0) with tie-break key `seq`;
  /// the receive step of slot_at_or_after(time) replays it.
  void push(SimTime time, std::uint64_t seq, Payload payload) {
    Bucket& bucket =
        buckets_[static_cast<std::size_t>(slot_at_or_after(time)) & mask_];
    if (!bucket.entries.empty()) {
      const Entry& last = bucket.entries.back();
      if (time < last.time || (time == last.time && seq < last.seq)) {
        bucket.ordered = false;
      }
    }
    bucket.entries.push_back(Entry{time, seq, std::move(payload)});
    ++pending_;
  }

  /// Calls fn(entry) on every entry with time <= ticks_from_slots(slot),
  /// in (time, seq) order, and removes them. Every earlier slot must
  /// have been replayed already, and `fn` must not push.
  template <typename Fn>
  void replay(SimTime slot, Fn&& fn) {
    Bucket& bucket = buckets_[static_cast<std::size_t>(slot) & mask_];
    if (bucket.entries.empty()) {
      return;
    }
    if (!bucket.ordered) {
      std::sort(bucket.entries.begin(), bucket.entries.end(), earlier);
      bucket.ordered = true;
    }
    const SimTime due = ticks_from_slots(slot);
    std::size_t taken = 0;
    for (const Entry& entry : bucket.entries) {
      if (entry.time > due) {
        break;  // a later lap: stays, still in order
      }
      fn(entry);
      ++taken;
    }
    pending_ -= taken;
    bucket.entries.erase(
        bucket.entries.begin(),
        bucket.entries.begin() + static_cast<std::ptrdiff_t>(taken));
  }

  /// Replays every pending entry in (time, seq) order and empties the
  /// wheel (the end-of-run flush). `fn` must not push.
  template <typename Fn>
  void drain(Fn&& fn) {
    std::vector<Entry> all;
    all.reserve(pending_);
    for (Bucket& bucket : buckets_) {
      std::move(bucket.entries.begin(), bucket.entries.end(),
                std::back_inserter(all));
      bucket.entries.clear();
      bucket.ordered = true;
    }
    pending_ = 0;
    std::sort(all.begin(), all.end(), earlier);
    for (const Entry& entry : all) {
      fn(entry);
    }
  }

  /// Visits every pending entry in unspecified order (checkpoints:
  /// re-pushing the visited entries reproduces every replay exactly).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Bucket& bucket : buckets_) {
      for (const Entry& entry : bucket.entries) {
        fn(entry);
      }
    }
  }

 private:
  struct Bucket {
    std::vector<Entry> entries;
    bool ordered = true;  ///< appends so far arrived in (time, seq) order
  };

  static bool earlier(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_;
  std::size_t pending_ = 0;
};

/// Queues waiting for their head's gate, released per slot (see file
/// comment).
class EligibilityWheel {
 public:
  /// `depth` must be a power of two (slot_wheel_depth).
  explicit EligibilityWheel(std::size_t depth = 1)
      : buckets_(depth), mask_(depth - 1) {
    OTIS_REQUIRE(std::has_single_bit(depth),
                 "EligibilityWheel: depth must be a power of two");
  }

  [[nodiscard]] std::size_t parked() const noexcept { return parked_; }

  /// The gate rule: true if a head whose gate opens at tick `gate` may
  /// transmit at the boundary of `slot`; otherwise parks `queue` until
  /// the first slot whose boundary opens it and returns false.
  bool admit(std::size_t queue, SimTime gate, SimTime slot) {
    const SimTime first = slot_at_or_after(gate);
    if (first <= slot) {
      return true;
    }
    buckets_[static_cast<std::size_t>(first) & mask_].push_back(
        Parked{first, queue});
    ++parked_;
    return false;
  }

  /// Calls fn(queue) on every queue parked until `slot` or earlier that
  /// shares its bucket, and removes them; later laps stay. `fn` must not
  /// admit.
  template <typename Fn>
  void release(SimTime slot, Fn&& fn) {
    std::vector<Parked>& bucket =
        buckets_[static_cast<std::size_t>(slot) & mask_];
    std::size_t kept = 0;
    for (const Parked& p : bucket) {
      if (p.slot <= slot) {
        fn(p.queue);
      } else {
        bucket[kept++] = p;
      }
    }
    parked_ -= bucket.size() - kept;
    bucket.resize(kept);
  }

 private:
  struct Parked {
    SimTime slot;
    std::size_t queue;
  };

  std::vector<std::vector<Parked>> buckets_;
  std::size_t mask_;
  std::size_t parked_ = 0;
};

}  // namespace otis::sim
