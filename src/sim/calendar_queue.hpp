#pragma once
/// \file calendar_queue.hpp
/// Calendar queue (Brown 1988): a general pending-event set at O(1)
/// amortized per operation, where std::priority_queue pays O(log n)
/// cache-missing comparisons. It is no longer on any engine path: the
/// async engine's delays are bounded in slots, so it runs on per-slot
/// wheels (slot_wheel.hpp). The queue stays for its ordering tests and
/// the micro_benchmarks [queues] bar, the reference a general event set
/// must meet.
///
/// Events hash by time into a year of day buckets (a day starts one
/// slot, kTicksPerSlot ticks, long); a push appends to its day and a pop
/// walks the calendar day by day. Pop order is a pure function of (time,
/// seq) -- the EventQueue's FIFO tie-break -- so runs stay
/// bit-reproducible whatever the layout does.
///
/// A day has two parts. Its first kInline entries sit in one flat slab,
/// with fill counts and flags in byte arrays that stay in L2: a push
/// there is one store plus a counter bump, and the part is sorted
/// descending once, when the day is next examined, so each pop is a
/// decrement. Further entries go to a growable segment, ascending and
/// popped from a head index; a pop takes the earlier of the two fronts.
/// A day borrows its segment from a pool and returns it, capacity and
/// all, once drained, so a recurring flood reuses a warm buffer.
///
/// Same-tick floods were the async engines' steady state: under a const
/// timing profile every transmission of slot s lands on one tick, which
/// no day split can separate, so one day absorbs a whole slot's batch.
/// That is why overflow stays per day: a shared overflow heap would pay
/// O(log n) for every event of a flood. A segment holds a sorted run
/// plus an unsorted tail: pushes in (time, seq) order -- one producer's
/// flood, one shard's keyed pushes -- extend the run and are never
/// sorted; others wait in the tail until the day is next examined, then
/// are sorted and merged in.
///
/// Rescaling (a variant of Brown's rule) tracks the days the events
/// span, from now to the latest time ever pushed: past kTargetOccupancy
/// events per effective day, the year doubles (when the span fills it)
/// or the days halve (down to one tick). Each rebuild doubles the
/// effective day count, so rebuild work is a geometric series.
///
/// peek() memoizes the minimum's bucket and pop() keeps it while the
/// next entry stays in the same day, so a peek-then-pop costs one walk.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "sim/event_queue.hpp"

namespace otis::sim {

template <typename Payload>
class CalendarQueue {
 public:
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break at equal times
    Payload payload{};
  };

  /// `bucket_width` is the day length in SimTime units (default: one
  /// slot of ticks); both it and `initial_buckets` must be powers of
  /// two (bucket lookup is a shift and a mask, no division).
  explicit CalendarQueue(SimTime bucket_width = kTicksPerSlot,
                         std::size_t initial_buckets = 64)
      : slab_(initial_buckets * kInline),
        counts_(initial_buckets, 0),
        flags_(initial_buckets, 0),
        segment_of_(initial_buckets, 0) {
    OTIS_REQUIRE(bucket_width > 0 &&
                     (bucket_width & (bucket_width - 1)) == 0,
                 "CalendarQueue: bucket width must be a power of two");
    OTIS_REQUIRE(initial_buckets > 0 &&
                     (initial_buckets & (initial_buckets - 1)) == 0,
                 "CalendarQueue: bucket count must be a power of two");
    while ((SimTime{1} << width_shift_) != bucket_width) {
      ++width_shift_;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return count_; }
  /// Time of the most recently popped entry.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `payload` at absolute time `at` (>= now()).
  void push(SimTime at, Payload payload) {
    push_keyed(at, next_seq_, std::move(payload));
    ++next_seq_;
  }

  /// push() with a caller-chosen sequence key. The sharded async engine
  /// derives it from the global (slot, coupler, winner) order, so
  /// entries in *different* shard calendars pop in the order the serial
  /// engine's single queue would. Keys must be unique per (time, seq);
  /// next_seq_ is not advanced, so do not mix this with push().
  void push_keyed(SimTime at, std::uint64_t seq, Payload payload) {
    OTIS_REQUIRE(at >= now_, "CalendarQueue: cannot schedule in the past");
    horizon_ = std::max(horizon_, at);
    maybe_rescale();
    place(at, seq, std::move(payload));
    ++count_;
  }

  /// The earliest (time, seq) entry without removing it. The queue must
  /// be non-empty.
  [[nodiscard]] const Entry& peek() {
    OTIS_ASSERT(count_ > 0, "CalendarQueue: peek on empty queue");
    return *front(min_bucket());
  }

  /// Removes and returns the earliest (time, seq) entry. The queue must
  /// be non-empty.
  Entry pop() {
    OTIS_ASSERT(count_ > 0, "CalendarQueue: pop on empty queue");
    const std::size_t b = min_bucket();
    Entry* top = front(b);
    Entry result = std::move(*top);
    if (top == slab_top(b)) {
      --counts_[b];
    } else if (Segment& seg = segment(b); ++seg.head == seg.entries.size()) {
      seg.entries.clear();  // back to the pool, keeping its capacity
      seg.head = seg.sorted_end = 0;
      free_.push_back(segment_of_[b]);
      flags_[b] &= static_cast<std::uint8_t>(~kOverflow);
    }
    --count_;
    now_ = result.time;
    // The bucket stays the minimum while its next entry is still inside
    // the just-popped day (other buckets' entries lie in later days).
    top = front(b);
    if (top == nullptr || top->time >= day_end(now_)) {
      cached_bucket_ = -1;
    }
    return result;
  }

  /// Visits every pending entry in unspecified order (checkpoint
  /// serialization: pop order is a pure function of (time, seq), so
  /// re-pushing the visited entries with push_keyed reproduces the
  /// queue's behaviour exactly, whatever order they are visited in).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      for (std::size_t i = 0; i < counts_[b]; ++i) {
        fn(slab_[b * kInline + i]);
      }
      if ((flags_[b] & kOverflow) != 0) {
        const Segment& seg = pool_[segment_of_[b]];
        for (std::size_t i = seg.head; i < seg.entries.size(); ++i) {
          fn(seg.entries[i]);
        }
      }
    }
  }

  /// Auto-sequence counter state, for checkpointing queues that use the
  /// plain push() path.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  void set_next_seq(std::uint64_t seq) noexcept { next_seq_ = seq; }

 private:
  /// A day's overflow: live entries are entries[head, size), and the
  /// run [head, sorted_end) is ascending by (time, seq).
  struct Segment {
    std::vector<Entry> entries;
    std::size_t head = 0;
    std::size_t sorted_end = 0;
  };

  /// Slab entries per day: Brown's target is kTargetOccupancy, but once
  /// the year hits kMaxBuckets and the event span outruns it, some days
  /// hold two years' entries; 20 keeps those off the segments too.
  static constexpr std::size_t kInline = 20;
  static constexpr std::size_t kTargetOccupancy = 8;
  /// Ceiling on the year length: the slab costs kInline entries a day.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 17;
  /// flags_ bits: the slab part is unsorted; the day holds a segment.
  static constexpr std::uint8_t kDirty = 1;
  static constexpr std::uint8_t kOverflow = 2;

  /// The (time, seq) order; a lambda, so the sorts inline it.
  static constexpr auto earlier = [](const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  };

  [[nodiscard]] std::size_t bucket_of(SimTime at) const noexcept {
    return (static_cast<std::size_t>(at) >> width_shift_) &
           (counts_.size() - 1);
  }

  /// First time after the day holding `at`.
  [[nodiscard]] SimTime day_end(SimTime at) const noexcept {
    return static_cast<SimTime>(
        ((static_cast<std::size_t>(at) >> width_shift_) + 1) << width_shift_);
  }

  /// Bucket `b`'s segment; requires kOverflow in flags_[b].
  [[nodiscard]] Segment& segment(std::size_t b) noexcept {
    return pool_[segment_of_[b]];
  }

  /// Back (the minimum once sorted) of bucket `b`'s slab part, or null.
  [[nodiscard]] Entry* slab_top(std::size_t b) noexcept {
    return counts_[b] == 0 ? nullptr : &slab_[b * kInline + counts_[b] - 1];
  }

  /// Bucket `b`'s next entry to pop -- its minimum once settled -- or
  /// null when the day is empty.
  [[nodiscard]] Entry* front(std::size_t b) noexcept {
    Entry* top = slab_top(b);
    if ((flags_[b] & kOverflow) != 0) {
      Segment& seg = segment(b);
      if (top == nullptr || earlier(seg.entries[seg.head], *top)) {
        top = &seg.entries[seg.head];
      }
    }
    return top;
  }

  /// Files an entry under its day (push and rebuild). It takes fields,
  /// not an Entry, so the common case builds it straight into the slab.
  void place(SimTime at, std::uint64_t seq, Payload payload) {
    const std::size_t b = bucket_of(at);
    // The cache survives a push into its own bucket (the minimum stays
    // there; settle() re-sorts) or at or after its front, which is at
    // least that bucket's minimum.
    if (cached_bucket_ >= 0) {
      const std::size_t c = static_cast<std::size_t>(cached_bucket_);
      if (b != c && at < front(c)->time) {
        cached_bucket_ = -1;
      }
    }
    if (counts_[b] < kInline) {
      slab_[b * kInline + counts_[b]] = Entry{at, seq, std::move(payload)};
      ++counts_[b];
      flags_[b] |= kDirty;
    } else {
      place_in_segment(b, Entry{at, seq, std::move(payload)});
    }
  }

  /// place() for a day whose slab part is full.
  void place_in_segment(std::size_t b, Entry entry) {
    if ((flags_[b] & kOverflow) == 0) {
      if (free_.empty()) {
        free_.push_back(static_cast<std::uint32_t>(pool_.size()));
        pool_.emplace_back();
      }
      segment_of_[b] = free_.back();
      free_.pop_back();
      flags_[b] |= kOverflow;
    }
    Segment& seg = segment(b);
    const bool extends_run = seg.sorted_end == seg.entries.size() &&
                             (seg.entries.empty() ||
                              !earlier(entry, seg.entries.back()));
    // Reclaim the popped prefix once it outweighs the live entries, so a
    // day that never drains stays bounded (each move was paid by a pop).
    if (2 * seg.head > seg.entries.size()) {
      seg.entries.erase(seg.entries.begin(),
                        seg.entries.begin() +
                            static_cast<std::ptrdiff_t>(seg.head));
      seg.sorted_end -= seg.head;
      seg.head = 0;
    }
    seg.entries.push_back(std::move(entry));
    if (extends_run) {
      seg.sorted_end = seg.entries.size();
    }
  }

  /// Sorts what pushes left out of order in bucket `b`: the slab part
  /// descending, the segment's tail merged into its run (O(live)).
  void settle(std::size_t b) {
    if ((flags_[b] & kDirty) != 0) {
      const auto slab =
          slab_.begin() + static_cast<std::ptrdiff_t>(b * kInline);
      std::sort(slab, slab + counts_[b],
                [](const Entry& x, const Entry& y) { return earlier(y, x); });
      flags_[b] &= static_cast<std::uint8_t>(~kDirty);
    }
    if ((flags_[b] & kOverflow) == 0) {
      return;
    }
    Segment& seg = segment(b);
    if (seg.sorted_end < seg.entries.size()) {
      const auto tail =
          seg.entries.begin() + static_cast<std::ptrdiff_t>(seg.sorted_end);
      std::sort(tail, seg.entries.end(), earlier);
      std::inplace_merge(
          seg.entries.begin() + static_cast<std::ptrdiff_t>(seg.head), tail,
          seg.entries.end(), earlier);
      seg.sorted_end = seg.entries.size();
    }
  }

  /// The settled bucket holding the queue's minimum at its front, cached;
  /// requires a non-empty queue.
  [[nodiscard]] std::size_t min_bucket() {
    if (cached_bucket_ < 0) {
      cached_bucket_ = find_min_bucket();
    }
    const std::size_t b = static_cast<std::size_t>(cached_bucket_);
    settle(b);  // a push may have landed there since the last walk
    return b;
  }

  /// Bucket whose front is the queue-wide minimum; requires a non-empty
  /// queue. Settles each bucket it examines.
  [[nodiscard]] std::int64_t find_min_bucket() {
    // Walk the calendar from today: a bucket whose front falls inside the
    // day being walked holds the minimum (earlier days were empty, other
    // buckets' entries lie in later days). If a whole year passes without
    // one -- every entry is over a year ahead -- the least front wins.
    const std::size_t buckets = counts_.size();
    std::size_t day = static_cast<std::size_t>(now_) >> width_shift_;
    std::int64_t best = -1;
    for (std::size_t step = 0; step < buckets; ++step, ++day) {
      const std::size_t b = day & (buckets - 1);
      if (counts_[b] == 0 && flags_[b] < kOverflow) {
        continue;
      }
      settle(b);
      const Entry& head = *front(b);
      if (head.time < static_cast<SimTime>((day + 1) << width_shift_)) {
        return static_cast<std::int64_t>(b);
      }
      if (best < 0 || earlier(head, *front(static_cast<std::size_t>(best)))) {
        best = static_cast<std::int64_t>(b);
      }
    }
    return best;
  }

  /// Brown's rule (see the file comment); a cheap early-out when neither
  /// step is possible (one-tick days spanning a full maximal year).
  void maybe_rescale() {
    const std::size_t span_days =
        (static_cast<std::size_t>(horizon_) >> width_shift_) -
        (static_cast<std::size_t>(now_) >> width_shift_) + 1;
    if (count_ < kTargetOccupancy * std::min(span_days, counts_.size())) {
      return;
    }
    if (span_days >= counts_.size()) {
      if (counts_.size() < kMaxBuckets) {
        rebuild(counts_.size() * 2, width_shift_);
      }
    } else if (width_shift_ > 0) {
      rebuild(counts_.size(), width_shift_ - 1);
    }
  }

  /// Redistributes every entry into `new_size` fresh buckets of width
  /// 2^new_shift.
  void rebuild(std::size_t new_size, int new_shift) {
    CalendarQueue old = std::move(*this);
    slab_.assign(new_size * kInline, Entry{});
    counts_.assign(new_size, 0);
    flags_.assign(new_size, 0);
    segment_of_.assign(new_size, 0);
    pool_.clear();
    free_.clear();
    width_shift_ = new_shift;
    cached_bucket_ = -1;
    old.for_each([this](const Entry& entry) {
      place(entry.time, entry.seq, entry.payload);
    });
  }

  int width_shift_ = 0;
  /// Bucket b's slab part is slab_[b * kInline + i), i < counts_[b],
  /// unordered while flags_[b] has kDirty, else sorted descending. While
  /// flags_[b] has kOverflow its segment is pool_[segment_of_[b]]; free_
  /// lists the pooled segments not in use.
  std::vector<Entry> slab_;
  std::vector<std::uint8_t> counts_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> segment_of_;
  std::vector<Segment> pool_;
  std::vector<std::uint32_t> free_;
  std::size_t count_ = 0;
  SimTime now_ = 0;
  SimTime horizon_ = 0;  ///< latest time ever pushed
  std::uint64_t next_seq_ = 0;
  /// Bucket holding the queue-wide minimum, or -1; min_bucket() settles
  /// it before use.
  std::int64_t cached_bucket_ = -1;
};

}  // namespace otis::sim
