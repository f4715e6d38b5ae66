#pragma once
/// \file event_queue.hpp
/// Generic discrete-event simulation core.
///
/// The OPS network simulator is slot-synchronous (single-wavelength
/// couplers make time naturally slotted), but it is built on this
/// general event engine so that asynchronous extensions (tuning
/// latencies, unequal propagation delays) slot in without rework.
/// Events at equal times fire in schedule order (stable FIFO tie-break),
/// which keeps runs bit-reproducible.
///
/// This priority-queue implementation backs the seed-faithful
/// Engine::kEventQueue loop (a tests-only fixture since the async layer
/// landed); the asynchronous extensions themselves run on per-slot
/// wheels, slot_wheel.hpp, since every timing delay is bounded in slots.

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace otis::sim {

/// Simulation clock type: abstract time units. The slot-aligned engines
/// count whole slots (1 unit = 1 slot); the asynchronous timing layer
/// counts fixed-point sub-slot *ticks* (1 slot = kTicksPerSlot units),
/// which is what lets tuning latencies and propagation skew smaller than
/// a slot stay exact integers. Both interpretations share this type --
/// an engine picks one and sticks to it.
using SimTime = std::int64_t;

/// Fixed-point sub-slot resolution: 1 slot = 2^kSubSlotBits ticks.
inline constexpr int kSubSlotBits = 10;
inline constexpr SimTime kTicksPerSlot = SimTime{1} << kSubSlotBits;

/// Whole slots -> ticks (the async engines' native unit).
[[nodiscard]] constexpr SimTime ticks_from_slots(SimTime slots) noexcept {
  return slots * kTicksPerSlot;
}

/// Tick -> the slot it falls in (floor).
[[nodiscard]] constexpr SimTime slot_of_tick(SimTime tick) noexcept {
  return tick >> kSubSlotBits;
}

/// A deterministic discrete-event engine.
class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute time `at` (>= now()).
  void schedule_at(SimTime at, Action action);

  /// Schedules `action` `delay` units after now().
  void schedule_in(SimTime delay, Action action);

  /// Current simulation time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// True when no events remain.
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const noexcept {
    return events_.size();
  }

  /// Runs events until the queue drains or the next event is later than
  /// `until`, then advances the clock to `until`. Returns the number of
  /// events executed.
  std::int64_t run_until(SimTime until);

  /// Runs everything (use with care: actions may self-perpetuate). The
  /// clock ends at the last executed event's time.
  std::int64_t run_all();

 private:
  /// Shared body of run_until/run_all: executes events with time <=
  /// `until` in (time, seq) order, advancing the clock to each.
  std::int64_t drain(SimTime until);

  struct Entry {
    SimTime time;
    std::uint64_t seq;  // FIFO tie-break
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> events_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace otis::sim
