// Bucketed calendar queue ("due-wheel") indexing which cores' offline screens come due at
// which tick, so the sparse screening engine visits O(due cores) per tick instead of scanning
// every core's due time (see DESIGN.md, "Decision: sparsity is free when streams are
// counter-keyed"). Outside the adaptive allocator it holds only defective cores, cores not
// yet screened and cores parked until install: a healthy core leaves it at its first screen
// for a cohort of the orchestrator (ScreeningOrchestrator::EnableSparse), which is not a
// wheel entry.
//
// The wheel is an index, not the truth: exact due times stay in the orchestrator's
// next_offline_due_ table, and every wheel entry is the *tick* on which that due time first
// satisfies `due <= now` (fire tick = ceil(due / dt), floored to the next undrained tick).
// Near-future ticks live in a fixed ring of buckets; entries further out than the ring go to
// an ordered overflow map and are looked up directly when their tick arrives. Because the
// wheel is drained tick by tick (Drain checks consecutive advancement), a ring slot can only
// ever hold entries for a single tick, so no migration pass is needed.
//
// Thread-safety: none. The sparse engine keeps one wheel per shard; the owning shard drains
// it during the parallel phase and the serial control plane rebuckets entries (throttle)
// between phases.

#ifndef MERCURIAL_SRC_DETECT_DUE_WHEEL_H_
#define MERCURIAL_SRC_DETECT_DUE_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace mercurial {

// Occupancy and traffic counters, aggregated across shards for the study's
// "screening.wheel_*" metrics and the parallel bench's occupancy report.
struct DueWheelStats {
  uint64_t scheduled = 0;         // entries inserted, including reschedules
  uint64_t drained = 0;           // entries returned by Drain
  uint64_t overflow_inserts = 0;  // inserts that landed beyond the ring
  uint64_t max_bucket = 0;        // largest single drained bucket
  uint64_t peak_occupancy = 0;    // max simultaneous entries

  void Merge(const DueWheelStats& other) {
    scheduled += other.scheduled;
    drained += other.drained;
    overflow_inserts += other.overflow_inserts;
    max_bucket = max_bucket < other.max_bucket ? other.max_bucket : max_bucket;
    peak_occupancy =
        peak_occupancy < other.peak_occupancy ? other.peak_occupancy : peak_occupancy;
  }
};

class DueWheel {
 public:
  // Default ring span in ticks. The common cadence (45-day period, 1-day tick) fits entirely
  // in the default ring; finer ticks spill the far portion of a period into the overflow map
  // unless the wheel is sized for them (see the constructor).
  static constexpr int64_t kRingTicks = 256;

  // `min_span_ticks` is the furthest-ahead schedule the steady state produces (the screening
  // cadence in ticks); it is rounded up to a power of two, floored at kRingTicks. Ring
  // placement is an implementation detail — drains merge ring and overflow entries and sort,
  // so any ring size yields identical drain sequences — but a ring that covers the cadence
  // keeps the hot reschedule path out of the overflow map entirely (an hourly tick puts a
  // 45-day period 1080 ticks out, which would otherwise be a map insert per screen).
  explicit DueWheel(int64_t min_span_ticks = kRingTicks);

  // Last drained tick; entries may only be scheduled strictly after it.
  int64_t current() const { return current_; }
  size_t size() const { return size_; }
  const DueWheelStats& stats() const { return stats_; }

  // Schedules `core` to fire at `tick` (> current()). A core must not be live in the wheel
  // twice; the drain removes it, so visit-then-reschedule is the steady state.
  void Schedule(uint32_t core, int64_t tick);

  // Advances the wheel to `tick` (must be current() + 1: the engine drains every tick, which
  // is what keeps ring slots single-tick) and returns the cores due, ascending. The returned
  // reference is invalidated by the next Drain.
  const std::vector<uint32_t>& Drain(int64_t tick);

  // Removes and returns every (core, fire tick) entry with fire tick in
  // [first, last] ∩ (current(), +inf). The throttle path uses this to re-check exact due
  // times: qualifying entries are re-Scheduled at the deferral horizon, the rest at their
  // original fire tick.
  std::vector<std::pair<uint32_t, int64_t>> ExtractWindow(int64_t first, int64_t last);

 private:
  size_t Slot(int64_t tick) const { return static_cast<size_t>(tick) & (ring_ticks_ - 1); }

  int64_t ring_ticks_ = kRingTicks;  // power of two
  int64_t current_ = 0;
  size_t size_ = 0;
  std::vector<std::vector<uint32_t>> ring_;          // slot -> cores, single tick per slot
  std::map<int64_t, std::vector<uint32_t>> overflow_;  // fire tick -> cores, beyond the ring
  std::vector<uint32_t> drain_buf_;
  DueWheelStats stats_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_DUE_WHEEL_H_
