// Sparse production dispatch: the shard partition and the active-mercurial-core index.
//
// The dense production pass re-walks the fleet's full mercurial_cores() list once per shard
// per tick, range-filtering as it goes — O(mercurial × shards) — and probes
// AnyDefectActive()/Schedulable() on every latent core it keeps. At fleet scale almost all of
// that work is skipped cores, and skipped cores consume no randomness (the per-core Poisson
// draw happens only after every gate passes), so a pre-filtered index visits exactly the
// draw-consuming cores in exactly the dense order: bit-identical, not approximately so. See
// DESIGN.md, "Decision: sparsity is free when streams are counter-keyed".
//
// The index admits a core into its shard's scanned slice at the first tick its earliest
// defect onset can be reached (install time + onset, exact integer arithmetic) and drops it
// permanently on retirement. Admission may precede Defect::Active's float age round-trip by
// at most one tick — never follow it — so the per-visit AnyDefectActive() check stays the
// exact gate and an early admission is a no-op visit, not a behavior change. Quarantine and
// probation are deliberately NOT index transitions: they are reversible, the per-visit
// Schedulable()/probation checks are draw-free, and keeping convicted cores in the slice
// keeps the index monotone (admissions + retirement only), which is what makes it cheap to
// prove complete (property test P16).
//
// Thread-safety: Build/Advance/Retire run in the serial phase; the parallel phase only reads
// ActiveInShard for the shard it owns.

#ifndef MERCURIAL_SRC_CORE_ACTIVE_INDEX_H_
#define MERCURIAL_SRC_CORE_ACTIVE_INDEX_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/common/sim_time.h"
#include "src/fleet/fleet.h"

namespace mercurial {

// One shard's contiguous slice of the fleet's global core indices.
struct ShardRange {
  uint64_t begin = 0;
  uint64_t end = 0;  // exclusive
};

// Partitions [0, core_count) into `shards` contiguous, disjoint, ordered ranges covering
// every core exactly once (trailing ranges may be empty when shards > core_count). A pure
// function of its arguments — the partition never depends on thread count.
std::vector<ShardRange> PartitionCores(uint64_t core_count, int shards);

class ActiveProductionIndex {
 public:
  // Computes each mercurial core's activation time (min over its defects of install + onset;
  // defects with onset <= 0 are born active) and buckets cores by the shard partition. Call
  // once, before the first Advance.
  void Build(const Fleet& fleet, const std::vector<ShardRange>& ranges);

  // Admits every pending core whose activation time has been reached by `now` into its
  // shard's active slice. Serial phase, once per tick, before the production pass.
  void Advance(SimTime now);

  // Permanently removes a core (retirement is the scheduler's only irreversible state).
  // No-op for cores the index does not track.
  void Retire(uint64_t core);

  // The mercurial cores of `shard` that may have an active defect as of the last Advance,
  // ascending — a sorted subsequence of fleet.mercurial_cores() restricted to the shard.
  const std::vector<uint64_t>& ActiveInShard(size_t shard) const { return active_[shard]; }

  size_t shard_count() const { return active_.size(); }
  uint64_t admitted_count() const { return admitted_; }
  uint64_t retired_count() const { return retired_; }
  // Cores still latent (activation beyond the last Advance).
  uint64_t pending_count() const { return pending_.size() - pending_cursor_; }

 private:
  struct Pending {
    SimTime activation;
    uint64_t core = 0;
    uint32_t shard = 0;
  };

  size_t ShardOf(uint64_t core) const;

  std::vector<Pending> pending_;  // sorted by (activation, core); consumed front to back
  size_t pending_cursor_ = 0;
  std::vector<std::vector<uint64_t>> active_;  // per shard, ascending
  std::vector<uint64_t> range_ends_;           // partition ends, for ShardOf
  // Cores retired before activation.
  std::unordered_set<uint64_t> retired_pending_;  // order-free: membership tests only
  uint64_t admitted_ = 0;
  uint64_t retired_ = 0;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_CORE_ACTIVE_INDEX_H_
