// Blast-radius accounting: provenance for everything a core produced (§4).
//
// The paper stresses that a mercurial core's damage is not bounded by its conviction:
// "computed, stored, or transmitted corrupt data may take a long time to discover", and the
// Spanner anecdote shows live data being destroyed long after the defective core did its work.
// Detecting and quarantining the core (src/detect) therefore solves only half the problem —
// the other half is answering, at conviction time, "what did this core touch, and how much of
// it can we still repair?"
//
// Every artifact a core produces — checksummed store writes, replicated-log epochs, checkpoint
// payloads, plain workload outputs — is tagged with a compact (core_id, epoch) provenance
// record. The BlastRadiusLedger aggregates those tags per (core, epoch) together with
// harness-only ground truth (how many of the artifacts are actually corrupt at rest), which is
// what lets a study grade the repair pipeline's escape rate. Detection and repair code never
// read the ground-truth column; they only see produced counts and verification outcomes.
//
// The ledger is deterministic infrastructure: recording makes no random draws, per-core epochs
// are kept in arrival (= simulation-time) order, and shard-local ledgers merge in shard-index
// order exactly like the fleet engine's other delta buffers — so an audit-enabled study stays
// bit-identical for any thread count.

#ifndef MERCURIAL_SRC_MITIGATE_BLAST_RADIUS_H_
#define MERCURIAL_SRC_MITIGATE_BLAST_RADIUS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/wire.h"
#include "src/workload/workload.h"

namespace mercurial {

// Compact provenance record carried by every persisted artifact: which core computed it,
// during which accounting epoch (fleet-study tick index). 16 bytes, POD, cheap enough to ride
// along every store write and checkpoint payload.
struct ProvenanceTag {
  uint64_t core_global = 0;
  uint64_t epoch = 0;

  bool operator==(const ProvenanceTag&) const = default;
};

// What kind of artifact a work unit persisted as, which decides the repair action available
// after conviction: checksummed writes re-verify against their CRC, replicated-log epochs
// majority-repair across replicas, checkpoint payloads re-validate their framing, and plain
// outputs can only be re-executed on a healthy core and compared.
enum class ArtifactKind : uint8_t {
  kChecksummedWrite = 0,
  kLogEpoch,
  kCheckpoint,
  kPlainOutput,
};

inline constexpr int kArtifactKindCount = 4;

// Maps a standard-corpus workload to the artifact class its outputs persist as. Copy-heavy
// workloads feed the checksummed store path, lock/index workloads the replicated log, long
// kernel/GC computations checkpoint, and everything else externalizes plain outputs.
ArtifactKind ArtifactKindForWorkload(WorkloadKind kind);

struct ArtifactCounts {
  uint64_t produced = 0;
  uint64_t corrupt = 0;  // ground truth: corrupt at rest (harness accounting only)
};

class BlastRadiusLedger {
 public:
  // One epoch's artifact production by one core, bucketed by kind.
  struct EpochArtifacts {
    uint64_t epoch = 0;
    ArtifactCounts counts[kArtifactKindCount];

    uint64_t produced() const;
    uint64_t corrupt() const;
  };

  // Everything the ledger knows about one core: its per-epoch artifact history (ascending
  // epoch) and the earliest suspicion signal ever filed against it, which anchors the repair
  // orchestrator's defect-onset estimate.
  struct CoreLedger {
    std::vector<EpochArtifacts> epochs;
    SimTime first_signal;
    bool has_signal = false;
  };

  // Records `produced` artifacts (of which `corrupt` are wrong at rest) computed by `core`
  // during `epoch`. Epochs must arrive in non-decreasing order per core, which the tick loop
  // guarantees.
  void RecordArtifacts(uint64_t core_global, uint64_t epoch, ArtifactKind kind,
                       uint64_t produced, uint64_t corrupt);

  // Notes a suspicion signal against `core` at `time`; only the earliest is kept.
  void NoteSignal(uint64_t core_global, SimTime time);

  // Folds `other` into this ledger and clears it. Shard deltas cover disjoint core ranges, so
  // merging in shard-index order preserves each core's epoch ordering.
  void MergeFrom(BlastRadiusLedger& other);

  // Clear-and-reuse for pooled shard buffers (keeps map nodes' vector capacity is not needed;
  // per-tick shard ledgers are tiny, so a plain clear is fine).
  void Clear();

  const CoreLedger* Find(uint64_t core_global) const;

  // Totals across every epoch on record for one core (0 for an unknown core). Used by the
  // incident flight recorder / `mercurialctl trace` to annotate a conviction with the size of
  // its blast radius, and cheap enough for ad-hoc queries (epoch lists are short).
  uint64_t ArtifactsForCore(uint64_t core_global) const;
  uint64_t CorruptForCore(uint64_t core_global) const;

  uint64_t artifacts_recorded() const { return artifacts_recorded_; }
  uint64_t corrupt_recorded() const { return corrupt_recorded_; }

  // Ordered iteration for deterministic finalization.
  const std::map<uint64_t, CoreLedger>& cores() const { return cores_; }

  // --- Durable-state support (src/durability) ----------------------------------------------
  //
  // The ledger grows without bound (per-core epoch histories), so the journal records it as a
  // delta unit: with the mutation log enabled, every recording — direct RecordArtifacts /
  // NoteSignal calls and the per-core content folded in by MergeFrom — appends a compact op.
  // DrainTickOps serializes and clears the ops accumulated since the last drain (one journal
  // tick frame's worth); ApplyTickOps decodes the whole op list, then replays it through the
  // normal recording paths, so a recovered ledger is bit-identical and a clipped op list
  // changes nothing. Snapshots use the full round trip: the map is already key-sorted, so the
  // bytes are deterministic. Serialize assumes the op buffer was drained at the preceding tick
  // boundary.
  void EnableMutationLog(bool enabled) { log_ops_ = enabled; }
  bool HasTickOps() const { return !tick_ops_.empty(); }
  void DrainTickOps(ByteWriter& w);
  Status ApplyTickOps(ByteReader& r);
  void SaveDurableState(ByteWriter& w) const;
  Status LoadDurableState(ByteReader& r);

 private:
  enum class OpTag : uint8_t { kArtifacts = 0, kSignal = 1 };
  static constexpr size_t kOpTagCount = 2;

  struct MutationOp {
    OpTag op = OpTag::kArtifacts;
    uint64_t core_global = 0;
    // kArtifacts
    uint64_t epoch = 0;
    ArtifactKind artifact_kind = ArtifactKind::kChecksummedWrite;
    uint64_t produced = 0;
    uint64_t corrupt = 0;
    // kSignal
    int64_t signal_seconds = 0;
  };

  template <class S, class Io>
  static void Wire(S& s, Io& io);
  template <class Ops, class Io>
  static void WireOps(Ops& ops, Io& io);

  std::map<uint64_t, CoreLedger> cores_;
  uint64_t artifacts_recorded_ = 0;
  uint64_t corrupt_recorded_ = 0;
  bool log_ops_ = false;
  std::vector<MutationOp> tick_ops_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_MITIGATE_BLAST_RADIUS_H_
