#include "src/mitigate/blast_radius.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace mercurial {

namespace {

// One epoch on the wire: u64 epoch, then u64 produced and u64 corrupt per artifact kind.
constexpr size_t kEpochWireBytes = 8 + kArtifactKindCount * 2 * 8;

}  // namespace

ArtifactKind ArtifactKindForWorkload(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kMemcpy:
    case WorkloadKind::kCompression:
    case WorkloadKind::kHash:
      return ArtifactKind::kChecksummedWrite;
    case WorkloadKind::kLocking:
    case WorkloadKind::kDbIndex:
      return ArtifactKind::kLogEpoch;
    case WorkloadKind::kGarbageCollect:
    case WorkloadKind::kKernel:
    case WorkloadKind::kMatmul:
      return ArtifactKind::kCheckpoint;
    case WorkloadKind::kCrypto:
    case WorkloadKind::kSorting:
    case WorkloadKind::kVectorScan:
    case WorkloadKind::kArithmetic:
      return ArtifactKind::kPlainOutput;
  }
  return ArtifactKind::kPlainOutput;
}

uint64_t BlastRadiusLedger::EpochArtifacts::produced() const {
  uint64_t total = 0;
  for (const ArtifactCounts& kind_counts : counts) {
    total += kind_counts.produced;
  }
  return total;
}

uint64_t BlastRadiusLedger::EpochArtifacts::corrupt() const {
  uint64_t total = 0;
  for (const ArtifactCounts& kind_counts : counts) {
    total += kind_counts.corrupt;
  }
  return total;
}

void BlastRadiusLedger::RecordArtifacts(uint64_t core_global, uint64_t epoch, ArtifactKind kind,
                                        uint64_t produced, uint64_t corrupt) {
  if (produced == 0) {
    return;
  }
  MERCURIAL_CHECK_GE(produced, corrupt);
  CoreLedger& core = cores_[core_global];
  if (core.epochs.empty() || core.epochs.back().epoch != epoch) {
    MERCURIAL_CHECK(core.epochs.empty() || core.epochs.back().epoch < epoch)
        << "epochs must arrive in non-decreasing order per core";
    core.epochs.push_back(EpochArtifacts{epoch, {}});
  }
  ArtifactCounts& counts = core.epochs.back().counts[static_cast<int>(kind)];
  counts.produced += produced;
  counts.corrupt += corrupt;
  artifacts_recorded_ += produced;
  corrupt_recorded_ += corrupt;
  if (log_ops_) {
    MutationOp op;
    op.core_global = core_global;
    op.epoch = epoch;
    op.artifact_kind = kind;
    op.produced = produced;
    op.corrupt = corrupt;
    tick_ops_.push_back(op);
  }
}

void BlastRadiusLedger::NoteSignal(uint64_t core_global, SimTime time) {
  CoreLedger& core = cores_[core_global];
  if (!core.has_signal || time < core.first_signal) {
    core.first_signal = time;
    core.has_signal = true;
    if (log_ops_) {
      MutationOp op;
      op.op = OpTag::kSignal;
      op.core_global = core_global;
      op.signal_seconds = time.seconds();
      tick_ops_.push_back(op);
    }
  }
}

void BlastRadiusLedger::MergeFrom(BlastRadiusLedger& other) {
  // Shard ledgers are merged, not recorded into, so the mutation log captures the incoming
  // content here: one artifacts op per non-empty (core, epoch, kind) bucket, in the incoming
  // ledger's deterministic (sorted-core, epoch-order) iteration order.
  if (log_ops_) {
    for (const auto& [core_global, incoming] : other.cores_) {
      for (const EpochArtifacts& epoch : incoming.epochs) {
        for (int k = 0; k < kArtifactKindCount; ++k) {
          if (epoch.counts[k].produced == 0 && epoch.counts[k].corrupt == 0) {
            continue;
          }
          MutationOp op;
          op.core_global = core_global;
          op.epoch = epoch.epoch;
          op.artifact_kind = static_cast<ArtifactKind>(k);
          op.produced = epoch.counts[k].produced;
          op.corrupt = epoch.counts[k].corrupt;
          tick_ops_.push_back(op);
        }
      }
      if (incoming.has_signal) {
        const CoreLedger* existing = Find(core_global);
        if (existing == nullptr || !existing->has_signal ||
            incoming.first_signal < existing->first_signal) {
          MutationOp op;
          op.op = OpTag::kSignal;
          op.core_global = core_global;
          op.signal_seconds = incoming.first_signal.seconds();
          tick_ops_.push_back(op);
        }
      }
    }
  }
  for (auto& [core_global, incoming] : other.cores_) {
    CoreLedger& core = cores_[core_global];
    for (EpochArtifacts& epoch : incoming.epochs) {
      if (!core.epochs.empty() && core.epochs.back().epoch == epoch.epoch) {
        for (int k = 0; k < kArtifactKindCount; ++k) {
          core.epochs.back().counts[k].produced += epoch.counts[k].produced;
          core.epochs.back().counts[k].corrupt += epoch.counts[k].corrupt;
        }
      } else {
        MERCURIAL_CHECK(core.epochs.empty() || core.epochs.back().epoch < epoch.epoch)
            << "shard ledgers must merge in epoch order";
        core.epochs.push_back(epoch);
      }
    }
    if (incoming.has_signal) {
      if (!core.has_signal || incoming.first_signal < core.first_signal) {
        core.first_signal = incoming.first_signal;
        core.has_signal = true;
      }
    }
  }
  artifacts_recorded_ += other.artifacts_recorded_;
  corrupt_recorded_ += other.corrupt_recorded_;
  other.Clear();
}

void BlastRadiusLedger::Clear() {
  cores_.clear();
  artifacts_recorded_ = 0;
  corrupt_recorded_ = 0;
}

const BlastRadiusLedger::CoreLedger* BlastRadiusLedger::Find(uint64_t core_global) const {
  const auto it = cores_.find(core_global);
  return it == cores_.end() ? nullptr : &it->second;
}

uint64_t BlastRadiusLedger::ArtifactsForCore(uint64_t core_global) const {
  const CoreLedger* core = Find(core_global);
  if (core == nullptr) {
    return 0;
  }
  uint64_t total = 0;
  for (const EpochArtifacts& epoch : core->epochs) {
    total += epoch.produced();
  }
  return total;
}

uint64_t BlastRadiusLedger::CorruptForCore(uint64_t core_global) const {
  const CoreLedger* core = Find(core_global);
  if (core == nullptr) {
    return 0;
  }
  uint64_t total = 0;
  for (const EpochArtifacts& epoch : core->epochs) {
    total += epoch.corrupt();
  }
  return total;
}

template <class S, class Io>
void BlastRadiusLedger::Wire(S& s, Io& io) {
  io.U64(s.artifacts_recorded_, s.corrupt_recorded_);
  io.Map(s.cores_, [&](auto& core) {
    io.Bool(core.has_signal);
    io.Time(core.first_signal);
    io.Seq(core.epochs, kEpochWireBytes, [&](auto& epoch) {
      io.U64(epoch.epoch);
      for (auto& counts : epoch.counts) {
        io.U64(counts.produced, counts.corrupt);
      }
    });
  });
}

template <class Ops, class Io>
void BlastRadiusLedger::WireOps(Ops& ops, Io& io) {
  io.Seq(ops, [&](auto& op) {
    io.Enum(op.op, kOpTagCount, "blast-radius op tag unrecognized");
    io.U64(op.core_global);
    if (op.op == OpTag::kArtifacts) {
      io.U64(op.epoch);
      io.Enum(op.artifact_kind, kArtifactKindCount,
              "blast-radius op has artifact kind out of range");
      io.U64(op.produced, op.corrupt);
      io.Require(op.corrupt <= op.produced, "blast-radius op has corrupt > produced");
    } else {
      io.I64(op.signal_seconds);
    }
  });
}

void BlastRadiusLedger::DrainTickOps(ByteWriter& w) {
  WireOut out(w);
  WireOps(std::as_const(tick_ops_), out);
  tick_ops_.clear();
}

Status BlastRadiusLedger::ApplyTickOps(ByteReader& r) {
  std::vector<MutationOp> ops;
  WireIn in(r);
  WireOps(ops, in);
  if (!in.ok()) {
    return in.status();
  }
  // Replay through the normal recording paths with logging suspended, so the replayed
  // mutations are not re-logged into the next tick frame.
  const bool saved_log = log_ops_;
  log_ops_ = false;
  for (const MutationOp& op : ops) {
    if (op.op == OpTag::kArtifacts) {
      RecordArtifacts(op.core_global, op.epoch, op.artifact_kind, op.produced, op.corrupt);
    } else {
      NoteSignal(op.core_global, SimTime::Seconds(op.signal_seconds));
    }
  }
  log_ops_ = saved_log;
  return Status::Ok();
}

void BlastRadiusLedger::SaveDurableState(ByteWriter& w) const {
  WireOut out(w);
  Wire(*this, out);
}

Status BlastRadiusLedger::LoadDurableState(ByteReader& r) {
  // The field list replaces the totals and every core's history, so it decodes into an empty
  // ledger (no pending ops) that keeps only the mutation-log switch, rather than into a copy.
  BlastRadiusLedger empty;
  empty.log_ops_ = log_ops_;
  return WireLoad(r, *this, std::move(empty),
                  [](BlastRadiusLedger& ledger, WireIn& in) { Wire(ledger, in); });
}

}  // namespace mercurial
